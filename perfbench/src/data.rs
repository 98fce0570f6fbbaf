//! Benchmark inputs: the paper's four databases generated from the
//! workload seed, their keyword queries (Tables 3 and 4), and the answer
//! shape each query must produce.

use aqks_datasets::{acmdl, denormalize_acmdl, denormalize_tpch, generate_acmdl, generate_tpch};
use aqks_datasets::{tpch, AcmdlConfig, TpchConfig};
use aqks_eval::workload::{acmdl_queries, tpch_queries, EvalQuery};
use aqks_relational::Database;

/// Generator size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's cardinalities (`paper_scale()` configs).
    Paper,
    /// The generators' test-sized configs (`small()`).
    Small,
}

/// One of the paper's databases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// Normalized TPC-H (Table 2).
    Tpch,
    /// TPC-H′, the unnormalized TPC-H of Table 7.
    TpchPrime,
    /// Normalized ACMDL (Table 2).
    Acmdl,
    /// ACMDL′, the unnormalized ACMDL of Table 7.
    AcmdlPrime,
}

impl Dataset {
    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Tpch => "tpch",
            Dataset::TpchPrime => "tpch-prime",
            Dataset::Acmdl => "acmdl",
            Dataset::AcmdlPrime => "acmdl-prime",
        }
    }

    /// The normalized database this one is derived from (itself when
    /// normalized). Section 4: both must give the same answers.
    pub fn normalized(self) -> Dataset {
        match self {
            Dataset::Tpch | Dataset::TpchPrime => Dataset::Tpch,
            Dataset::Acmdl | Dataset::AcmdlPrime => Dataset::Acmdl,
        }
    }

    /// T1–T8 for the TPC-H databases, A1–A8 for the ACMDL ones.
    pub fn queries(self) -> Vec<EvalQuery> {
        match self.normalized() {
            Dataset::Tpch => tpch_queries(),
            _ => acmdl_queries(),
        }
    }
}

fn tpch_config(scale: Scale, seed: u64) -> TpchConfig {
    let base = match scale {
        Scale::Paper => TpchConfig::paper_scale(),
        Scale::Small => TpchConfig::small(),
    };
    TpchConfig { seed, ..base }
}

fn acmdl_config(scale: Scale, seed: u64) -> AcmdlConfig {
    let base = match scale {
        Scale::Paper => AcmdlConfig::paper_scale(),
        Scale::Small => AcmdlConfig::small(),
    };
    AcmdlConfig { seed, ..base }
}

/// Generates `sets` from `seed`, in order. A database and its
/// unnormalized counterpart come from the same generated instance.
pub fn generate(sets: &[Dataset], scale: Scale, seed: u64) -> Vec<Database> {
    let mut tpch = None;
    let mut acmdl = None;
    sets.iter()
        .map(|ds| match ds {
            Dataset::Tpch | Dataset::TpchPrime => {
                let base = tpch.get_or_insert_with(|| generate_tpch(&tpch_config(scale, seed)));
                if *ds == Dataset::Tpch {
                    base.clone()
                } else {
                    denormalize_tpch(base)
                }
            }
            Dataset::Acmdl | Dataset::AcmdlPrime => {
                let base = acmdl.get_or_insert_with(|| generate_acmdl(&acmdl_config(scale, seed)));
                if *ds == Dataset::Acmdl {
                    base.clone()
                } else {
                    denormalize_acmdl(base)
                }
            }
        })
        .collect()
}

/// The row count of the top-ranked answer to query `id` (T1–T8,
/// A1–A8): the structure the generators plant for Tables 5/6, which
/// holds on every seed and on D and D′ alike.
pub fn expected_rows(ds: Dataset, scale: Scale, id: &str) -> Option<usize> {
    let t = tpch_config(scale, 0);
    let a = acmdl_config(scale, 0);
    Some(match (ds.normalized(), id) {
        (Dataset::Tpch, "T1" | "T2" | "T5") => 1,
        (Dataset::Tpch, "T3") => tpch::ROYAL_OLIVE_ORDER_COUNTS.len(),
        (Dataset::Tpch, "T4") => 13,
        (Dataset::Tpch, "T6") => t.suppliers,
        (Dataset::Tpch, "T7") => 5,
        (Dataset::Tpch, "T8") => 3,
        (Dataset::Acmdl, "A1") => 1,
        (Dataset::Acmdl, "A2") => a.sigmod_proceedings,
        (Dataset::Acmdl, "A3") => a.smith_editors,
        (Dataset::Acmdl, "A4") => a.gill_authors,
        (Dataset::Acmdl, "A5") => acmdl::TUNING_AUTHOR_COUNTS.len(),
        (Dataset::Acmdl, "A6") => a.ieee_publishers,
        (Dataset::Acmdl, "A7") => a.john_mary_pairs,
        (Dataset::Acmdl, "A8") => 2,
        _ => return None,
    })
}
