//! The query workloads of Tables 3 and 4 and the paper's running
//! examples, plus dataset construction at two scales.

use aqks_datasets::{denormalize_acmdl, denormalize_tpch, generate_acmdl, generate_tpch};
use aqks_datasets::{AcmdlConfig, TpchConfig};
use aqks_relational::Database;

/// Dataset scale for the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast test-sized datasets (sub-second per table).
    Small,
    /// The paper's cardinalities (1000 suppliers, 61 Smiths, …).
    Paper,
}

/// One workload query.
#[derive(Debug, Clone)]
pub struct EvalQuery {
    /// Paper id (T1…T8, A1…A8; U1…U5 for the running examples).
    pub id: &'static str,
    /// The keyword query text.
    pub text: &'static str,
    /// The paper's description / search intention.
    pub description: &'static str,
}

/// Table 3: the TPC-H queries.
pub fn tpch_queries() -> Vec<EvalQuery> {
    vec![
        EvalQuery {
            id: "T1",
            text: "order AVG amount",
            description: "Find the average amount of orders",
        },
        EvalQuery {
            id: "T2",
            text: "MAX COUNT order GROUPBY nation",
            description: "Find the maximum number of orders among nations",
        },
        EvalQuery {
            id: "T3",
            text: r#"COUNT order "royal olive""#,
            description: "Find the number of orders that contains the \"royal olive\"",
        },
        EvalQuery {
            id: "T4",
            text: r#"supplier MAX acctbal "yellow tomato""#,
            description: "Find the maximum balance of suppliers that supply the \"yellow tomato\"",
        },
        EvalQuery {
            id: "T5",
            text: r#"COUNT supplier "Indian black chocolate""#,
            description: "Find the number of suppliers for \"Indian black chocolate\"",
        },
        EvalQuery {
            id: "T6",
            text: "COUNT part GROUPBY supplier",
            description: "Find the number of parts supplied by each supplier",
        },
        EvalQuery {
            id: "T7",
            text: "COUNT order SUM amount GROUPBY mktsegment",
            description: "Find the number of orders and their total amount for each market segment",
        },
        EvalQuery {
            id: "T8",
            text: r#"COUNT supplier "pink rose" "white rose""#,
            description: "Find the number of suppliers for \"pink rose\" and \"white rose\"",
        },
    ]
}

/// Table 4: the ACMDL queries.
pub fn acmdl_queries() -> Vec<EvalQuery> {
    vec![
        EvalQuery {
            id: "A1",
            text: "proceeding AVG pages",
            description: "Find the average pages of proceedings",
        },
        EvalQuery {
            id: "A2",
            text: "COUNT paper GROUPBY proceeding SIGMOD",
            description: "Find the number of papers in each 'SIGMOD' proceeding",
        },
        EvalQuery {
            id: "A3",
            text: "COUNT proceeding editor Smith",
            description: "Find the number of proceedings edited by 'Smith'",
        },
        EvalQuery {
            id: "A4",
            text: "paper MAX date Gill",
            description: "Find the date of the latest papers written by 'Gill'",
        },
        EvalQuery {
            id: "A5",
            text: r#"COUNT author "database tuning""#,
            description: "Find the number of authors for each \"database tuning\" paper",
        },
        EvalQuery {
            id: "A6",
            text: "COUNT paper MAX date IEEE",
            description: "Find the number of papers published by 'IEEE' and most recent date",
        },
        EvalQuery {
            id: "A7",
            text: "COUNT paper author John Mary",
            description: "Find the number of papers co-authored by 'John' and 'Mary'",
        },
        EvalQuery {
            id: "A8",
            text: "COUNT editor SIGIR CIKM",
            description: "Find the number of editors that edit proceedings 'SIGIR' and 'CIKM'",
        },
    ]
}

/// The university workload: the paper's running examples (Sections 1-3)
/// as keyword queries over `aqks_datasets::university`.
pub fn university_queries() -> Vec<EvalQuery> {
    vec![
        EvalQuery { id: "U1", text: "Green SUM Credit", description: "Example 1" },
        EvalQuery { id: "U2", text: "Green George COUNT Code", description: "Example 2" },
        EvalQuery { id: "U3", text: "Java SUM Price", description: "textbook price total" },
        EvalQuery { id: "U4", text: "Engineering COUNT Department", description: "faculty size" },
        EvalQuery {
            id: "U5",
            text: "AVG COUNT Lecturer GROUPBY Course",
            description: "nested aggregate",
        },
    ]
}

/// The normalized TPC-H database at the given scale.
pub fn tpch_database(scale: Scale) -> Database {
    let cfg = match scale {
        Scale::Small => TpchConfig::small(),
        Scale::Paper => TpchConfig::paper_scale(),
    };
    generate_tpch(&cfg)
}

/// The normalized ACMDL database at the given scale.
pub fn acmdl_database(scale: Scale) -> Database {
    let cfg = match scale {
        Scale::Small => AcmdlConfig::small(),
        Scale::Paper => AcmdlConfig::paper_scale(),
    };
    generate_acmdl(&cfg)
}

/// The unnormalized TPCH' database (Table 7) at the given scale.
pub fn tpch_prime_database(scale: Scale) -> Database {
    denormalize_tpch(&tpch_database(scale))
}

/// The unnormalized ACMDL' database (Table 7) at the given scale.
pub fn acmdl_prime_database(scale: Scale) -> Database {
    denormalize_acmdl(&acmdl_database(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_queries() {
        assert_eq!(tpch_queries().len(), 8);
        assert_eq!(acmdl_queries().len(), 8);
        for q in tpch_queries().iter().chain(&acmdl_queries()) {
            assert!(!q.text.is_empty() && !q.description.is_empty(), "{}", q.id);
        }
    }
}
