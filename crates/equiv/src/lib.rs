//! A view of the subtrees one keyword query's interpretations share.
//!
//! A keyword query fans out into top-k interpretations whose physical
//! plans often repeat one join tree. `Engine::run` elects those repeats
//! with [`aqks_plancheck::Election`] and runs each once per request.
//! This crate renders and replays that same election outside the
//! engine, so `aqks explain --shared` and the benchmark's shared-rows
//! metric show what the engine shares:
//!
//! - [`analyze`] groups plans into classes of the same plan
//!   ([`aqks_plancheck::same_plan`]: bucketed by fingerprint, confirmed
//!   structurally);
//! - [`shared_set`] elects the repeated join subtrees across the class
//!   representatives, and [`run_shared`] materializes each once and
//!   replays it at every consumer through the executor's cached-rows
//!   operator.
//!
//! There is one notion of "same plan", the structural one. Plans that
//! differ only in pushdown or join-input order mean the same, but the
//! engine plans every interpretation with pushdown on, and no two
//! interpretations of a bundled workload differ only in join-input
//! order (DESIGN.md §11).

#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

use std::convert::Infallible;

use aqks_plancheck::{equal_classes, fingerprint};
use aqks_relational::Database;
use aqks_sqlgen::PlanNode;

pub mod share;

pub use share::{
    render_shared, run_shared, run_shared_opts, shared_set, SharePoint, SharedRun, SharedSet,
};

/// One class of equal plans: the representative's fingerprint and the
/// indices (into the analyzed plan set) of its members, in input order.
#[derive(Debug, Clone)]
pub struct EquivClass {
    /// Fingerprint of the class's plans.
    pub fingerprint: u64,
    /// Indices into the input plan slice.
    pub members: Vec<usize>,
    /// The first member's plan, which runs for the whole class.
    pub plan: PlanNode,
}

/// The result of [`analyze`]: the class partition of a plan set.
#[derive(Debug, Clone)]
pub struct ClassAnalysis {
    /// Classes in order of first appearance.
    pub classes: Vec<EquivClass>,
}

impl ClassAnalysis {
    /// Number of plans that repeat an earlier class member.
    pub fn duplicates(&self) -> usize {
        self.classes.iter().map(|c| c.members.len() - 1).sum()
    }
}

/// Partitions `plans` into classes of the same plan. Emits the
/// `equiv.classes` observability counter when an ambient span is
/// active.
///
/// Nothing here can fail and `db` is unread: the signature is the one
/// the benchmark's traced re-drive (`perfbench`, `shared_rows`) calls.
pub fn analyze(plans: &[PlanNode], _db: &Database) -> Result<ClassAnalysis, Infallible> {
    Ok(analyze_by(plans, fingerprint))
}

/// [`analyze`] with the bucketing hash as a parameter, so a test can
/// make every plan collide.
fn analyze_by(plans: &[PlanNode], hash: impl Fn(&PlanNode) -> u64) -> ClassAnalysis {
    let classes: Vec<EquivClass> = equal_classes(plans, hash)
        .into_iter()
        .map(|members| {
            let plan = plans[members[0]].clone();
            EquivClass { fingerprint: fingerprint(&plan), members, plan }
        })
        .collect();
    aqks_obs::counter("equiv.classes", classes.len() as u64);
    ClassAnalysis { classes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqks_relational::Value;
    use aqks_sqlgen::{PhysPred, PlanOp};

    fn scan(id: usize, name: &str) -> PlanNode {
        let pushed = vec![PhysPred::EqLit(0, Value::str(name))];
        let op = PlanOp::Scan { relation: "A".into(), alias: "a".into(), pushed };
        PlanNode { id, op, children: Vec::new(), cols: Vec::new(), est_rows: 1 }
    }

    /// A 64-bit collision must not merge two plans: with every plan on
    /// one hash, only structurally equal plans share a class.
    #[test]
    fn colliding_hashes_keep_distinct_plans_apart() {
        let plans = [scan(0, "green"), scan(0, "george"), scan(7, "green")];
        for analysis in [analyze_by(&plans, fingerprint), analyze_by(&plans, |_| 0)] {
            let members: Vec<&[usize]> =
                analysis.classes.iter().map(|c| c.members.as_slice()).collect();
            assert_eq!(members, [&[0, 2][..], &[1][..]]);
            assert_eq!(analysis.duplicates(), 1);
        }
    }
}
