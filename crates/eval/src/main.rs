#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! `repro` — regenerates every evaluation table and figure of the paper.
//!
//! ```text
//! repro table5|table6|table8|table9|fig11|plans|all [--paper-scale] [--reps N]
//! repro faults       # fault-injection sweep; needs --features failpoints
//! ```
//!
//! `plans` runs the static plan-verification sweep: every interpretation
//! of every bundled workload query is planned, verified with
//! `aqks-plancheck`, and fingerprinted. Exits non-zero on any rejection.
//!
//! A malformed command line — an unknown flag or target, a second
//! target, or `--reps` without a positive whole number — exits 2 with a
//! message. Executor, server and metrics-overhead timings live in the
//! benchmark (`perfbench/`).

use aqks_eval::{fig11, tables, Scale};

const USAGE: &str =
    "usage: repro table5|table6|table8|table9|fig11|plans|all|faults [--paper-scale] [--reps N]";

const TARGETS: [&str; 8] =
    ["table5", "table6", "table8", "table9", "fig11", "plans", "all", "faults"];

struct Args {
    what: String,
    scale: Scale,
    reps: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { what: String::new(), scale: Scale::Small, reps: 21 };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--paper-scale" => args.scale = Scale::Paper,
            "--reps" => {
                args.reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .ok_or("`--reps` takes a positive whole number")?;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            target if !TARGETS.contains(&target) => {
                return Err(format!("unknown target `{target}`"))
            }
            target if !args.what.is_empty() => {
                return Err(format!("one target at a time: `{}` and `{target}`", args.what))
            }
            target => args.what = target.to_string(),
        }
    }
    if args.what.is_empty() {
        args.what = "all".to_string();
    }
    Ok(args)
}

fn main() {
    let Args { what, scale, reps } = parse_args().unwrap_or_else(|e| {
        eprintln!("repro: {e}\n{USAGE}");
        std::process::exit(2);
    });

    if what == "faults" {
        #[cfg(feature = "failpoints")]
        {
            let outcomes = aqks_eval::faults::run_fault_sweep();
            let (report, ok) = aqks_eval::faults::render(&outcomes);
            print!("{report}");
            if !ok {
                eprintln!("fault sweep failed");
                std::process::exit(1);
            }
            eprintln!("fault sweep passed: {} site(s)", outcomes.len());
            return;
        }
        #[cfg(not(feature = "failpoints"))]
        {
            eprintln!("`repro faults` needs the fault-injection build: cargo run -p aqks-eval --features failpoints --bin repro -- faults");
            std::process::exit(2);
        }
    }

    let scale_name = match scale {
        Scale::Small => "small",
        Scale::Paper => "paper-scale",
    };
    eprintln!("# dataset scale: {scale_name}");

    let run_target = |name: &str| match name {
        "table5" => println!(
            "{}",
            tables::render_markdown(
                "Table 5: answers on normalized TPC-H (T1-T8)",
                &tables::run_table5(scale)
            )
        ),
        "table6" => println!(
            "{}",
            tables::render_markdown(
                "Table 6: answers on normalized ACMDL (A1-A8)",
                &tables::run_table6(scale)
            )
        ),
        "table8" => println!(
            "{}",
            tables::render_markdown(
                "Table 8: answers on unnormalized TPCH' (T1-T8)",
                &tables::run_table8(scale)
            )
        ),
        "table9" => println!(
            "{}",
            tables::render_markdown(
                "Table 9: answers on unnormalized ACMDL' (A1-A8)",
                &tables::run_table9(scale)
            )
        ),
        "fig11" => {
            let (tpch, acmdl) = fig11::run_fig11(scale, reps);
            println!(
                "{}",
                fig11::render_markdown("Figure 11(a): SQL generation time, TPCH", &tpch)
            );
            println!(
                "{}",
                fig11::render_markdown("Figure 11(b): SQL generation time, ACMDL", &acmdl)
            );
        }
        "plans" => {
            let sweeps = aqks_eval::plans::run_plan_sweep(scale, 3);
            println!("{}", aqks_eval::plans::render_markdown(&sweeps));
            let rejections: Vec<String> = sweeps
                .iter()
                .flat_map(|s| s.rejections().into_iter().map(|r| format!("{}: {r}", s.workload)))
                .collect();
            for r in &rejections {
                eprintln!("REJECTED {r}");
            }
            if !rejections.is_empty() {
                eprintln!("plan sweep failed: {} rejection(s)", rejections.len());
                std::process::exit(1);
            }
            let total: usize = sweeps.iter().map(|s| s.plans()).sum();
            eprintln!("plan sweep passed: {total} plan(s) verified clean");
        }
        other => unreachable!("target `{other}` passed argument parsing"),
    };

    if what == "all" {
        for t in ["table5", "table6", "table8", "table9", "fig11", "plans"] {
            run_target(t);
        }
    } else {
        run_target(&what);
    }
}
