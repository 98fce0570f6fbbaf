#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! `repro` — regenerates the evaluation tables and figure of the paper.
//!
//! ```text
//! repro table5|table6|table8|table9|fig11|all [--paper-scale] [--reps N]
//! ```
//!
//! A malformed command line — an unknown flag or target, a second
//! target, or `--reps` without a positive whole number — exits 2 with a
//! message. When stdout closes before the output is written (piped into
//! `head`, say), `repro` stops without a message and exits 141, the
//! status a shell reports for a process killed by SIGPIPE. Executor,
//! server and metrics-overhead timings live in the benchmark
//! (`perfbench/`).

use std::io::{ErrorKind, Write};

use aqks_eval::{fig11, tables, Scale};

const USAGE: &str = "usage: repro table5|table6|table8|table9|fig11|all [--paper-scale] [--reps N]";

const TARGETS: [&str; 6] = ["table5", "table6", "table8", "table9", "fig11", "all"];

/// Exit status when stdout is closed early: 128 + SIGPIPE, as a shell
/// reports for a process the signal killed.
const EXIT_CLOSED_STDOUT: i32 = 141;

/// Writes one rendered table and a newline to stdout; a closed stdout
/// ends the process quietly with [`EXIT_CLOSED_STDOUT`].
fn emit(text: &str) {
    match writeln!(std::io::stdout(), "{text}") {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(EXIT_CLOSED_STDOUT),
        written => written.expect("stdout accepts the tables"),
    }
}

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

    let scale_name = match scale {
        Scale::Small => "small",
        Scale::Paper => "paper-scale",
    };
    eprintln!("# dataset scale: {scale_name}");

    let run_target = |name: &str| match name {
        "table5" => emit(&tables::render_markdown(
            "Table 5: answers on normalized TPC-H (T1-T8)",
            &tables::run_table5(scale),
        )),
        "table6" => emit(&tables::render_markdown(
            "Table 6: answers on normalized ACMDL (A1-A8)",
            &tables::run_table6(scale),
        )),
        "table8" => emit(&tables::render_markdown(
            "Table 8: answers on unnormalized TPCH' (T1-T8)",
            &tables::run_table8(scale),
        )),
        "table9" => emit(&tables::render_markdown(
            "Table 9: answers on unnormalized ACMDL' (A1-A8)",
            &tables::run_table9(scale),
        )),
        "fig11" => {
            let (tpch, acmdl) = fig11::run_fig11(scale, reps);
            emit(&fig11::render_markdown("Figure 11(a): SQL generation time, TPCH", &tpch));
            emit(&fig11::render_markdown("Figure 11(b): SQL generation time, ACMDL", &acmdl));
        }
        other => unreachable!("target `{other}` passed argument parsing"),
    };

    if what == "all" {
        for t in ["table5", "table6", "table8", "table9", "fig11"] {
            run_target(t);
        }
    } else {
        run_target(&what);
    }
}
