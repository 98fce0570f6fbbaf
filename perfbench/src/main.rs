//! `aqks-perfbench`: the benchmark's command line.
//!
//! ```text
//! aqks-perfbench bench --workload W --seed N [--seconds S] [--trace 0|1]
//! aqks-perfbench run   --seed N [--workload W] [--seconds S]
//! ```
//!
//! `bench` runs one workload in this process and ends its output with a
//! one-line JSON result; `--trace 1` makes it the traced, per-layer run.
//! `run` runs `bench` for each workload (all by default) in a child
//! process of its own, so each reports its own peak memory. Records,
//! layer files and Chrome traces go to the package's `out/` directory.

use std::collections::BTreeMap;
use std::process::ExitCode;

use aqks_perfbench::data::Scale;
use aqks_perfbench::report::{self, Metric};
use aqks_perfbench::trace;
use aqks_perfbench::workload::{self, Config, Workload};

/// Length of a run's timed part unless `--seconds` says otherwise; the
/// same as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage:
  aqks-perfbench bench --workload W --seed N [--seconds S] [--trace 0|1]
  aqks-perfbench run   --seed N [--workload W] [--seconds S]
workloads: gen, exec-large, topk, serve";

struct Args {
    command: String,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command")?;
    let mut flags = BTreeMap::new();
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        if !["workload", "seed", "seconds", "trace"].contains(&key) {
            return Err(format!("unknown flag `{flag}`"));
        }
        flags.insert(key.to_string(), value);
    }
    let workload = match flags.get("workload") {
        None => None,
        Some(w) => Some(Workload::parse(w).ok_or_else(|| format!("unknown workload `{w}`"))?),
    };
    let seed = flags
        .get("seed")
        .ok_or("`--seed` is required")?
        .parse()
        .map_err(|_| "`--seed` takes a whole number")?;
    let seconds = match flags.get("seconds") {
        None => DEFAULT_SECONDS,
        Some(s) => s
            .parse::<f64>()
            .ok()
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or("`--seconds` takes a positive number")?,
    };
    let trace = match flags.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("`--trace` takes 0 or 1, not `{t}`")),
    };
    Ok(Args { command, workload, seed, seconds, trace })
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        // `+ 0.0` turns the -0 of an empty float sum into 0.
        println!("  {:<34} {:>14.4} {:<6} n={}", m.name, m.value + 0.0, m.unit, m.n);
    }
}

fn write_out(name: &str, body: &str) -> Result<(), String> {
    aqks_obs::json::validate(body).map_err(|e| format!("{name} is not valid JSON: {e}"))?;
    let dir = report::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Runs one workload untraced; returns whether every check passed.
fn bench(w: Workload, cfg: &Config) -> Result<bool, String> {
    let out = workload::run(w, cfg)?;
    println!(
        "{} (seed {}, {} s): {} requests, {} failed",
        w.name(),
        cfg.seed,
        cfg.seconds,
        out.attempted,
        out.failed
    );
    print_metrics(&out.metrics);
    for (k, v) in &out.notes {
        println!("  {k:<34} {v:>14.4}");
    }
    for f in &out.failures {
        println!("  FAILED: {f}");
    }
    write_out(&format!("run_{}_seed{}.json", w.name(), cfg.seed), &out.record_json(cfg))?;
    println!("{}", report::result_line(out.correct, out.attempted, out.failed, &out.metrics));
    Ok(out.correct)
}

/// Runs one workload traced; returns whether every check passed.
fn bench_traced(w: Workload, cfg: &Config) -> Result<bool, String> {
    let prep = workload::prepare(w, cfg)?;
    let traced = trace::run(&prep, cfg);
    let failures = prep.failures.clone();
    prep.shutdown();
    let traced = traced?;
    println!("{} traced (seed {}): {} requests", w.name(), cfg.seed, traced.requests);
    print!("{}", traced.render_queries());
    print_metrics(&traced.metrics);
    print_metrics(&traced.extra);
    for f in &failures {
        println!("  FAILED: {f}");
    }
    write_out(&format!("layers_{}.json", w.name()), &traced.layers_json(w, cfg))?;
    write_out(&format!("trace_{}.json", w.name()), &traced.trace.to_chrome_json())?;
    let correct = failures.is_empty();
    println!(
        "{}",
        report::result_line(correct, traced.requests, failures.len() as u64, &traced.metrics)
    );
    Ok(correct)
}

/// Runs `bench` for each workload in a child process of its own.
fn run_all(workloads: &[Workload], args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut all_ok = true;
    for w in workloads {
        let status = std::process::Command::new(&exe)
            .args(["bench", "--workload", w.name()])
            .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
            .status()
            .map_err(|e| format!("starting the {} run: {e}", w.name()))?;
        if !status.success() {
            eprintln!("{}: run failed ({status})", w.name());
            all_ok = false;
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("aqks-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = Config { seed: args.seed, seconds: args.seconds, scale: Scale::Paper };
    let result = match (args.command.as_str(), args.workload) {
        ("bench", Some(w)) if args.trace => bench_traced(w, &cfg),
        ("bench", Some(w)) => bench(w, &cfg),
        ("run", Some(w)) => run_all(&[w], &args),
        ("run", None) => run_all(&Workload::ALL, &args),
        _ => {
            eprintln!("aqks-perfbench: bad command line\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("aqks-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
