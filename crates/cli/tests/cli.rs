//! End-to-end tests of the `aqks` binary: spawn the compiled executable
//! and assert on its stdout/stderr/exit codes, exactly as a user runs it.

use std::process::{Command, Stdio};

fn aqks() -> Command {
    Command::new(env!("CARGO_BIN_EXE_aqks"))
}

#[test]
fn one_shot_query_prints_sql_and_answers() {
    let out =
        aqks().args(["--dataset", "university", "Green SUM Credit"]).output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("GROUP BY S.Sid"), "{stdout}");
    assert!(stdout.contains("| s2  | 5.0"), "{stdout}");
    assert!(stdout.contains("| s3  | 8.0"), "{stdout}");
}

#[test]
fn sqak_flag_adds_baseline_section() {
    let out =
        aqks().args(["--dataset", "university", "--sqak", "Green SUM Credit"]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SQAK baseline"), "{stdout}");
    assert!(stdout.contains("13.0"), "SQAK's merged answer shown: {stdout}");
}

#[test]
fn unknown_dataset_exits_2() {
    let out = aqks().args(["--dataset", "mars", "x"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown dataset"));
}

#[test]
fn repl_commands_work_over_stdin() {
    let mut child = aqks()
        .args(["--dataset", "university"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    use std::io::Write;
    child.stdin.as_mut().unwrap().write_all(b"\\schema\n\\graph\nLecturer George\n\\q\n").unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Student(Sid, Sname, Age)"), "{stdout}");
    assert!(stdout.contains("[relationship] Teach"), "{stdout}");
    assert!(stdout.contains("Lname contains 'George'"), "{stdout}");
}

#[test]
fn export_then_import_roundtrip() {
    let dir = std::env::temp_dir().join(format!("aqks-cli-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = aqks()
        .args(["--dataset", "fig8", "--export", dir.to_str().unwrap(), "Green SUM Credit"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let first = String::from_utf8_lossy(&out.stdout).to_string();

    let out =
        aqks().args(["--dataset", dir.to_str().unwrap(), "Green SUM Credit"]).output().unwrap();
    assert!(out.status.success());
    let second = String::from_utf8_lossy(&out.stdout);
    // Same answer table either way (the SQL may name the directory-backed
    // relations identically since schema.txt round-trips names).
    for needle in ["| s2  | 5.0", "| s3  | 8.0"] {
        assert!(first.contains(needle), "{first}");
        assert!(second.contains(needle), "{second}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explain_prints_physical_plan() {
    let out = aqks()
        .args(["explain", "--dataset", "university", "COUNT Lecturer GROUPBY Course"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("HashAggregate"), "{stdout}");
    assert!(stdout.contains("Scan"), "{stdout}");
    assert!(stdout.contains("Project"), "{stdout}");
    // Plain explain shows estimates, not measurements.
    assert!(!stdout.contains("time="), "{stdout}");
}

#[test]
fn explain_analyze_adds_per_operator_metrics() {
    let out = aqks()
        .args(["explain", "--analyze", "--dataset", "tpch", "COUNT order \"royal olive\""])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Scan"), "{stdout}");
    assert!(stdout.contains("rows="), "{stdout}");
    assert!(stdout.contains("time="), "{stdout}");
    assert!(stdout.contains("mem="), "{stdout}");
    assert!(stdout.contains("total:"), "{stdout}");
}

/// `explain --analyze` renders the stats of the engine's own run, so the
/// interpretations of A7 that replay the join an earlier one computed
/// are noted `shared`.
#[test]
fn explain_analyze_shows_shared_subtrees() {
    let out = aqks()
        .args(["explain", "--analyze", "--k", "5", "--dataset", "acmdl"])
        .arg("COUNT paper author John Mary")
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("interpretation #2"), "{stdout}");
    assert!(stdout.contains("[shared"), "{stdout}");
}

/// `explain --analyze` with no query answers T1–T8 on one engine, so
/// T8's view relation `pname contains 'pink rose'` filters the
/// projection an earlier query memoized instead of scanning `Ordering`.
#[test]
fn explain_analyze_replays_a_filtered_view_relation_from_the_memo() {
    let out = aqks().args(["explain", "--analyze", "--dataset", "tpch-prime"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let t8 = stdout.split("── explain").last().expect("T8 is explained last");
    assert!(t8.contains("\"pink rose\" \"white rose\""), "{t8}");
    let scan = t8
        .lines()
        .find(|l| l.contains("Scan Ordering") && l.contains("contains 'pink rose'"))
        .unwrap_or_else(|| panic!("no pink rose scan: {t8}"));
    assert!(scan.ends_with("[memo]"), "{scan}");
}

#[test]
fn metrics_prints_prometheus_exposition() {
    let out =
        aqks().args(["metrics", "--dataset", "university", "Green SUM Credit"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("# TYPE aqks_engine_queries_total counter"), "{stdout}");
    assert!(stdout.contains("aqks_engine_queries_total 1"), "{stdout}");
    assert!(stdout.contains("# TYPE aqks_engine_answer_seconds histogram"), "{stdout}");
    assert!(stdout.contains("aqks_engine_phase_seconds_bucket{phase=\"exec\""), "{stdout}");
    assert!(stdout.contains("aqks_ops_rows_total{op=\"Scan\"}"), "{stdout}");
    assert!(stdout.contains("aqks_ops_peak_bytes_bucket{op="), "{stdout}");
}

/// The budget flags reach `aqks metrics`: a starved query exits 3 with
/// the one-shot query's stderr line, and the exposition still prints,
/// counting the trip at its site.
#[test]
fn starved_metrics_exits_3_and_counts_the_guard_trip() {
    let out = aqks()
        .args(["metrics", "--timeout-ms", "0", "--dataset", "university", "Green SUM Credit"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(
        stderr.contains("budget exhausted: deadline budget exhausted at `index.lookup`"),
        "{stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("aqks_guard_trips_total{site=\"index.lookup\"} 1"), "{stdout}");
    assert!(stdout.contains("aqks_engine_queries_total 1"), "{stdout}");
}

#[test]
fn starved_trace_slow_exits_3_with_the_tripped_exemplar() {
    let out = aqks()
        .args([
            "trace",
            "--slow",
            "--timeout-ms",
            "0",
            "--dataset",
            "university",
            "Green SUM Credit",
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("budget exhausted: deadline budget exhausted at"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(", budget tripped)"), "{stdout}");
    assert!(stdout.contains("[guard.trips=1 guard.trip.index.lookup=1]"), "{stdout}");
}

#[test]
fn metrics_json_is_a_snapshot_object() {
    let out = aqks()
        .args(["metrics", "--json", "--dataset", "university", "Green SUM Credit"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('{'), "{stdout}");
    assert!(stdout.contains("\"aqks_engine_queries\""), "{stdout}");
    assert!(stdout.contains("\"p95\""), "{stdout}");
}

#[test]
fn trace_slow_prints_the_slowest_exemplar() {
    let out = aqks().args(["trace", "--slow", "--dataset", "university"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("── slowest query `"), "{stdout}");
    assert!(stdout.contains("answer  total="), "{stdout}");
    assert!(stdout.contains("op:"), "operator spans present: {stdout}");
}

#[test]
fn trace_prints_span_tree_with_phases() {
    let out =
        aqks().args(["trace", "--dataset", "university", "Green SUM Credit"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for phase in ["parse", "match", "pattern", "annotate", "rank", "translate", "analyze", "plan"] {
        assert!(stdout.contains(&format!("├─ {phase}")), "{phase} missing:\n{stdout}");
    }
    assert!(stdout.contains("└─ exec"), "{stdout}");
    assert!(stdout.contains("op:"), "operator spans grafted: {stdout}");
    assert!(stdout.contains("counters:"), "{stdout}");
}

#[test]
fn trace_chrome_writes_valid_trace_event_file() {
    let file = std::env::temp_dir().join(format!("aqks-trace-test-{}.json", std::process::id()));
    let out = aqks()
        .args([
            "trace",
            "--trace=chrome",
            "--trace-out",
            file.to_str().unwrap(),
            "--dataset",
            "university",
            "Green SUM Credit",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&file).expect("trace file written");
    aqks_obs::json::validate(&json).expect("chrome trace is well-formed JSON");
    assert!(json.contains("\"traceEvents\""), "{json}");
    assert!(json.contains("\"ph\":\"X\""), "{json}");
    assert!(json.contains("\"name\":\"answer\""), "{json}");
    std::fs::remove_file(&file).ok();
}

/// Replaces every wall-time token (after `total=`, `self=`, or `wall `)
/// with `_`, leaving the structure, counters, and row counts — which are
/// deterministic on the generated datasets — intact.
fn normalize_times(s: &str) -> String {
    // Leading spaces keep counter names like `matches.total=2` intact.
    let markers = [" total=", " self=", "wall "];
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    loop {
        let mut best: Option<(usize, &str)> = None;
        for m in markers {
            if let Some(i) = rest.find(m) {
                if best.is_none_or(|(bi, _)| i < bi) {
                    best = Some((i, m));
                }
            }
        }
        let Some((i, m)) = best else {
            out.push_str(rest);
            return out;
        };
        out.push_str(&rest[..i + m.len()]);
        out.push('_');
        let after = &rest[i + m.len()..];
        let end = after.find([' ', ']', ')', '\n']).unwrap_or(after.len());
        rest = &after[end..];
    }
}

/// Golden-file test: the `aqks trace` text output on a fixed TPC-H′
/// query, with wall times normalized. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test -p aqks-cli trace_text_output` (a debug
/// build: release builds only compare).
#[test]
fn trace_text_output_matches_golden() {
    let out = aqks()
        .args(["trace", "--dataset", "tpch-prime", "COUNT order \"royal olive\""])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let normalized = normalize_times(&String::from_utf8_lossy(&out.stdout));
    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_tpch_prime.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() && cfg!(debug_assertions) {
        std::fs::write(&golden_path, &normalized).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).expect("golden file exists");
    // The golden is the debug trace. Release builds skip static plan
    // verification, so their `plancheck` span carries no counter.
    let expected = if cfg!(debug_assertions) {
        golden
    } else {
        golden.replace(" [plancheck.checked=1]", "").replace(" plancheck.checked=1", "")
    };
    assert_eq!(normalized, expected, "trace text drifted; UPDATE_GOLDEN=1 to regenerate");
}

#[test]
fn malformed_query_exits_nonzero_with_one_line_diagnostic() {
    let out = aqks().args(["--dataset", "university", "Green SUM"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let diag: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(diag.len(), 1, "exactly one diagnostic line:\n{stderr}");
    assert!(diag[0].contains("parse error"), "{stderr}");
}

#[test]
fn nonexistent_term_exits_nonzero() {
    let out = aqks().args(["--dataset", "university", "zebra COUNT Code"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("matches nothing"));
}

#[test]
fn bad_budget_flag_value_exits_2() {
    let out = aqks().args(["--dataset", "university", "--max-rows", "lots", "x"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--max-rows"), "usage diagnostic");
}

#[test]
fn zero_deadline_exits_3_with_exhaustion_report() {
    let out = aqks()
        .args(["--dataset", "university", "--timeout-ms", "0", "Green SUM Credit"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("budget exhausted: deadline budget exhausted at"), "{stderr}");
    assert!(stderr.contains("no results completed"), "{stderr}");
}

#[test]
fn interpretation_cap_prints_partials_and_exits_3() {
    // "Green George COUNT Code" has 4 interpretations; cap at 1.
    let out = aqks()
        .args([
            "--dataset",
            "university",
            "--k",
            "3",
            "--max-interpretations",
            "1",
            "Green George COUNT Code",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("interpretation #1"), "partial results shown: {stdout}");
    assert!(!stdout.contains("interpretation #2"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("interpretation budget exhausted at `engine.translate`"), "{stderr}");
    assert!(stderr.contains("partial results returned"), "{stderr}");
}

#[test]
fn check_subcommand_fails_on_malformed_query() {
    let out = aqks().args(["check", "--dataset", "university", "Green SUM"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("parse error"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("check failed"));
}

#[test]
fn explain_subcommand_fails_on_malformed_query() {
    let out = aqks().args(["explain", "--dataset", "university", "Green SUM"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("explain failed"));
}

#[test]
fn trace_subcommand_fails_on_malformed_query() {
    let out = aqks().args(["trace", "--dataset", "university", "Green SUM"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("trace failed"));
}

#[test]
fn generous_budget_answers_normally_with_exit_0() {
    let out = aqks()
        .args([
            "--dataset",
            "university",
            "--timeout-ms",
            "60000",
            "--max-rows",
            "1000000",
            "Green SUM Credit",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("| s2  | 5.0"), "{stdout}");
}

/// A reader that goes away before the first line (`aqks … | head -0`)
/// ends the process quietly with exit code 141, not with a panic.
#[test]
fn closed_stdout_exits_141_without_a_panic() {
    let mut child = aqks()
        .args(["check", "--plans", "--dataset", "tpch"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(141), "{stderr}");
    assert!(!stderr.contains("panic"), "{stderr}");
}

/// `aqks repro`'s exit code and stderr for `args`.
fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = aqks().arg("repro").args(args).output().expect("aqks repro runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn repro_non_numeric_reps_exits_2() {
    let (code, stderr) = repro(&["table5", "--reps", "abc"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--reps"), "{stderr}");
}

#[test]
fn repro_trailing_reps_without_a_value_exits_2() {
    let (code, stderr) = repro(&["table5", "--reps"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--reps"), "{stderr}");
}

#[test]
fn repro_second_target_exits_2() {
    let (code, stderr) = repro(&["table5", "fig11"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("fig11"), "{stderr}");
}

/// `repro`'s only targets are the paper's tables and figure; the
/// analysis, plan and fault sweeps are workspace tests.
#[test]
fn repro_check_sweeps_are_not_targets() {
    for target in ["plans", "faults"] {
        let (code, stderr) = repro(&[target]);
        assert_eq!(code, Some(2), "{target}: {stderr}");
        assert!(stderr.contains(&format!("unknown target `{target}`")), "{stderr}");
    }
}

/// `aqks repro` writes its tables through the same closed-stdout path
/// as every other subcommand.
#[test]
fn repro_closed_stdout_exits_141_without_a_panic() {
    let mut child = aqks()
        .args(["repro", "table5"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(141), "{stderr}");
    assert!(!stderr.contains("panic"), "{stderr}");
}
