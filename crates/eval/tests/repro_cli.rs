//! `repro` rejects a malformed command line with exit code 2 and a
//! message, instead of running with a silently substituted value; its
//! only targets are the paper's tables and figure.

use std::process::Command;

fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn non_numeric_reps_exits_2() {
    let (code, stderr) = repro(&["table5", "--reps", "abc"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--reps"), "{stderr}");
}

#[test]
fn trailing_reps_without_a_value_exits_2() {
    let (code, stderr) = repro(&["table5", "--reps"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--reps"), "{stderr}");
}

#[test]
fn second_target_exits_2() {
    let (code, stderr) = repro(&["table5", "fig11"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("fig11"), "{stderr}");
}

#[test]
fn check_sweeps_are_not_targets() {
    for target in ["plans", "faults"] {
        let (code, stderr) = repro(&[target]);
        assert_eq!(code, Some(2), "{target}: {stderr}");
        assert!(stderr.contains(&format!("unknown target `{target}`")), "{stderr}");
    }
}
