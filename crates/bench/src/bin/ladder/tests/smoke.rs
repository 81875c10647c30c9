//! `ladder all --smoke` through the real binary: all four workloads and
//! their traces at smoke size, each in a supervised child (so a crash of
//! the program under test is retried as in a real run), with the smoke
//! assertions — no failed request, recall, every declared metric present,
//! rungs that do not invert.

use std::process::Command;

#[test]
fn all_workloads_run_and_trace_at_smoke_size() {
    let out = Command::new(env!("CARGO_BIN_EXE_ladder"))
        .args(["all", "--seed", "1", "--smoke"])
        .output()
        .expect("run ladder");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.ends_with("ladder all: every check passed\n"),
        "{stdout}"
    );
    for workload in [
        "tcp_knn_hot",
        "tcp_knn_cold_open",
        "tcp_mixed_rw",
        "fleet_knn_hot",
    ] {
        assert!(stdout.contains(&format!("ladder run {workload} seed=1")));
        assert!(stdout.contains(&format!("ladder trace {workload} seed=1")));
    }
}
