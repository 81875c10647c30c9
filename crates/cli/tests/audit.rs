//! `trajcl audit` is the decoder fuzzer and nothing else: it prints one
//! line per fuzz target and `audit: PASS`, and it rejects the options of
//! the lint pass it used to carry.

use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_trajcl");

fn trajcl(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("run trajcl")
}

#[test]
fn audit_fuzzes_every_target_and_passes() {
    let dir = std::env::temp_dir().join(format!("trajcl_audit_{}", std::process::id()));
    let out = trajcl(&[
        "audit",
        "--cases",
        "200",
        "--repro-dir",
        dir.to_str().expect("utf-8 temp dir"),
    ]);
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    let targets = ["json", "proto", "engine", "wal"];
    assert_eq!(lines.len(), targets.len() + 1, "{stdout}");
    for (line, target) in lines.iter().zip(targets) {
        assert!(
            line.starts_with(&format!("fuzz {target}: 200 cases"))
                && line.ends_with(", 0 panic(s)"),
            "{line}"
        );
    }
    assert_eq!(lines[targets.len()], "audit: PASS");
}

#[test]
fn audit_rejects_the_retired_lint_options() {
    for args in [
        ["audit", "--lint", "--fuzz-quick"],
        ["audit", "--root", "."],
    ] {
        let out = trajcl(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!out.status.success(), "{stdout}");
        let option = args[1];
        assert!(
            stdout.contains(&format!("unknown option {option} for audit")),
            "{stdout}"
        );
    }
}
