//! The `exp` binary's command line: a mistyped run fails before any work,
//! and an artifact that cannot be written fails the run.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("trajcl_exp_cli_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn exp(dir: &PathBuf, args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args.split_whitespace())
        .current_dir(dir)
        .output()
        .unwrap()
}

#[test]
fn usage_errors_exit_non_zero_with_the_usage_text() {
    let dir = scratch("usage");
    for (args, want) in [
        ("table2 --trian 60", "unknown option --trian"),
        ("table2 --db abc", "--db needs a count"),
        ("table3 all", "unknown option all"),
        ("table11", "unknown artifact table11"),
        ("", "missing artifact name"),
    ] {
        let out = exp(&dir, args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args}: {err}");
        assert!(err.contains(want), "{args}: {err}");
        assert!(err.contains("usage: exp"), "{args}: {err}");
    }
    // Nothing ran, so nothing was written.
    assert!(!dir.join("results").exists());
}

#[test]
fn an_artifact_that_cannot_be_written_fails_the_run() {
    let dir = scratch("unwritable");
    std::fs::write(dir.join("results"), "a file where the directory goes").unwrap();
    let out = exp(&dir, "table2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("table2 not written"), "{err}");

    let dir = scratch("writable");
    let out = exp(&dir, "table2");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(dir.join("results/table2.json")).unwrap();
    assert!(json.contains("Table II"), "{json}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("exp: built 0 envs, ran 0 train_all and 0 TrajCL-only trainings"),
        "{stdout}"
    );
}
