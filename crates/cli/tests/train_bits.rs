//! `trajcl train`'s output depends on its inputs and seed alone: the same
//! seeded run at the default pool width, on one pool lane and with the
//! kernels pinned to their portable copy writes byte-identical engine
//! files.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_trajcl");

/// Runs `trajcl args` with `env` set on top of a cleared kernel setup.
fn trajcl(args: &[&str], env: &[(&str, &str)]) {
    let out = Command::new(BIN)
        .args(args)
        .env_remove("TRAJCL_THREADS")
        .env_remove("TRAJCL_FORCE_SCALAR")
        .envs(env.iter().copied())
        .output()
        .expect("run trajcl");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{} {env:?}: {stderr}", args.join(" "));
}

#[test]
fn trained_engine_bits_do_not_depend_on_threads_or_dispatch_level() {
    let dir = std::env::temp_dir().join(format!("trajcl_train_bits_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let data = dir.join("data.traj");
    let data_s = data.to_str().unwrap();
    let generate = [
        "generate",
        "--profile",
        "porto",
        "--count",
        "80",
        "--seed",
        "7",
        "--out",
        data_s,
    ];
    trajcl(&generate, &[]);
    let settings: [&[(&str, &str)]; 3] = [
        &[],
        &[("TRAJCL_THREADS", "1")],
        &[("TRAJCL_FORCE_SCALAR", "1")],
    ];
    let engines: Vec<Vec<u8>> = settings
        .iter()
        .enumerate()
        .map(|(i, env)| {
            let model = dir.join(format!("eng{i}.tcl"));
            let model_s = model.to_str().unwrap();
            let train = [
                "train", "--input", data_s, "--out", model_s, "--dim", "32", "--epochs", "1",
                "--batch", "16", "--seed", "3",
            ];
            trajcl(&train, env);
            std::fs::read(&model).expect("read engine")
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    for (env, engine) in settings.iter().zip(&engines).skip(1) {
        assert!(
            engine == &engines[0],
            "engine trained with {env:?} differs from the default run"
        );
    }
}
