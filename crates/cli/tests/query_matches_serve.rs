//! `trajcl query --index` answers through the index `trajcl serve`
//! builds: for the same flags and the same trajectory, the two commands
//! return the same ids and distances.

use std::io::Write;
use std::path::Path;
use std::process::{Command, Output, Stdio};

use trajcl_data::load_trajectory_file;
use trajcl_serve::proto::{read_frame, traj_json, write_frame};

const BIN: &str = env!("CARGO_BIN_EXE_trajcl");

fn succeeded(what: &str, out: Output) -> String {
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{what}: {stdout}{stderr}");
    stdout
}

fn trajcl(args: &[&str]) -> String {
    let out = Command::new(BIN).args(args).output().expect("run trajcl");
    succeeded(&args.join(" "), out)
}

/// The value of `"key":` in a flat JSON object line, as printed.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let at = line.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
    let rest = &line[at..];
    &rest[..rest.find([',', '}']).expect("field end")]
}

#[test]
fn query_answers_what_serve_answers_with_the_same_flags() {
    let dir = std::env::temp_dir().join(format!("trajcl_query_serve_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let data = dir.join("data.traj");
    let model = dir.join("eng.tcl");
    let (data_s, model_s) = (data.to_str().unwrap(), model.to_str().unwrap());
    trajcl(&[
        "generate",
        "--profile",
        "porto",
        "--count",
        "60",
        "--out",
        data_s,
    ]);
    trajcl(&[
        "train", "--input", data_s, "--out", model_s, "--dim", "16", "--epochs", "1", "--batch",
        "8",
    ]);
    let index_flags = ["--index", "8", "--quantize", "sq8"];
    let db = load_trajectory_file(Path::new(&data)).expect("load db");
    let k = 3;
    // Rows 0 and 43 are where the two commands used to disagree, when
    // `query` trained an index of its own with another k-means seed.
    let rows = [0usize, 11, 43];

    // serve over stdin with the same flags: one knn frame per row, k + 1
    // hits each, the row itself dropped.
    let mut args = vec!["serve", "--model", model_s, "--db", data_s];
    args.extend(index_flags);
    let mut serve = Command::new(BIN)
        .args(&args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut frames = Vec::new();
    for qi in rows {
        let request = format!(
            "{{\"req\":{qi},\"op\":\"knn\",\"traj\":{},\"k\":{}}}",
            traj_json(&db[qi]),
            k + 1
        );
        write_frame(&mut frames, &request).expect("frame");
    }
    let mut stdin = serve.stdin.take().expect("stdin");
    stdin.write_all(&frames).expect("send frames");
    drop(stdin); // end of stream: serve answers, then exits
    let stdout = succeeded("serve", serve.wait_with_output().expect("serve exits"));
    let mut replies = stdout.as_bytes();
    let mut served = Vec::new();
    while let Some(reply) = read_frame(&mut replies).expect("read frame") {
        assert!(reply.contains("\"ok\":true"), "{reply}");
        let qi = field(&reply, "req").to_string();
        let hits: Vec<(String, String)> = reply
            .split("{\"rank\":")
            .skip(1)
            .map(|hit| {
                (
                    field(hit, "index").to_string(),
                    field(hit, "distance").to_string(),
                )
            })
            .filter(|(id, _)| *id != qi)
            .take(k)
            .collect();
        served.push((qi, hits));
    }
    assert_eq!(served.len(), rows.len());

    // query: each row's k nearest other rows, as JSON lines.
    for (qi, hits) in served {
        let mut args = vec!["query", "--model", model_s, "--db", data_s];
        args.extend(index_flags);
        args.extend(["--query", &qi, "--k", "3", "--json"]);
        let local: Vec<(String, String)> = trajcl(&args)
            .lines()
            .map(|l| {
                (
                    field(l, "index").to_string(),
                    field(l, "distance").to_string(),
                )
            })
            .collect();
        assert_eq!(local.len(), k);
        assert_eq!(local, hits, "row {qi}: query and serve disagree");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
