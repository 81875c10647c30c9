//! The typed request decoder answers what the tree path answered.
//!
//! `tree_handle` below is the reference: `json::parse`, then the
//! trajectory conversion and the field order `proto::handle` used before
//! it decoded requests straight into their types, plus `knn`'s `vec_bits`
//! form, written from PROTOCOL.md §2.2. Two identical servers take
//! the same payloads in the same order, one through each path, and every
//! reply must match byte for byte. Only the integer fields past 2^53 read
//! differently (the reference goes through `f64`); those inputs are left
//! out of the comparison and pinned by their own test.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trajcl_core::{EncoderVariant, Featurizer, TrajClConfig, TrajClModel};
use trajcl_engine::Engine;
use trajcl_geo::{Bbox, Grid, Point, SpatialNorm, Trajectory};
use trajcl_serve::json::{escape, parse, Json, MAX_DEPTH};
use trajcl_serve::proto::{handle, MAX_K};
use trajcl_serve::{ServeConfig, Server};
use trajcl_tensor::{Shape, Tensor};

/// A tiny deterministic TrajCL engine (no pre-loaded database).
fn tiny_engine() -> Engine {
    let mut rng = StdRng::seed_from_u64(0);
    let cfg = TrajClConfig::test_default();
    let region = Bbox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
    let grid = Grid::new(region, 100.0);
    let table = Tensor::randn(Shape::d2(grid.num_cells(), cfg.dim), 0.0, 0.5, &mut rng);
    let feat = Featurizer::new(grid, table, SpatialNorm::new(region, 100.0), cfg.max_len);
    let model = TrajClModel::new(&cfg, EncoderVariant::Dual, &mut rng);
    Engine::builder()
        .trajcl(model, feat)
        .build()
        .expect("engine")
}

fn server() -> Server {
    let cfg = ServeConfig {
        shards: Some(2),
        ..ServeConfig::default()
    };
    Server::new(Arc::new(tiny_engine()), cfg).expect("server")
}

// ---- The reference: the tree path, as `proto::handle` ran it. ----

fn err_response(echo: &str, msg: &str) -> String {
    format!("{{{echo}\"ok\":false,\"error\":\"{}\"}}", escape(msg))
}

fn tree_handle(server: &Server, payload: &str) -> String {
    let obj = match parse(payload) {
        Ok(v) => v,
        Err(e) => return err_response("", &format!("malformed JSON: {e}")),
    };
    let echo = match obj.get("req").and_then(Json::as_u64) {
        Some(n) => format!("\"req\":{n},"),
        None => String::new(),
    };
    match tree_dispatch(server, &obj) {
        Ok(body) => format!("{{{echo}\"ok\":true,{body}}}"),
        Err(msg) => err_response(&echo, &msg),
    }
}

fn tree_field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("missing field \"{key}\""))
}

fn tree_traj(value: &Json) -> Result<Trajectory, String> {
    let pts = value
        .as_arr()
        .ok_or("\"traj\" must be an array of [x,y] pairs")?;
    let mut out = Vec::with_capacity(pts.len());
    for (i, p) in pts.iter().enumerate() {
        let pair = p
            .as_arr()
            .filter(|a| a.len() == 2)
            .ok_or_else(|| format!("point {i} must be a two-element [x,y] array"))?;
        let x = pair[0]
            .as_f64()
            .ok_or_else(|| format!("point {i}: x is not a number"))?;
        let y = pair[1]
            .as_f64()
            .ok_or_else(|| format!("point {i}: y is not a number"))?;
        out.push(Point::new(x, y));
    }
    Ok(Trajectory::new(out))
}

/// A `vec_bits` value, as PROTOCOL.md §2.2 words it: a string of 8
/// lowercase hex digits per value, each a finite f32's bits.
fn tree_vec(value: &Json) -> Result<Vec<f32>, String> {
    let hex = value
        .as_str()
        .ok_or("\"vec_bits\" must be a string of hex digits")?;
    if hex.len() % 8 != 0 {
        return Err("\"vec_bits\" length must be a multiple of 8".into());
    }
    let mut out = Vec::with_capacity(hex.len() / 8);
    for (i, word) in hex.as_bytes().chunks(8).enumerate() {
        let lowercase = word.iter().all(|c| matches!(c, b'0'..=b'9' | b'a'..=b'f'));
        let bits = std::str::from_utf8(word)
            .ok()
            .filter(|_| lowercase)
            .and_then(|word| u32::from_str_radix(word, 16).ok())
            .ok_or_else(|| format!("\"vec_bits\" value {i}: not 8 lowercase hex digits"))?;
        let x = f32::from_bits(bits);
        if !x.is_finite() {
            return Err(format!("\"vec_bits\" value {i}: not finite"));
        }
        out.push(x);
    }
    Ok(out)
}

/// `hits_bits`: per hit 16 hex digits of the id, then 16 of the distance's bits.
fn hits_bits_json(hits: &[(u64, f64)]) -> String {
    let hex: String = hits
        .iter()
        .map(|(id, d)| format!("{id:016x}{:016x}", d.to_bits()))
        .collect();
    format!("\"hits_bits\":\"{hex}\"")
}

fn hits_json(hits: &[(u64, f64)]) -> String {
    let rows: Vec<String> = hits
        .iter()
        .enumerate()
        .map(|(rank, (id, dist))| {
            format!(
                "{{\"rank\":{},\"index\":{id},\"distance\":{dist:.6}}}",
                rank + 1
            )
        })
        .collect();
    format!("\"hits\":[{}]", rows.join(","))
}

fn tree_dispatch(server: &Server, obj: &Json) -> Result<String, String> {
    let op = tree_field(obj, "op")?
        .as_str()
        .ok_or("\"op\" must be a string")?;
    let id = |obj: &Json| {
        tree_field(obj, "id")?
            .as_u64()
            .ok_or_else(|| "\"id\" must be a non-negative integer".to_string())
    };
    match op {
        "ping" => Ok("\"pong\":true".to_string()),
        "embed" => {
            let traj = tree_traj(tree_field(obj, "traj")?)?;
            let e = server.embed(&traj).map_err(|e| e.to_string())?;
            let vals: Vec<String> = e.iter().map(|v| format!("{v:.6}")).collect();
            Ok(format!("\"embedding\":[{}]", vals.join(",")))
        }
        "knn" => {
            let k = |obj: &Json| {
                tree_field(obj, "k")?
                    .as_u64()
                    .filter(|&k| k <= MAX_K as u64)
                    .map(|k| k as usize)
                    .ok_or_else(|| format!("\"k\" must be an integer in 0..={MAX_K}"))
            };
            match obj.get("vec_bits") {
                Some(_) if obj.get("traj").is_some() || obj.get("traj_bits").is_some() => {
                    Err("\"knn\" takes \"vec_bits\" or a trajectory, not both".into())
                }
                Some(vec) => {
                    let vec = tree_vec(vec)?;
                    let hits = server.knn_vec(&vec, k(obj)?).map_err(|e| e.to_string())?;
                    Ok(hits_bits_json(&hits))
                }
                None => {
                    let traj = tree_traj(tree_field(obj, "traj")?)?;
                    let hits = server.knn(&traj, k(obj)?).map_err(|e| e.to_string())?;
                    Ok(hits_json(&hits))
                }
            }
        }
        "distance" => {
            let a = tree_traj(tree_field(obj, "a")?)?;
            let b = tree_traj(tree_field(obj, "b")?)?;
            let d = server.distance(&a, &b).map_err(|e| e.to_string())?;
            Ok(format!("\"distance\":{d:.6}"))
        }
        "upsert" => {
            let id = id(obj)?;
            let traj = tree_traj(tree_field(obj, "traj")?)?;
            let replaced = server.upsert(id, &traj).map_err(|e| e.to_string())?;
            Ok(format!("\"replaced\":{replaced}"))
        }
        "remove" => {
            let removed = server.remove(id(obj)?).map_err(|e| e.to_string())?;
            Ok(format!("\"removed\":{removed}"))
        }
        "compact" => {
            let sealed = server.compact().map_err(|e| e.to_string())?;
            Ok(format!("\"sealed\":{sealed}"))
        }
        "stats" => {
            let s = server.stats();
            Ok(format!(
                "\"size\":{},\"buffer\":{},\"generation\":{},\"memory_bytes\":{},\"shards\":{},\"requests\":{},\"batches\":{},\"cache_hits\":{},\"cache_misses\":{},\"wal_log_bytes\":{}",
                s.index_len,
                s.buffer_len,
                s.generation,
                s.index_memory_bytes,
                s.shards,
                s.requests,
                s.batches,
                s.cache_hits,
                s.cache_misses,
                s.wal_log_bytes,
            ))
        }
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Whether `payload` is one of the inputs the exact integer fields read
/// differently: a top-level `req` or `id` the tree holds at 2^53 or more.
fn reads_an_integer_past_2_pow_53(payload: &str) -> bool {
    let Ok(obj) = parse(payload) else {
        return false;
    };
    ["req", "id"].iter().any(|key| {
        obj.get(key)
            .and_then(Json::as_f64)
            .is_some_and(|n| n >= 9_007_199_254_740_992.0)
    })
}

// ---- Payload generation. ----

fn pick<'a>(rng: &mut StdRng, options: &[&'a str]) -> &'a str {
    options[rng.gen_range(0..options.len())]
}

/// A coordinate, in one of the number forms a client may write.
fn coord(rng: &mut StdRng) -> String {
    let v: f64 = rng.gen_range(-50.0..1050.0);
    match rng.gen_range(0..6) {
        0 => format!("{v:.2}"),
        1 => format!("{v:e}"),
        2 => format!("{}", v.round()),
        3 => pick(rng, &["-0", "0", "1E+2", "2.5e-1"]).to_string(),
        _ => format!("{v}"),
    }
}

/// A `traj`/`a`/`b` value: mostly well-formed, sometimes the wrong shape.
fn traj(rng: &mut StdRng) -> String {
    if rng.gen_range(0..8) == 0 {
        return pick(
            rng,
            &[
                "[[1,2,3]]",
                "[[\"a\",2]]",
                "[1,2]",
                "\"x\"",
                "{}",
                "null",
                "[[1,2],[3]]",
                "[[1,true]]",
                "[[]]",
                "[[1,{\"y\":2}]]",
                "3",
                "[]",
            ],
        )
        .to_string();
    }
    let n = rng.gen_range(1..7);
    let bad = (rng.gen_range(0..6) == 0).then(|| rng.gen_range(0..n));
    let points: Vec<String> = (0..n)
        .map(|i| match bad {
            Some(b) if b == i => pick(
                rng,
                &[
                    "[1]",
                    "[1,2,3]",
                    "[null,1]",
                    "[1,\"y\"]",
                    "[null,\"y\"]",
                    "7",
                ],
            )
            .to_string(),
            _ => format!("[{},{}]", coord(rng), coord(rng)),
        })
        .collect();
    format!("[{}]", points.join(","))
}

/// A `vec_bits` value: mostly the model's width of finite values, else
/// another width or a malformed form.
fn vec_bits(rng: &mut StdRng) -> String {
    if rng.gen_range(0..6) == 0 {
        return pick(
            rng,
            &[
                "null",
                "[1]",
                "\"\"",
                "\"3f80000\"",
                "\"3F800000\"",
                "\"3f80000g\"",
                "\"7fc00000\"",
                "\"ff800000\"",
            ],
        )
        .to_string();
    }
    let dim = TrajClConfig::test_default().dim;
    let n = if rng.gen_range(0..6) == 0 {
        rng.gen_range(0..dim + 2)
    } else {
        dim
    };
    let hex: String = (0..n)
        .map(|_| format!("{:08x}", rng.gen_range(-2.0f32..2.0).to_bits()))
        .collect();
    format!("\"{hex}\"")
}

/// An integer field (`k`, `id`, `req`) at most `max` when well-formed;
/// never 2^53 or more.
fn integer(rng: &mut StdRng, max: u64) -> String {
    match rng.gen_range(0..10) {
        0 => pick(
            rng,
            &["1e1", "2.0", "-0", "0.0", "1E+1", "5e-0", "16384", "16385"],
        )
        .to_string(),
        1 => pick(
            rng,
            &[
                "-1",
                "1.5",
                "\"3\"",
                "null",
                "true",
                "[1]",
                "{}",
                "9007199254740991",
                "123456789012",
            ],
        )
        .to_string(),
        _ => rng.gen_range(0..=max).to_string(),
    }
}

/// A value nobody reads.
fn noise(rng: &mut StdRng) -> String {
    pick(
        rng,
        &[
            "{\"deep\":[1,[2,[3,{\"a\":null}]]],\"s\":\"a\\\"b\"}",
            "null",
            "\"\\u00e9t\\u00e9\"",
            "[true,false,-1.5e3]",
            "\"\"",
        ],
    )
    .to_string()
}

/// A key as written: sometimes with its first letter `\u`-escaped.
fn key(rng: &mut StdRng, key: &str) -> String {
    if rng.gen_range(0..8) == 0 {
        let first = key.as_bytes()[0];
        format!("\\u{:04x}{}", first, &key[1..])
    } else {
        key.to_string()
    }
}

/// A well-formed payload for one of the 8 ops (or a bad `op`): fields in
/// random order, some missing, some duplicated, unknown ones mixed in.
fn payload(rng: &mut StdRng) -> String {
    let op = pick(
        rng,
        &[
            "knn", "knn", "knn", "upsert", "upsert", "remove", "embed", "distance", "ping",
            "stats", "compact", "nope",
        ],
    );
    let needs: &[&str] = match op {
        "knn" if rng.gen_range(0..3) == 0 => &["vec_bits", "k"],
        "knn" => &["traj", "k"],
        "upsert" => &["id", "traj"],
        "remove" => &["id"],
        "embed" => &["traj"],
        "distance" => &["a", "b"],
        _ => &[],
    };
    let mut fields: Vec<(String, String)> = Vec::new();
    match rng.gen_range(0..20) {
        0 => {}
        1 => fields.push(("op".into(), pick(rng, &["5", "null", "[\"knn\"]"]).into())),
        2 => fields.push(("op".into(), "\"kn\\u006e\"".into())),
        _ => fields.push(("op".into(), format!("\"{op}\""))),
    }
    for name in ["traj", "vec_bits", "a", "b", "k", "id", "req", "extra"] {
        let wanted = if needs.contains(&name) {
            rng.gen_range(0..10) != 0
        } else {
            rng.gen_range(0..6) == 0
        };
        let copies = if wanted {
            1 + usize::from(rng.gen_range(0..6) == 0)
        } else {
            0
        };
        for _ in 0..copies {
            let value = match name {
                "traj" | "a" | "b" => traj(rng),
                "vec_bits" => vec_bits(rng),
                "k" => integer(rng, 12),
                "id" => integer(rng, 40),
                "req" => integer(rng, 1000),
                _ => noise(rng),
            };
            fields.push((name.to_string(), value));
        }
    }
    // Shuffle (Fisher–Yates), keeping duplicates' relative order random too.
    for i in (1..fields.len()).rev() {
        let j = rng.gen_range(0..=i);
        fields.swap(i, j);
    }
    let sep = pick(rng, &[",", ", ", "\n,\t"]);
    let colon = pick(rng, &[":", " : "]);
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{}\"{colon}{v}", key(rng, k)))
        .collect();
    format!("{{{}}}", body.join(sep))
}

/// `payload` broken somewhere: truncated, a byte replaced, a token
/// spliced in, or a value nested past `MAX_DEPTH`.
fn mutate(rng: &mut StdRng, payload: &str) -> String {
    let at = rng.gen_range(0..=payload.len());
    let (head, tail) = payload.split_at(at);
    match rng.gen_range(0..4) {
        0 => head.to_string(),
        1 if !tail.is_empty() => {
            let c = pick(
                rng,
                &[
                    "[", "]", "{", "}", ",", ":", "\"", "\\", "0", "-", ".", "e", "x", " ",
                ],
            );
            format!("{head}{c}{}", &tail[1..])
        }
        2 => {
            let token = pick(
                rng,
                &[
                    "1e999", "+1", "01", ".5", "1.", "-", "nul", "tru", "\\u12", "\"", "[", "}",
                    ",", "00",
                ],
            );
            format!("{head}{token}{tail}")
        }
        _ => {
            let depth = rng.gen_range(MAX_DEPTH - 3..MAX_DEPTH + 3);
            let deep = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
            match payload.strip_prefix('{') {
                Some(rest) if rest != "}" => format!("{{\"deep\":{deep},{rest}"),
                _ => format!("{{\"traj\":[{deep}]}}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn typed_decode_answers_what_the_tree_path_answered(seed in 0u64..u64::MAX) {
        let (typed, tree) = (server(), server());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut compared = 0;
        for _ in 0..40 {
            let good = payload(&mut rng);
            for p in [mutate(&mut rng, &good), good] {
                if reads_an_integer_past_2_pow_53(&p) {
                    continue;
                }
                prop_assert_eq!(handle(&typed, &p), tree_handle(&tree, &p), "payload {:?}", p);
                compared += 1;
            }
        }
        // The generator stays below 2^53; only a rare mutation crosses it.
        prop_assert!(compared >= 76, "{}", compared);
        typed.shutdown();
        tree.shutdown();
    }
}

/// The inputs the comparison leaves out, and the number forms the reader
/// now refuses: the replies they get.
#[test]
fn integer_and_number_fixes_answer_as_documented() {
    let server = server();
    for (payload, reply) in [
        (
            r#"{"req":9007199254740993,"op":"ping"}"#,
            r#"{"req":9007199254740993,"ok":true,"pong":true}"#,
        ),
        (
            r#"{"req":18446744073709551615,"op":"ping"}"#,
            r#"{"req":18446744073709551615,"ok":true,"pong":true}"#,
        ),
        (
            r#"{"req":18446744073709551616,"op":"ping"}"#,
            r#"{"ok":true,"pong":true}"#,
        ),
        (
            r#"{"req":9007199254740993e0,"op":"ping"}"#,
            r#"{"ok":true,"pong":true}"#,
        ),
        (
            r#"{"op":"remove","id":18446744073709551616}"#,
            r#"{"ok":false,"error":"\"id\" must be a non-negative integer"}"#,
        ),
        (
            r#"{"op":"remove","id":9007199254740993}"#,
            r#"{"ok":true,"removed":false}"#,
        ),
        (
            r#"{"op":"knn","traj":[[1,2]],"k":01}"#,
            r#"{"ok":false,"error":"malformed JSON: invalid number at byte 31"}"#,
        ),
        (
            r#"{"req":+1,"op":"ping"}"#,
            r#"{"ok":false,"error":"malformed JSON: invalid number at byte 7"}"#,
        ),
        (
            r#"{"op":"knn","traj":[[.5,1.]],"k":1}"#,
            r#"{"ok":false,"error":"malformed JSON: invalid number at byte 21"}"#,
        ),
    ] {
        assert_eq!(handle(&server, payload), reply, "{payload}");
        // Exactly what the comparison above leaves out, or what both
        // paths now refuse alike.
        assert!(reads_an_integer_past_2_pow_53(payload) || parse(payload).is_err());
    }
    server.shutdown();
}
