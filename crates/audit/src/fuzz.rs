//! Deterministic structure-aware mutation fuzzing for every decoder that
//! parses untrusted bytes: the serve frame reader, the JSON parser, the
//! typed request and shard-reply decoders the servers run, the TCE1
//! engine loader and the write-ahead-log record/checkpoint decoders.
//!
//! The harness is a classic corpus mutator, not coverage-guided: each
//! target starts from a small set of *valid* encodings (so mutations land
//! near the format's structure instead of dying at the magic check) and
//! runs `cases` mutated inputs through the decoder under
//! [`std::panic::catch_unwind`]. The contract asserted for every input:
//!
//! 1. the decoder returns `Ok`/`Some` or `Err`/`None` — it never panics;
//! 2. a decode that *succeeds* yields a value that survives a probe
//!    (an embed, a re-encode), i.e. accepted data is internally
//!    consistent.
//!
//! Determinism: case `i` of target `t` derives its RNG from
//! `seed_from_u64(FUZZ_SEED ^ (t << 32) ^ i)`, so a CI failure replays
//! bit-for-bit locally and every reproducer is re-derivable. Failures
//! additionally drop their exact input bytes into `repro_dir`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trajcl_core::{EncoderVariant, Featurizer, TrajClConfig, TrajClModel};
use trajcl_engine::{Engine, IndexOptions, Quantization};
use trajcl_geo::{Bbox, Grid, Point, SpatialNorm, Trajectory};
use trajcl_tensor::{Shape, Tensor};

/// Base seed of the whole fuzz run (xor-folded with target and case ids).
pub const FUZZ_SEED: u64 = 0x7261_6a63_6c2d_6131; // "trajcl-a1"

/// Fuzzing knobs.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Mutated inputs per target.
    pub cases_per_target: usize,
    /// Where failing inputs are written (skipped when `None`).
    pub repro_dir: Option<PathBuf>,
}

/// Per-target outcome counts.
#[derive(Debug)]
pub struct TargetReport {
    /// Target name (`json`, `proto`, `engine`, `wal`).
    pub name: &'static str,
    /// Inputs executed (corpus entries + mutations).
    pub cases: usize,
    /// Inputs the decoder accepted.
    pub accepted: usize,
    /// Inputs the decoder rejected with a clean error.
    pub rejected: usize,
    /// Panics caught (each one is a bug).
    pub panics: usize,
    /// Reproducer files written for caught panics.
    pub repro_paths: Vec<PathBuf>,
}

/// Outcome of a full fuzz run.
#[derive(Debug)]
pub struct FuzzReport {
    /// One report per target.
    pub targets: Vec<TargetReport>,
}

impl FuzzReport {
    /// Whether every target ran panic-free.
    pub fn passed(&self) -> bool {
        self.targets.iter().all(|t| t.panics == 0)
    }

    /// Total panics across targets.
    pub fn total_panics(&self) -> usize {
        self.targets.iter().map(|t| t.panics).sum()
    }
}

/// What a decoder did with one input (when it didn't panic).
enum Outcome {
    Accepted,
    Rejected,
}

/// Runs every fuzz target for `opts.cases_per_target` cases each.
///
/// The default panic hook prints a backtrace per panic; with ~100k cases
/// per target that would swamp stderr, so the hook is silenced for the
/// duration of the run and restored afterwards.
pub fn run_all(opts: &FuzzOptions) -> FuzzReport {
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let targets = vec![
        run_target(0, "json", &corpus_json(), opts, |bytes| {
            let text = String::from_utf8_lossy(bytes);
            match trajcl_serve::json::parse(&text) {
                Ok(_) => Outcome::Accepted,
                Err(_) => Outcome::Rejected,
            }
        }),
        run_target(1, "proto", &corpus_proto(), opts, |bytes| {
            // Drain the mutated stream frame by frame, decoding every
            // payload that frames correctly as the servers do (capped so a
            // mutation cannot manufacture an unbounded number of tiny
            // frames). The typed decoders share the tree parser's grammar,
            // so each payload is malformed for all three or for none.
            let mut reader = std::io::Cursor::new(bytes);
            let mut any = false;
            for _ in 0..64 {
                match trajcl_serve::proto::read_frame(&mut reader) {
                    Ok(Some(payload)) => {
                        any = true;
                        let tree = trajcl_serve::json::parse(&payload).err();
                        let request = trajcl_serve::proto::Request::decode(&payload).err();
                        assert_eq!(request, tree, "request decoder vs json::parse");
                        let hits = trajcl_serve::fleet::read_hits(&payload)
                            .err()
                            .and_then(|e| {
                                e.strip_prefix("malformed shard response: ")
                                    .map(str::to_string)
                            });
                        assert_eq!(hits, tree, "hits decoder vs json::parse");
                        let vec = trajcl_serve::fleet::read_vec(&payload).err().and_then(|e| {
                            e.strip_prefix("malformed shard response: ")
                                .map(str::to_string)
                        });
                        assert_eq!(vec, tree, "vec decoder vs json::parse");
                    }
                    Ok(None) => break,
                    Err(_) => return Outcome::Rejected,
                }
            }
            if any {
                Outcome::Accepted
            } else {
                Outcome::Rejected
            }
        }),
        run_target(3, "engine", &corpus_engine(), opts, |bytes| {
            match Engine::from_bytes(bytes) {
                Ok(engine) => {
                    // Probe the loaded model end-to-end: mutated weights
                    // may be garbage (NaNs are fine) but the forward pass
                    // must not panic.
                    let probe: Trajectory = (0..4)
                        .map(|i| Point::new(100.0 + 50.0 * i as f64, 200.0))
                        .collect();
                    let _ = engine.embed_all(std::slice::from_ref(&probe));
                    Outcome::Accepted
                }
                Err(_) => Outcome::Rejected,
            }
        }),
        run_target(4, "wal", &corpus_wal(), opts, |bytes| {
            // The log replayer is total: any byte string yields a valid
            // prefix of ops plus a torn tail it refuses to consume. The
            // contract fuzzed here is exactly the one recovery relies on:
            // whatever it accepts must re-encode to the bytes it consumed
            // (canonical encoding), and the tail must start with a record
            // that strictly errors.
            let (ops, consumed) = trajcl_index::wal::replay(bytes);
            let reencoded: Vec<u8> = ops
                .iter()
                .flat_map(trajcl_index::wal::encode_record)
                .collect();
            assert_eq!(
                reencoded,
                bytes[..consumed],
                "replayed prefix must re-encode canonically"
            );
            if consumed < bytes.len() {
                assert!(
                    trajcl_index::wal::decode_record(&bytes[consumed..]).is_err(),
                    "replay stopped before a decodable record"
                );
            }
            // The same input doubles as a checkpoint-blob candidate: an
            // accepted blob must survive an encode round trip bit-exactly.
            let ckpt = trajcl_index::wal::decode_checkpoint(bytes);
            if let Ok((dim, entries)) = &ckpt {
                assert_eq!(
                    trajcl_index::wal::encode_checkpoint(*dim, entries),
                    bytes,
                    "accepted checkpoint must round-trip"
                );
            }
            if !ops.is_empty() || ckpt.is_ok() {
                Outcome::Accepted
            } else {
                Outcome::Rejected
            }
        }),
    ];
    std::panic::set_hook(prev_hook);
    FuzzReport { targets }
}

fn run_target(
    target_id: u64,
    name: &'static str,
    corpus: &[Vec<u8>],
    opts: &FuzzOptions,
    check: impl Fn(&[u8]) -> Outcome,
) -> TargetReport {
    let mut report = TargetReport {
        name,
        cases: 0,
        accepted: 0,
        rejected: 0,
        panics: 0,
        repro_paths: Vec::new(),
    };
    let mut run_one = |input: &[u8], case: usize| {
        report.cases += 1;
        match catch_unwind(AssertUnwindSafe(|| check(input))) {
            Ok(Outcome::Accepted) => report.accepted += 1,
            Ok(Outcome::Rejected) => report.rejected += 1,
            Err(_) => {
                report.panics += 1;
                if let Some(dir) = &opts.repro_dir {
                    // Keep a bounded number of reproducers per target.
                    if report.repro_paths.len() < 16 && std::fs::create_dir_all(dir).is_ok() {
                        let path = dir.join(format!("{name}-case{case}.bin"));
                        if std::fs::write(&path, input).is_ok() {
                            report.repro_paths.push(path);
                        }
                    }
                }
            }
        }
    };
    // The unmutated corpus runs first: every entry must be accepted, so a
    // panic here means the corpus (or a decoder regression) is broken in
    // a way mutation statistics would hide.
    for (i, entry) in corpus.iter().enumerate() {
        run_one(entry, i);
    }
    for case in corpus.len()..opts.cases_per_target {
        let mut rng = StdRng::seed_from_u64(FUZZ_SEED ^ (target_id << 32) ^ case as u64);
        let base = &corpus[rng.gen_range(0..corpus.len())];
        let input = mutate(base, corpus, &mut rng);
        run_one(&input, case);
    }
    report
}

/// Values worth splicing over 4-byte fields: boundary counts and lengths
/// that historically trip `n - 1`, `n * size` and `Vec::with_capacity`.
const INTERESTING_U32: &[u32] = &[
    0,
    1,
    2,
    0x7f,
    0xff,
    0x100,
    0xffff,
    0x0100_0000,
    0x00ff_ffff,
    0x7fff_ffff,
    0xffff_fffe,
    0xffff_ffff,
];

/// Applies 1–4 random mutation operators to `base`.
pub fn mutate(base: &[u8], corpus: &[Vec<u8>], rng: &mut StdRng) -> Vec<u8> {
    let mut out = base.to_vec();
    let ops = rng.gen_range(1..=4usize);
    for _ in 0..ops {
        if out.is_empty() {
            out = vec![rng.gen_range(0..=u8::MAX)];
            continue;
        }
        match rng.gen_range(0..7usize) {
            // Bit flips: the classic off-by-one-bit probe.
            0 => {
                let flips = rng.gen_range(1..=4usize);
                for _ in 0..flips {
                    let i = rng.gen_range(0..out.len());
                    out[i] ^= 1 << rng.gen_range(0..8u32);
                }
            }
            // Byte randomization.
            1 => {
                let i = rng.gen_range(0..out.len());
                out[i] = rng.gen_range(0..=u8::MAX);
            }
            // Truncation: every decoder must survive any prefix.
            2 => {
                let len = rng.gen_range(0..out.len());
                out.truncate(len);
            }
            // Extension: trailing garbage after a valid encoding.
            3 => {
                let extra = rng.gen_range(1..=16usize);
                for _ in 0..extra {
                    out.push(rng.gen_range(0..=u8::MAX));
                }
            }
            // Length-field attack: splice an interesting u32 anywhere —
            // unaligned offsets included, since framing shifts fields.
            4 => {
                let v = match rng.gen_range(0..INTERESTING_U32.len() + 3) {
                    i if i < INTERESTING_U32.len() => INTERESTING_U32[i],
                    _ => {
                        let len = out.len() as u32;
                        [len.wrapping_sub(1), len, len.wrapping_add(1)][rng.gen_range(0..3usize)]
                    }
                };
                if out.len() >= 4 {
                    let at = rng.gen_range(0..=out.len() - 4);
                    out[at..at + 4].copy_from_slice(&v.to_le_bytes());
                }
            }
            // Splice a window from another corpus entry (crossover).
            5 => {
                let donor = &corpus[rng.gen_range(0..corpus.len())];
                if !donor.is_empty() {
                    let from = rng.gen_range(0..donor.len());
                    let n = rng.gen_range(1..=(donor.len() - from).min(64));
                    let at = rng.gen_range(0..=out.len());
                    let insert: Vec<u8> = donor[from..from + n].to_vec();
                    out.splice(at..at.min(out.len()), insert);
                }
            }
            // ASCII digit tweak: mutates decimal headers / JSON numbers
            // without destroying the surrounding structure.
            _ => {
                let digits: Vec<usize> = out
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| b.is_ascii_digit())
                    .map(|(i, _)| i)
                    .collect();
                if let Some(&i) = digits.get(rng.gen_range(0..digits.len().max(1))) {
                    out[i] = b'0' + rng.gen_range(0..10u8);
                }
            }
        }
    }
    out
}

/// Valid protocol JSON payloads (one per op, edge shapes, the exact
/// `traj_bits`/`vec_bits`/`hits_bits` forms with bad lengths, uppercase
/// digits and NaN/∞ bit patterns, and the shard replies a fleet front-end
/// reads).
fn corpus_json() -> Vec<Vec<u8>> {
    let word = |x: f64| format!("{:016x}", x.to_bits());
    let (one, two) = (word(1.0), word(2.5));
    let word32 = |x: f32| format!("{:08x}", x.to_bits());
    let (half, three) = (word32(0.5), word32(-3.0));
    let bits = [
        format!(r#"{{"op":"embed","traj_bits":"{one}{two}{two}{one}","req":8}}"#),
        format!(r#"{{"req":8,"ok":true,"vec_bits":"{half}{three}{half}{three}"}}"#),
        format!(r#"{{"op":"knn","k":3,"vec_bits":"{half}{three}{half}{three}"}}"#),
        format!(r#"{{"op":"knn","k":3,"vec_bits":"{half}{three}0"}}"#),
        format!(
            r#"{{"op":"knn","k":3,"vec_bits":"{}"}}"#,
            format!("{half}{three}").to_uppercase()
        ),
        format!(
            r#"{{"op":"knn","k":3,"vec_bits":"{half}{}"}}"#,
            word32(f32::NAN)
        ),
        format!(
            r#"{{"ok":true,"vec_bits":"{half}{}"}}"#,
            word32(f32::INFINITY)
        ),
        format!(r#"{{"op":"knn","k":3,"traj_bits":"{one}{two}{two}{one}"}}"#),
        format!(
            r#"{{"req":5,"ok":true,"hits_bits":"{:016x}{two}{:016x}{one}"}}"#,
            7,
            u64::MAX
        ),
        format!(r#"{{"op":"knn","k":3,"traj_bits":"{one}{two}0"}}"#),
        format!(
            r#"{{"op":"knn","k":3,"traj_bits":"{}"}}"#,
            format!("{one}{two}").to_uppercase()
        ),
        format!(
            r#"{{"op":"knn","k":3,"traj_bits":"{one}{}"}}"#,
            word(f64::NAN)
        ),
        format!(
            r#"{{"ok":true,"hits_bits":"{one}{}"}}"#,
            word(f64::INFINITY)
        ),
    ];
    bits.iter().map(String::as_str).chain([
        r#"{"op":"knn","traj":[[1.5,-2.0],[3,4]],"k":5}"#,
        r#"{"op":"embed","traj":[[0,0],[100.25,50.5],[200,100]],"req":7}"#,
        r#"{"op":"distance","a":[[0,0],[1,1]],"b":[[2,2],[3,3]]}"#,
        r#"{"op":"upsert","id":42,"traj":[[9.5,8.25],[10,11]]}"#,
        r#"{"op":"remove","id":42}"#,
        r#"{"op":"stats"}"#,
        r#"{"s":"a\"b\\c\ndA","deep":[[[[1]]]],"neg":-1.25e2}"#,
        r#"[1e308,-1e-308,0.5,123456789,null,true,false,""]"#,
        r#"{"req":9,"ok":true,"hits":[{"rank":1,"index":7,"distance":0.125000},{"rank":2,"index":18446744073709551615,"distance":2.5}]}"#,
        r#"{"ok":false,"error":"point 0: x is not a number"}"#,
    ])
    .map(|s| s.as_bytes().to_vec())
    .collect()
}

/// Valid framed streams (`LEN\n{json}\n` sequences).
fn corpus_proto() -> Vec<Vec<u8>> {
    let payloads = corpus_json();
    let mut single = Vec::new();
    let mut multi = Vec::new();
    for (i, p) in payloads.iter().enumerate() {
        let text = String::from_utf8_lossy(p).into_owned();
        if i == 0 {
            trajcl_serve::proto::write_frame(&mut single, &text).expect("vec write");
        }
        trajcl_serve::proto::write_frame(&mut multi, &text).expect("vec write");
    }
    let mut blanks = b"\n\n".to_vec();
    blanks.extend_from_slice(&single);
    vec![single, multi, blanks]
}

/// A small trained-shape (but untrained) model + featurizer, mirroring
/// the persistence tests: cheap to build, structurally identical to a
/// real checkpoint.
fn tiny_model() -> (TrajClModel, Featurizer) {
    let mut rng = StdRng::seed_from_u64(FUZZ_SEED);
    let cfg = TrajClConfig::test_default();
    let region = Bbox::new(Point::new(0.0, 0.0), Point::new(1000.0, 800.0));
    let grid = Grid::new(region, 100.0);
    let table = Tensor::randn(Shape::d2(grid.num_cells(), cfg.dim), 0.0, 0.5, &mut rng);
    let feat = Featurizer::new(grid, table, SpatialNorm::new(region, 100.0), cfg.max_len);
    let model = TrajClModel::new(&cfg, EncoderVariant::Dual, &mut rng);
    (model, feat)
}

/// Valid TCE1 blobs — model-only files, as every engine file is — one per
/// tail shape: no index described, an SQ8 and a PQ index described.
fn corpus_engine() -> Vec<Vec<u8>> {
    [
        IndexOptions::default(),
        IndexOptions {
            nlist: Some(3),
            quantization: Quantization::Sq8,
            ..IndexOptions::default()
        },
        IndexOptions {
            nlist: Some(3),
            quantization: Quantization::Pq { m: 4 },
            ..IndexOptions::default()
        },
    ]
    .into_iter()
    .map(|opts| {
        let (model, feat) = tiny_model();
        Engine::builder()
            .trajcl(model, feat)
            .index_options(opts)
            .build()
            .expect("engine")
            .to_bytes()
            .expect("serialize engine")
    })
    .collect()
}

/// Valid WAL inputs: single records of every op tag, a multi-record log
/// stream, and checkpoint blobs (empty and populated) — the replayer
/// accepts any bytes, so "valid" here means "decodes at least one op or
/// checkpoint", keeping mutations near the record framing.
fn corpus_wal() -> Vec<Vec<u8>> {
    use trajcl_index::wal::{encode_checkpoint, encode_record};
    use trajcl_index::{CheckpointEntry, WalOp};

    let upsert = |id: u64, fill: f32| WalOp::Upsert {
        id,
        vector: (0..8).map(|i| fill + i as f32 * 0.25).collect(),
    };
    let single = encode_record(&upsert(42, 1.5));
    let mut stream = Vec::new();
    for op in [
        upsert(1, -0.5),
        WalOp::Remove { id: 1 },
        WalOp::Compact,
        upsert(u64::MAX, 0.0),
        WalOp::Upsert {
            id: 7,
            vector: Vec::new(), // zero-dim vector: smallest legal upsert
        },
    ] {
        stream.extend_from_slice(&encode_record(&op));
    }
    let entries: Vec<CheckpointEntry> = (0..6)
        .map(|i| CheckpointEntry {
            id: i,
            dirty: i % 2 == 1,
            vector: (0..8).map(|j| (i * 8 + j) as f32 * 0.125).collect(),
        })
        .collect();
    vec![
        single,
        stream,
        encode_checkpoint(8, &entries),
        encode_checkpoint(8, &[]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smoke-sized run of every target: the corpus itself must decode,
    /// and a few thousand mutations must not panic. The full-depth run
    /// lives behind `trajcl audit`.
    #[test]
    fn quick_fuzz_is_panic_free() {
        let report = run_all(&FuzzOptions {
            cases_per_target: 2_000,
            repro_dir: None,
        });
        assert_eq!(report.targets.len(), 4);
        for t in &report.targets {
            assert_eq!(t.panics, 0, "target {} panicked", t.name);
            assert_eq!(t.cases, 2_000, "target {} case count", t.name);
            // The valid corpus must decode: if everything is rejected the
            // mutator is exploring noise, not the format.
            assert!(t.accepted > 0, "target {} accepted nothing", t.name);
        }
    }

    #[test]
    fn mutation_is_deterministic() {
        let corpus = corpus_json();
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        assert_eq!(
            mutate(&corpus[0], &corpus, &mut a),
            mutate(&corpus[0], &corpus, &mut b)
        );
    }

    #[test]
    fn truncated_corpora_are_rejected_not_panicking() {
        for blob in corpus_engine() {
            for cut in [0, 3, 8, blob.len() / 2] {
                assert!(Engine::from_bytes(&blob[..cut]).is_err());
            }
        }
        // WAL decoders: a truncated stream replays to a strict prefix and
        // a truncated checkpoint is an error, never a panic.
        for blob in corpus_wal() {
            for cut in [0, 3, 7, blob.len() / 2, blob.len() - 1] {
                let (_, consumed) = trajcl_index::wal::replay(&blob[..cut]);
                assert!(consumed <= cut);
                assert!(trajcl_index::wal::decode_checkpoint(&blob[..cut]).is_err());
            }
        }
    }

    /// The documented WAL failure modes each map to a clean error: bad op
    /// tag, impossible length prefix, garbled checksum.
    #[test]
    fn wal_corruption_errors_cleanly() {
        use trajcl_index::wal::{decode_record, encode_record, WalError};
        use trajcl_index::WalOp;

        let good = encode_record(&WalOp::Remove { id: 9 });
        let mut bad_tag = good.clone();
        bad_tag[8] = 0xEE; // first payload byte is the op tag
        assert!(matches!(
            decode_record(&bad_tag),
            Err(WalError::BadChecksum) | Err(WalError::BadTag(_))
        ));
        let mut bad_len = good.clone();
        bad_len[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_record(&bad_len),
            Err(WalError::BadLength(_))
        ));
        let mut bad_crc = good;
        bad_crc[4] ^= 0xFF;
        assert!(matches!(
            decode_record(&bad_crc),
            Err(WalError::BadChecksum)
        ));
    }
}
