//! What the benchmark declares: workloads, metric names with units,
//! direction and regression bounds, and the sizes of one run.
//!
//! `BENCHMARK.json` at the repository root repeats the workload and
//! metric tables for the driver; `declared_tables_match_benchmark_json`
//! below keeps the two from drifting.

/// One benchmark workload (names are fixed; later issues cite them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop hot kNN over TCP against one 4-shard server.
    TcpKnnHot,
    /// Open-loop never-repeating kNN over TCP.
    TcpKnnColdOpen,
    /// One upsert stream beside one hot kNN stream, WAL on.
    TcpMixedRw,
    /// `tcp_knn_hot`'s load through a fleet front-end over 4 shard servers.
    FleetKnnHot,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::TcpKnnHot,
        Workload::TcpKnnColdOpen,
        Workload::TcpMixedRw,
        Workload::FleetKnnHot,
    ];

    /// The workload's fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TcpKnnHot => "tcp_knn_hot",
            Workload::TcpKnnColdOpen => "tcp_knn_cold_open",
            Workload::TcpMixedRw => "tcp_mixed_rw",
            Workload::FleetKnnHot => "fleet_knn_hot",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line; repeated in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::TcpKnnHot => {
                "2 closed-loop TCP connections, cached queries: frame I/O, JSON and thread hand-offs dominate; encoder and write-path changes must show nothing"
            }
            Workload::TcpKnnColdOpen => {
                "open loop, never-repeating queries at a fixed rate, timed from due time: featurize, batcher and forward pass dominate; wire changes barely show"
            }
            Workload::TcpMixedRw => {
                "one upsert stream beside one hot kNN stream with a buffered WAL: publish clone, tombstone copy and buffer scan of index::mutable, writes taxing reads"
            }
            Workload::FleetKnnHot => {
                "the hot load through a fleet front-end over 4 shard servers: scatter threads, per-shard round trips, reply re-parse and re-print"
            }
        }
    }

    /// True when the workload's kNN requests miss the embedding cache.
    pub fn is_cold(self) -> bool {
        self == Workload::TcpKnnColdOpen
    }
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, reported by every workload.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("knn_qps", "1/s", Higher, 0.25),
    e2e("ops_qps", "1/s", Higher, 0.25),
    e2e("knn_p50_us", "us", Lower, 0.25),
    e2e("knn_within_10ms_share", "share", Higher, 0.05),
    e2e("cpu_us_per_req", "us", Lower, 0.25),
    e2e("rss_peak_mb", "MB", Lower, 0.20),
    e2e("recall_at_10", "share", Higher, 0.02),
    e2e("ok_share", "share", Higher, 0.001),
];

/// The per-layer metrics of a traced run (layers are this repository's
/// modules).
pub const PER_LAYER: &[MetricSpec] = &[
    // Embed ladder.
    layer("core.featurizer.featurize_us", "us", Lower),
    layer("core.model.forward_b1_us", "us", Lower),
    layer("core.model.forward_b32_us_per_traj", "us", Lower),
    layer("tensor.pool.region_overhead_us", "us", Lower),
    layer("serve.server.embed_miss_us", "us", Lower),
    layer("serve.batcher.hop_us", "us", Lower),
    layer("engine.embed_all_tps", "1/s", Higher),
    layer("serve.batcher.trajs_per_batch", "count", Higher),
    layer("serve.cache.hit_ratio", "share", Higher),
    layer("core.trainer.step_ms", "ms", Lower),
    // Read ladder.
    layer("index.kernels.scan_ns_per_row", "ns", Lower),
    layer("index.ivf.search_us", "us", Lower),
    layer("index.mutable.search_sealed_us", "us", Lower),
    layer("index.mutable.search_buffered_us", "us", Lower),
    layer("index.sharded.search_us", "us", Lower),
    layer("serve.router.search_us", "us", Lower),
    layer("serve.cache.hit_us", "us", Lower),
    layer("serve.server.knn_hot_us", "us", Lower),
    // Write ladder.
    layer("index.mutable.upsert_us_buf1k", "us", Lower),
    layer("index.mutable.upsert_us_buf32k", "us", Lower),
    layer("index.mutable.compact_ms", "ms", Lower),
    layer("index.wal.append_buffered_us", "us", Lower),
    layer("index.wal.append_fsync_us", "us", Lower),
    layer("index.wal.bytes_per_upsert", "bytes", Lower),
    layer("index.wal.checkpoint_ms", "ms", Lower),
    layer("serve.router.upsert_us", "us", Lower),
    layer("serve.server.upsert_hot_us", "us", Lower),
    layer("serve.server.index_memory_bytes", "bytes", Lower),
    // Wire ladder.
    layer("serve.json.parse_knn_us", "us", Lower),
    layer("serve.json.parse_reply_us", "us", Lower),
    layer("serve.json.knn_request_bytes", "bytes", Lower),
    layer("serve.json.knn_reply_bytes", "bytes", Lower),
    layer("serve.proto.frame_us", "us", Lower),
    layer("serve.proto.handle_knn_us", "us", Lower),
    layer("serve.net.rtt_ping_us", "us", Lower),
    layer("serve.net.rtt_knn_us", "us", Lower),
    layer("serve.net.self_us", "us", Lower),
    layer("serve.fleet.rtt_ping_us", "us", Lower),
    layer("serve.fleet.rtt_knn_us", "us", Lower),
    layer("serve.fleet.self_us", "us", Lower),
    layer("serve.fleet.partial_share", "share", Lower),
    layer("serve.server.unattributed_share", "share", Lower),
    // Generator and host.
    layer("client.knn_p90_us", "us", Lower),
    layer("client.knn_p99_us", "us", Lower),
    layer("client.knn_qps_best_quarter", "1/s", Higher),
    layer("client.knn_p50_us_best_quarter", "us", Lower),
    layer("client.upsert_qps", "1/s", Higher),
    layer("client.upsert_p50_us", "us", Lower),
    layer("client.upsert_p99_us", "us", Lower),
    layer("client.late_share", "share", Lower),
    layer("client.window_iqr_share", "share", Lower),
    layer("client.quiet_window_share", "share", Higher),
    layer("client.crash_retries", "count", Lower),
    layer("host.steal_share", "share", Lower),
    layer("host.slowdown", "ratio", Lower),
    layer("host.calib_mops", "1/us", Higher),
];

/// True for names made of `[A-Za-z0-9_.-]`, 1 to 64 characters, starting
/// with a letter or digit — what `BENCHMARK.json` accepts.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The sizes of one run. `full` is what `BENCHMARK.json` measures;
/// `smoke` is the under-a-minute variant behind `ladder all --smoke`.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    /// Database rows.
    pub rows: usize,
    /// Index shards (and downstream servers of the fleet).
    pub shards: usize,
    /// IVF cells per shard.
    pub nlist: usize,
    /// IVF cells probed per query.
    pub nprobe: usize,
    /// Neighbours asked for.
    pub k: usize,
    /// Distinct queries in the hot pool.
    pub hot: usize,
    /// Ids the upsert stream cycles through (the steady-state buffer).
    pub write_ids: usize,
    /// Distinct trajectories behind those ids.
    pub write_pool: usize,
    /// Set-ups per run; the measured time is split evenly across them.
    pub rounds: usize,
    /// Measured seconds per run when `--seconds` is not given.
    pub seconds: u64,
    /// Length of one measurement window in milliseconds: short, so that
    /// a burst of CPU steal spoils few of them (README, "Quiet windows").
    pub window_ms: u64,
    /// Open-loop request rate, per second.
    pub cold_rate: u64,
    /// Unmeasured requests per connection before each measured span.
    pub warmup_requests: usize,
    /// Measured seconds of the workload phase inside a traced run.
    pub trace_phase_seconds: u64,
    /// Calls per microsecond-scale rung of a traced run.
    pub rung_calls: usize,
    /// Calls per rung that costs about a millisecond a call (a forward
    /// pass, a scan of the big buffer, an fsync).
    pub slow_rung_calls: usize,
    /// Rows of the big-buffer write rungs (`*_buf32k`, `search_buffered`).
    pub big_buffer: usize,
}

impl Sizing {
    /// The sizes `BENCHMARK.json` runs.
    pub const fn full() -> Sizing {
        Sizing {
            rows: 2048,
            shards: 4,
            nlist: 32,
            nprobe: 8,
            k: 10,
            hot: 64,
            write_ids: 8192,
            write_pool: 64,
            rounds: 3,
            seconds: 21,
            window_ms: 250,
            cold_rate: 400,
            warmup_requests: 512,
            trace_phase_seconds: 3,
            rung_calls: 2000,
            slow_rung_calls: 500,
            big_buffer: 32_768,
        }
    }

    /// The sizes of `--smoke`.
    pub const fn smoke() -> Sizing {
        Sizing {
            rows: 512,
            shards: 4,
            nlist: 8,
            nprobe: 8,
            k: 10,
            hot: 64,
            write_ids: 1024,
            write_pool: 64,
            rounds: 1,
            seconds: 2,
            window_ms: 250,
            cold_rate: 400,
            warmup_requests: 128,
            trace_phase_seconds: 1,
            rung_calls: 200,
            slow_rung_calls: 64,
            big_buffer: 4096,
        }
    }

    /// Rounds actually run for `seconds` of measurement: every round
    /// must hold at least one window.
    pub fn rounds_for(&self, seconds: u64) -> usize {
        let windows = (seconds * 1000 / self.window_ms).max(1) as usize;
        self.rounds.clamp(1, windows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajcl_serve::json::{parse, Json};

    #[test]
    fn metric_name_validator() {
        for good in ["setup_s", "serve.net.rtt_knn_us", "a", "9lives", "x-y_z.0"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in ["", ".hidden", "_x", "has space", "µs", "a/b", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn declared_names_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert_eq!(
                m.bound.is_some(),
                END_TO_END.iter().any(|e| e.name == m.name)
            );
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
            assert!(seen.insert(w.name()));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.unwrap() <= setup.bound.unwrap() && m.bound.unwrap() <= 0.25));
    }

    fn str_field<'a>(obj: &'a Json, key: &str) -> &'a str {
        obj.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("missing {key}"))
    }

    #[test]
    fn declared_tables_match_benchmark_json() {
        let text = include_str!("../../../../../../BENCHMARK.json");
        let doc = parse(text).expect("BENCHMARK.json parses");
        let Json::Obj(top) = &doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(Sizing::full().seconds)
        );

        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (declared, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(str_field(declared, "name"), w.name());
            assert_eq!(str_field(declared, "why"), w.why());
        }
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = doc.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(declared.len(), table.len(), "{key}");
            for (d, m) in declared.iter().zip(table) {
                assert_eq!(str_field(d, "name"), m.name);
                assert_eq!(str_field(d, "unit"), m.unit, "{}", m.name);
                assert_eq!(str_field(d, "better"), m.better.as_str(), "{}", m.name);
                assert_eq!(d.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
            }
        }
    }
}
