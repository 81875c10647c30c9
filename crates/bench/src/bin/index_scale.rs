//! Million-scale kNN benchmark: exact brute force vs IVF vs IVF+SQ8 vs
//! IVF+PQ over synthetic embedding tables. Every other timing in the
//! repo is the ladder's (`crates/bench/src/bin/ladder/`); this bin stays
//! because its quantized-vs-exact floors at 20k–100k rows have no rung
//! there yet.
//!
//! The table is a Gaussian-mixture synthetic (clustered, like real
//! trajectory embeddings) of `--n` rows × `--dim` dimensions; queries are
//! perturbed database rows. Four contenders answer the same k=10 batch:
//!
//! * `exact` — `brute_force_batch_knn` over the f32 table (ground truth);
//! * `ivf` — f32-storage `IvfIndex`, `nprobe` of `nlist` cells;
//! * `sq8` — SQ8-quantized `IvfIndex` (1 byte/dim): the query is quantized
//!   too and lists are scanned with the runtime-dispatched integer SAD
//!   kernels (AVX-512/AVX2/scalar), plus exact rescoring of the top
//!   `rescore_factor · k` candidates against the f32 table (what a
//!   server's `IndexSnapshot::search_rescored` does);
//! * `pq` — PQ-quantized `IvfIndex` (`d/4` subspaces of 4-bit codes, two
//!   per byte ⇒ an eighth of a byte per dimension, 16-entry LUTs), ADC
//!   lookup-table scan plus exact rescoring with a deep (128×) over-fetch
//!   to claim the coarse codes' recall back.
//!
//! Every JSON record also captures the dispatch decision (`cpu`) and
//! whether `TRAJCL_FORCE_SCALAR` pinned the portable kernels, so rows
//! from different machines stay comparable.
//!
//! Usage:
//!   index_scale [--quick] [--n N] [--dim D] [--check]
//!
//! * default: measure and print the run's JSON record to stdout;
//! * `--check`: measure and gate on ABSOLUTE floors — recall@10 ≥ 0.95
//!   for IVF and ≥ 0.90 for IVF+SQ8 and IVF+PQ (both rescored), SQ8
//!   memory ≤ 32% and PQ memory ≤ 6% of the f32 index, quantized-vs-exact
//!   qps ratio ≥ 2× (quick) / 4× (full) for SQ8 and ≥ 1× for PQ. Absolute
//!   rather than baseline-relative because the ratios depend on the run's
//!   own `n`/`nlist` geometry, which both sides of each ratio share.
//!   No record is printed.
//!
//! Scales to 1M rows (`--n 1000000`); DESIGN.md §12.4 quotes a 100k full
//! run.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trajcl_index::kernels::dispatch;
use trajcl_index::{brute_force_batch_knn, IndexOptions, IvfIndex, Metric, Quantization, TopK};
use trajcl_tensor::{pool, Shape, Tensor};

const K: usize = 10;
const CLUSTERS: usize = 64;
/// Floors for `--check` (quick, full).
const MIN_RECALL: f64 = 0.95;
const MIN_SQ8_SPEEDUP_QUICK: f64 = 2.0;
const MIN_SQ8_SPEEDUP_FULL: f64 = 4.0;
const MAX_MEM_RATIO: f64 = 0.32;
/// Quantized-recall floor: the one SQ8 scale is coarse on narrow
/// dimensions and 16-entry PQ codebooks rank within-cluster neighbours
/// coarsely; the exact rescore claims the recall back to this floor.
const MIN_QUANT_RECALL: f64 = 0.90;
/// PQ floors: under 6% of the f32 footprint, and at least as fast as
/// exact brute force.
const MIN_PQ_SPEEDUP: f64 = 1.0;
const MAX_PQ_MEM_RATIO: f64 = 0.06;
/// PQ geometry: 4 dims per subspace (m = d/4) and a 128× rescore
/// over-fetch. PQ codes are coarse enough that within-cluster ADC order
/// is noisy; at 100k a cluster holds ~1.5k rows, so recall needs both the
/// finer subspaces AND about a thousand exact re-ranks per query — which
/// stay cheap next to the scan.
const PQ_DIMS_PER_SUBSPACE: usize = 4;
const PQ_RESCORE_FACTOR: usize = 128;

/// Clustered synthetic table: `n` rows scattered around `CLUSTERS`
/// Gaussian centers (IVF behaves like it does on real embeddings, not on
/// uniform noise).
fn mixture_table(n: usize, d: usize, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let centers = Tensor::randn(Shape::d2(CLUSTERS, d), 0.0, 1.0, &mut rng);
    let noise = Tensor::randn(Shape::d2(n, d), 0.0, 0.25, &mut rng);
    let mut data = noise.data().to_vec();
    for i in 0..n {
        let c = centers.row(rng.gen_range(0..CLUSTERS));
        for j in 0..d {
            data[i * d + j] += c[j];
        }
    }
    Tensor::from_vec(data, Shape::d2(n, d))
}

/// Queries: perturbed copies of evenly-spaced database rows.
fn queries_from(table: &Tensor, q: usize, seed: u64) -> Tensor {
    let n = table.shape().rows();
    let d = table.shape().last();
    let noise = Tensor::randn(Shape::d2(q, d), 0.0, 0.05, &mut StdRng::seed_from_u64(seed));
    let mut data = noise.data().to_vec();
    for i in 0..q {
        let row = table.row((i * (n / q).max(1)) % n);
        for j in 0..d {
            data[i * d + j] += row[j];
        }
    }
    Tensor::from_vec(data, Shape::d2(q, d))
}

/// Mean recall@k of `got` against the exact ground truth.
fn recall_at_k(got: &[Vec<(u32, f64)>], truth: &[Vec<(u32, f64)>], k: usize) -> f64 {
    let mut sum = 0.0;
    for (g, t) in got.iter().zip(truth) {
        let t_ids: Vec<u32> = t.iter().map(|(id, _)| *id).collect();
        let hits = g.iter().filter(|(id, _)| t_ids.contains(id)).count();
        sum += hits as f64 / k.min(t.len()).max(1) as f64;
    }
    sum / got.len().max(1) as f64
}

/// A quantized index's answer as a rescoring caller serves it: the top
/// `rescore_factor · K` candidates by quantized distance, re-ranked by
/// exact distance against `table` (in candidate order, through the same
/// fused top-k), `K` kept per query.
fn rescored_search(
    index: &IvfIndex,
    table: &Tensor,
    queries: &Tensor,
    nprobe: usize,
) -> Vec<Vec<(u32, f64)>> {
    let mut out = index.batch_search(queries, K * index.rescore_factor(), nprobe);
    let per = pool::rows_per_lane(out.len());
    pool::par_chunks_mut(&mut out, per, |c, chunk| {
        let mut topk = TopK::new(K);
        for (i, hits) in chunk.iter_mut().enumerate() {
            let query = queries.row(c * per + i);
            topk.reset(K);
            for &(id, _) in hits.iter() {
                topk.offer(id, Metric::L1.dist(query, table.row(id as usize)));
            }
            topk.drain_sorted_into(hits);
        }
    });
    out
}

/// Times `f` (one warmup call, one measured call), returning
/// `(result, qps over `q` queries)`.
fn timed<T>(q: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    std::hint::black_box(f());
    let t0 = Instant::now();
    let out = f();
    (out, q as f64 / t0.elapsed().as_secs_f64())
}

struct Run {
    n: usize,
    d: usize,
    nlist: usize,
    nprobe: usize,
    exact_qps: f64,
    ivf_qps: f64,
    ivf_recall: f64,
    sq8_qps: f64,
    sq8_recall: f64,
    pq_m: usize,
    pq_qps: f64,
    pq_recall: f64,
    f32_bytes: usize,
    sq8_bytes: usize,
    pq_bytes: usize,
}

impl Run {
    fn speedup_ivf(&self) -> f64 {
        self.ivf_qps / self.exact_qps
    }

    fn speedup_sq8(&self) -> f64 {
        self.sq8_qps / self.exact_qps
    }

    fn speedup_pq(&self) -> f64 {
        self.pq_qps / self.exact_qps
    }

    fn mem_ratio(&self) -> f64 {
        self.sq8_bytes as f64 / self.f32_bytes as f64
    }

    fn pq_mem_ratio(&self) -> f64 {
        self.pq_bytes as f64 / self.f32_bytes as f64
    }

    fn to_json(&self, quick: bool) -> String {
        format!(
            "{{\"quick\":{quick},\"cpu\":\"{}\",\"force_scalar\":{},\
\"n\":{},\"d\":{},\"nlist\":{},\"nprobe\":{},\"k\":{K},\
\"exact_qps\":{:.1},\"ivf_qps\":{:.1},\"sq8_qps\":{:.1},\"pq_qps\":{:.1},\
\"ivf_recall10\":{:.4},\"sq8_recall10\":{:.4},\"pq_recall10\":{:.4},\"pq_m\":{},\
\"f32_index_bytes\":{},\"sq8_index_bytes\":{},\"pq_index_bytes\":{},\"table_bytes\":{},\
\"speedup_ivf\":{:.2},\"speedup_sq8\":{:.2},\"speedup_pq\":{:.2},\
\"mem_ratio\":{:.3},\"pq_mem_ratio\":{:.3}}}",
            dispatch::description(),
            dispatch::forced_scalar(),
            self.n,
            self.d,
            self.nlist,
            self.nprobe,
            self.exact_qps,
            self.ivf_qps,
            self.sq8_qps,
            self.pq_qps,
            self.ivf_recall,
            self.sq8_recall,
            self.pq_recall,
            self.pq_m,
            self.f32_bytes,
            self.sq8_bytes,
            self.pq_bytes,
            self.n * self.d * 4,
            self.speedup_ivf(),
            self.speedup_sq8(),
            self.speedup_pq(),
            self.mem_ratio(),
            self.pq_mem_ratio(),
        )
    }
}

fn measure(n: usize, d: usize, nlist: usize, nprobe: usize, nq: usize) -> Run {
    eprintln!("building {n} x {d} mixture table ({nlist} cells, nprobe {nprobe}, {nq} queries)");
    let table = mixture_table(n, d, 42);
    let queries = queries_from(&table, nq, 43);

    let (truth, exact_qps) = timed(nq, || {
        brute_force_batch_knn(&table, &queries, K, Metric::L1)
    });
    eprintln!("exact    {exact_qps:>9.1} qps  (ground truth)");

    let t0 = Instant::now();
    let ivf = IvfIndex::build(&table, nlist, Metric::L1, &mut StdRng::seed_from_u64(7));
    let ivf_build_s = t0.elapsed().as_secs_f64();
    let (ivf_hits, ivf_qps) = timed(nq, || ivf.batch_search(&queries, K, nprobe));
    let ivf_recall = recall_at_k(&ivf_hits, &truth, K);
    eprintln!(
        "ivf      {ivf_qps:>9.1} qps  recall@10 {ivf_recall:.4}  ({:.1} MB, built in {ivf_build_s:.1}s)",
        ivf.memory_bytes() as f64 / 1e6
    );

    // Every quantized cell: same cells, same seed, one field varied.
    let quantized = |quantization, rescore_factor| {
        let opts = IndexOptions {
            nlist: Some(nlist),
            quantization,
            rescore_factor,
            ..IndexOptions::default()
        };
        IvfIndex::build_with(&table, Metric::L1, &opts, &mut StdRng::seed_from_u64(7))
    };

    let t0 = Instant::now();
    let sq8 = quantized(Quantization::Sq8, 4);
    let sq8_build_s = t0.elapsed().as_secs_f64();
    let (sq8_hits, sq8_qps) = timed(nq, || rescored_search(&sq8, &table, &queries, nprobe));
    let sq8_recall = recall_at_k(&sq8_hits, &truth, K);
    eprintln!(
        "ivf+sq8  {sq8_qps:>9.1} qps  recall@10 {sq8_recall:.4}  ({:.1} MB, built in {sq8_build_s:.1}s, {} kernels)",
        sq8.memory_bytes() as f64 / 1e6,
        dispatch::description()
    );

    let pq_m = (d / PQ_DIMS_PER_SUBSPACE).max(1);
    let t0 = Instant::now();
    let pq = quantized(Quantization::Pq { m: pq_m }, PQ_RESCORE_FACTOR);
    let pq_build_s = t0.elapsed().as_secs_f64();
    let (pq_hits, pq_qps) = timed(nq, || rescored_search(&pq, &table, &queries, nprobe));
    let pq_recall = recall_at_k(&pq_hits, &truth, K);
    eprintln!(
        "ivf+pq   {pq_qps:>9.1} qps  recall@10 {pq_recall:.4}  ({:.1} MB, m={pq_m}, built in {pq_build_s:.1}s)",
        pq.memory_bytes() as f64 / 1e6
    );

    Run {
        n,
        d,
        nlist,
        nprobe,
        exact_qps,
        ivf_qps,
        ivf_recall,
        sq8_qps,
        sq8_recall,
        pq_m,
        pq_qps,
        pq_recall,
        f32_bytes: ivf.memory_bytes(),
        sq8_bytes: sq8.memory_bytes(),
        pq_bytes: pq.memory_bytes(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut check = false;
    let mut n: Option<usize> = None;
    let mut d: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            "--n" => {
                i += 1;
                n = Some(args[i].parse().expect("--n N"));
            }
            "--dim" => {
                i += 1;
                d = Some(args[i].parse().expect("--dim D"));
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let (n, d, nlist, nprobe, nq) = if quick {
        // Quick mode keeps the full run's d=64 geometry so the PQ memory
        // ceiling (codebook cost amortizes over dimensions) and recall
        // floors gate the same configuration CI ships.
        (n.unwrap_or(20_000), d.unwrap_or(64), 128, 8, 64)
    } else {
        let n = n.unwrap_or(100_000);
        // nlist ~ sqrt(n), power-of-two-ish, with enough cells that
        // nprobe/nlist stays a small probed fraction at any scale.
        let nlist = ((n as f64).sqrt() as usize).next_power_of_two().max(64);
        (n, d.unwrap_or(64), nlist, 16, 200)
    };
    let run = measure(n, d, nlist, nprobe, nq);

    if check {
        let min_speedup = if quick {
            MIN_SQ8_SPEEDUP_QUICK
        } else {
            MIN_SQ8_SPEEDUP_FULL
        };
        let gates = [
            ("ivf_recall10", run.ivf_recall, MIN_RECALL, true),
            ("sq8_recall10", run.sq8_recall, MIN_QUANT_RECALL, true),
            ("pq_recall10", run.pq_recall, MIN_QUANT_RECALL, true),
            ("speedup_sq8", run.speedup_sq8(), min_speedup, true),
            ("speedup_pq", run.speedup_pq(), MIN_PQ_SPEEDUP, true),
            ("mem_ratio", run.mem_ratio(), MAX_MEM_RATIO, false),
            ("pq_mem_ratio", run.pq_mem_ratio(), MAX_PQ_MEM_RATIO, false),
        ];
        let mut failed = false;
        for (key, measured, bound, at_least) in gates {
            let ok = if at_least {
                measured >= bound
            } else {
                measured <= bound
            };
            eprintln!(
                "check {key}: {measured:.3} ({} {bound:.3}) {}",
                if at_least { "floor" } else { "ceiling" },
                if ok { "ok" } else { "FAIL" }
            );
            failed |= !ok;
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("OK: index-scale gates passed");
    } else {
        println!("{}", run.to_json(quick));
    }
}
