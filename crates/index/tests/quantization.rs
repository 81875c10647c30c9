//! Quantization acceptance suite (f32 + SQ8 + PQ): the SQ8 scan's
//! distance bound against exact distances, and the recall@10 gates
//! against exact f32 brute force (SQ8 ≥ 0.95, PQ rescored ≥ 0.90).
//! Rescoring is the one path that does it,
//! [`IndexSnapshot::search_rescored`], over a sealed part built from the
//! table with ids `0..n` and a test-side rescorer reading that table.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trajcl_index::{
    brute_force_knn, ExactRescorer, IndexOptions, IvfIndex, Metric, MutableIndex, Quantization,
};
use trajcl_tensor::{Shape, Tensor};

/// Clustered table: rows scattered around `centers` Gaussian centers (the
/// geometry IVF is designed for).
fn mixture(n: usize, d: usize, centers: usize, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let c = Tensor::randn(Shape::d2(centers, d), 0.0, 1.0, &mut rng);
    let mut data = Tensor::randn(Shape::d2(n, d), 0.0, 0.2, &mut rng)
        .data()
        .to_vec();
    for i in 0..n {
        let row = c.row(rng.gen_range(0..centers));
        for j in 0..d {
            data[i * d + j] += row[j];
        }
    }
    Tensor::from_vec(data, Shape::d2(n, d))
}

fn opts(nlist: usize, quantization: Quantization, rescore_factor: usize) -> IndexOptions {
    IndexOptions {
        nlist: Some(nlist),
        quantization,
        rescore_factor,
        ..IndexOptions::default()
    }
}

/// Exact vectors by id for [`IndexSnapshot::search_rescored`]: id `i` is
/// row `i` of the table the index was sealed from.
struct TableRescorer<'a>(&'a Tensor);

impl ExactRescorer for TableRescorer<'_> {
    fn exact_vector(&self, id: u64) -> Option<&[f32]> {
        Some(self.0.row(id as usize))
    }
}

/// `emb` sealed as ids `0..n` under `opts(nlist, quantization, rescore)`
/// with k-means seed `seed`: the first seal trains with `seed` itself, so
/// its `IvfIndex` is the one `build_with` makes from `StdRng(seed)`.
fn sealed(
    emb: &Tensor,
    nlist: usize,
    quantization: Quantization,
    rescore: usize,
    seed: u64,
) -> MutableIndex {
    let ids = (0..emb.shape().rows() as u64).collect();
    let opts = IndexOptions {
        seed,
        ..opts(nlist, quantization, rescore)
    };
    MutableIndex::from_table_with(ids, emb, Metric::L1, opts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The SQ8 scan's distance contract: the query is quantized too, so a
    // scan distance deviates from exact by at most twice the codebook's
    // bound (`d · scale`, one half-step per dimension on each side). For
    // L1 that holds for ANY query: encoding clamps a query outside the
    // trained box, and the scan adds back the L1 distance the clamp cut
    // off (rows lie inside the box, so per dimension
    // `|q − x| = |q − clamp(q)| + |clamp(q) − x|`). Squared L2 has no
    // such constant, so its bound — `|√scan − √exact| ≤ √d · scale` — is
    // claimed for queries inside the box only. Queries are convex
    // combinations of table rows (inside), and for L1 the same query
    // shoved `shove` box-widths outward on every dimension.
    #[test]
    fn sq8_scan_stays_within_twice_the_codebook_bound_of_exact(
        n in 10usize..150,
        d in 2usize..24,
        nlist in 1usize..12,
        metric_l2 in 0u32..2,
        qa in 0.0f64..1.0,
        shove in 0.0f32..3.0,
        seed in 0u64..1000,
    ) {
        let metric = if metric_l2 == 1 { Metric::L2 } else { Metric::L1 };
        let emb = mixture(n, d, 8, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        let index = IvfIndex::build_with(&emb, metric, &opts(nlist, Quantization::Sq8, 4), &mut rng);
        let cb = index.codebook().expect("sq8 storage");
        let (r0, r1) = (emb.row(0), emb.row(n / 2));
        let inside: Vec<f32> = r0
            .iter()
            .zip(r1)
            .map(|(&a, &b)| (qa as f32) * a + (1.0 - qa as f32) * b)
            .collect();
        let width = 255.0 * cb.scale;
        let outside: Vec<f32> = inside
            .iter()
            .enumerate()
            .map(|(j, &v)| if j % 2 == 0 { v - shove * width } else { v + shove * width })
            .collect();
        let queries = match metric {
            Metric::L1 => vec![inside, outside],
            Metric::L2 => vec![inside],
        };
        for q in &queries {
            for (id, scanned) in index.search(q, n, index.nlist()) {
                let exact = metric.dist(q, emb.row(id as usize));
                let tol = 1e-4 * exact.max(1.0);
                match metric {
                    Metric::L1 => {
                        let bound = 2.0 * cb.l1_error_bound();
                        prop_assert!(
                            (scanned - exact).abs() <= bound + tol,
                            "row {}: scanned {} vs exact {} (bound {})", id, scanned, exact, bound
                        );
                    }
                    Metric::L2 => {
                        let bound = (d as f64).sqrt() * f64::from(cb.scale);
                        prop_assert!(
                            (scanned.sqrt() - exact.sqrt()).abs() <= bound + tol,
                            "row {}: √scanned {} vs √exact {} (bound {})",
                            id, scanned.sqrt(), exact.sqrt(), bound
                        );
                    }
                }
            }
        }
    }
}

/// Mean recall@k of a sealed index against exact brute force, with or
/// without rescoring against the table.
fn measured_recall(
    index: &MutableIndex,
    emb: &Tensor,
    nprobe: usize,
    k: usize,
    rescore: bool,
) -> f64 {
    let n = emb.shape().rows();
    let trials = 50;
    let snap = index.snapshot();
    let table = TableRescorer(emb);
    let mut recall_sum = 0.0;
    for t in 0..trials {
        let q = emb.row((t * (n / trials)) % n);
        let exact: Vec<u64> = brute_force_knn(emb, q, k, Metric::L1)
            .into_iter()
            .map(|(id, _)| u64::from(id))
            .collect();
        let rescorer = rescore.then_some(&table as &dyn ExactRescorer);
        let got = snap.search_rescored(q, k, nprobe, rescorer);
        let hits = got.iter().filter(|(id, _)| exact.contains(id)).count();
        recall_sum += hits as f64 / k as f64;
    }
    recall_sum / trials as f64
}

// The headline acceptance gate: IVF+SQ8 recall@10 >= 0.95 against exact
// f32 brute force on a seeded clustered table, at a partial probe.
#[test]
fn sq8_recall_gate_at_partial_probe() {
    let (n, d, nlist, nprobe, k) = (4000, 32, 32, 8, 10);
    let emb = mixture(n, d, 16, 77);
    let sq8 = sealed(&emb, nlist, Quantization::Sq8, 4, 78);

    let rescored = measured_recall(&sq8, &emb, nprobe, k, true);
    assert!(
        rescored >= 0.95,
        "IVF+SQ8 (rescored) recall@10 gate failed: {rescored:.4} < 0.95"
    );
    // The raw integer scan (no rescoring table) quantizes the query as
    // well as the rows, so its floor is the quantized one: measured 0.928
    // here, and the rescore above is what restores the 0.95 gate.
    let plain = measured_recall(&sq8, &emb, nprobe, k, false);
    assert!(
        plain >= 0.90,
        "IVF+SQ8 (no rescore) recall@10 gate failed: {plain:.4} < 0.90"
    );

    // And the f32 IVF control at the same probe: SQ8 must not trail it by
    // more than a whisker.
    let f32_index = sealed(&emb, nlist, Quantization::None, 4, 78);
    let control = measured_recall(&f32_index, &emb, nprobe, k, false);
    assert!(
        rescored >= control - 0.02,
        "quantization cost too much recall: sq8 {rescored:.4} vs f32 {control:.4}"
    );
}

// The PQ acceptance gate: IVF+PQ recall@10 >= 0.90 *after rescoring* on
// the same clustered geometry — 4-bit codes are far coarser than SQ8, so
// the deep (rescore_factor 32) over-fetch is what claws recall back.
#[test]
fn pq_recall_gate_at_partial_probe() {
    let (n, d, nlist, nprobe, k) = (4000, 32, 32, 8, 10);
    let emb = mixture(n, d, 16, 77);
    let pq = sealed(&emb, nlist, Quantization::Pq { m: 8 }, 32, 78);

    let rescored = measured_recall(&pq, &emb, nprobe, k, true);
    assert!(
        rescored >= 0.90,
        "IVF+PQ (rescored) recall@10 gate failed: {rescored:.4} < 0.90"
    );

    // And rescored PQ distances are exact (the whole point of the
    // over-fetch): every reported hit matches its brute-force distance.
    let q = emb.row(123);
    let hits = pq
        .snapshot()
        .search_rescored(q, k, nprobe, Some(&TableRescorer(&emb)));
    for (id, dist) in hits {
        assert_eq!(dist, Metric::L1.dist(q, emb.row(id as usize)));
    }
}

// Rescored distances are exact f32 distances: merged rankings (e.g. the
// mutable index's buffer merge) can compare them against unquantized
// candidates without bias.
#[test]
fn rescored_distances_equal_brute_force_distances() {
    let emb = mixture(600, 16, 8, 91);
    let sq8 = sealed(&emb, 8, Quantization::Sq8, 4, 92);
    let snap = sq8.snapshot();
    for qi in [3usize, 299, 599] {
        let q = emb.row(qi);
        let got = snap.search_rescored(q, 5, 8, Some(&TableRescorer(&emb)));
        for (id, dist) in got {
            let exact = Metric::L1.dist(q, emb.row(id as usize));
            assert_eq!(dist, exact, "id {id}: rescored distance not exact");
        }
    }
}

// On unclustered rows at a full probe, both quantizers rescore a
// self-query to exactly 0, first, and every hit to its exact distance.
#[test]
fn rescoring_returns_exact_distances_for_both_quantizers() {
    for (quantization, rescore, seed) in [
        (Quantization::Sq8, 4, 24),
        (Quantization::Pq { m: 3 }, 8, 54),
    ] {
        let mut rng = StdRng::seed_from_u64(seed);
        let emb = Tensor::randn(Shape::d2(300, 12), 0.0, 1.0, &mut rng);
        let index = sealed(&emb, 8, quantization, rescore, seed + 1);
        let q = emb.row(9);
        let hits = index
            .snapshot()
            .search_rescored(q, 5, 8, Some(&TableRescorer(&emb)));
        assert_eq!(hits[0], (9, 0.0), "{quantization:?}: self-query first");
        for (id, dist) in hits {
            assert_eq!(dist, Metric::L1.dist(q, emb.row(id as usize)));
        }
    }
}
