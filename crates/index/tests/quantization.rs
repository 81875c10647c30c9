//! Quantization acceptance suite (f32 + SQ8 + PQ): the `IVF5` section
//! contract — every storage serialises to the one layout and round-trips
//! bit-exactly (property-tested), retired magics are rejected — the SQ8
//! scan's distance bound against exact distances, and the recall@10
//! gates against exact f32 brute force (SQ8 ≥ 0.95, PQ rescored ≥ 0.90).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trajcl_index::{brute_force_knn, IndexOptions, IvfIndex, Metric, Quantization};
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

/// Every storage the builder can produce: f32, SQ8 and PQ with `m`
/// subspaces.
fn storage_grid(m: usize) -> [Quantization; 3] {
    [
        Quantization::None,
        Quantization::Sq8,
        Quantization::Pq { m },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The format contract: whatever the storage and metric, an index
    // serialises to the one `IVF5` section, survives `to_bytes` ->
    // `from_bytes` -> `to_bytes` BIT-EXACTLY (codebooks, trained error
    // bound, codes and rescore factor included), and the restored index
    // answers plain and rescored searches identically.
    #[test]
    fn every_storage_round_trips_bit_exactly_as_ivf5(
        n in 10usize..150,
        d in 2usize..24,
        m in 1usize..6,
        nlist in 1usize..12,
        rescore in 1usize..9,
        seed in 0u64..1000,
    ) {
        let emb = mixture(n, d, 8, seed);
        for metric in [Metric::L1, Metric::L2] {
            for quant in storage_grid(m) {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
                let index = IvfIndex::build_with(&emb, metric, &opts(nlist, quant, rescore), &mut rng);
                let bytes = index.to_bytes();
                prop_assert_eq!(&bytes[..4], b"IVF5", "{:?}", quant);
                let restored = IvfIndex::from_bytes(&bytes).expect("valid bytes must deserialize");
                prop_assert_eq!(restored.to_bytes(), &bytes[..], "round trip must be bit-exact");
                prop_assert_eq!(restored.len(), index.len());
                prop_assert_eq!(restored.nlist(), index.nlist());
                prop_assert_eq!(restored.rescore_factor(), rescore);
                // The effective geometry survives (m clamps to d at build
                // time, ksub to n), two codes per byte.
                prop_assert_eq!(restored.quantization(), index.quantization());
                let geometry =
                    |i: &IvfIndex| i.pq_codebook().map(|cb| (cb.m(), cb.ksub(), cb.code_stride()));
                prop_assert_eq!(geometry(&restored), geometry(&index));
                if let Some((m, ksub, stride)) = geometry(&restored) {
                    prop_assert_eq!((ksub, stride), (n.min(16), m.div_ceil(2)));
                }
                for qi in [0, n / 2, n - 1] {
                    prop_assert_eq!(
                        restored.search(emb.row(qi), 5, 3),
                        index.search(emb.row(qi), 5, 3),
                        "restored {:?} index diverged on query {}", quant, qi
                    );
                    prop_assert_eq!(
                        restored.search_rescored(emb.row(qi), 5, 3, Some(&emb)),
                        index.search_rescored(emb.row(qi), 5, 3, Some(&emb))
                    );
                }
                // The section is self-delimiting: a strict prefix and an
                // extension are both rejected.
                prop_assert!(IvfIndex::from_bytes(&bytes[..bytes.len() - 3]).is_none());
                let mut extended = bytes;
                extended.push(7);
                prop_assert!(IvfIndex::from_bytes(&extended).is_none());
            }
        }
    }

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

// The retired section layouts are gone: a faithful `IVF1` (f32: no scan
// byte, rescore factor or storage tag), `IVF2` (SQ8) or `IVF3` (PQ: the
// rescore factor kept, scan byte and tag absent) or `IVF4` (f32: a scan
// byte before the rescore factor) blob — and the current body under a
// retired magic — is rejected like any unknown magic.
#[test]
fn retired_section_magics_are_rejected() {
    let emb = mixture(60, 8, 4, 5);
    for (magic, quant) in [
        (b"IVF1", Quantization::None),
        (b"IVF2", Quantization::Sq8),
        (b"IVF3", Quantization::Pq { m: 2 }),
        (b"IVF4", Quantization::None),
    ] {
        let mut rng = StdRng::seed_from_u64(6);
        let current =
            IvfIndex::build_with(&emb, Metric::L1, &opts(4, quant, 4), &mut rng).to_bytes();
        assert!(IvfIndex::from_bytes(&current).is_some(), "sanity");
        // magic | metric n d nlist | rescore | tag | rest
        let (header, rescore, tag, rest) = (
            &current[4..17],
            &current[17..21],
            &current[21..22],
            &current[22..],
        );
        let mut legacy = magic.to_vec();
        legacy.extend_from_slice(header);
        match magic {
            b"IVF1" => {}
            b"IVF4" => {
                legacy.push(0); // scan: asymmetric
                legacy.extend_from_slice(rescore);
                legacy.extend_from_slice(tag);
            }
            _ => legacy.extend_from_slice(rescore),
        }
        legacy.extend_from_slice(rest);
        assert!(IvfIndex::from_bytes(&legacy).is_none(), "{quant:?} legacy");
        let mut relabelled = current;
        relabelled[..4].copy_from_slice(magic);
        assert!(IvfIndex::from_bytes(&relabelled).is_none(), "{quant:?}");
    }
}

/// Mean recall@k of an index configuration against exact brute force.
fn measured_recall(index: &IvfIndex, emb: &Tensor, nprobe: usize, k: usize, rescore: bool) -> f64 {
    let n = emb.shape().rows();
    let trials = 50;
    let mut recall_sum = 0.0;
    for t in 0..trials {
        let q = emb.row((t * (n / trials)) % n);
        let exact: Vec<u32> = brute_force_knn(emb, q, k, Metric::L1)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        let table = rescore.then_some(emb);
        let got = index.search_rescored(q, k, nprobe, table);
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
    let mut rng = StdRng::seed_from_u64(78);
    let sq8 = IvfIndex::build_with(
        &emb,
        Metric::L1,
        &opts(nlist, Quantization::Sq8, 4),
        &mut rng,
    );

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
    let mut rng = StdRng::seed_from_u64(78);
    let f32_index = IvfIndex::build(&emb, nlist, Metric::L1, &mut rng);
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
    let mut rng = StdRng::seed_from_u64(78);
    let o = opts(nlist, Quantization::Pq { m: 8 }, 32);
    let pq = IvfIndex::build_with(&emb, Metric::L1, &o, &mut rng);

    let rescored = measured_recall(&pq, &emb, nprobe, k, true);
    assert!(
        rescored >= 0.90,
        "IVF+PQ (rescored) recall@10 gate failed: {rescored:.4} < 0.90"
    );

    // And rescored PQ distances are exact (the whole point of the
    // over-fetch): every reported hit matches its brute-force distance.
    let q = emb.row(123);
    for (id, dist) in pq.search_rescored(q, k, nprobe, Some(&emb)) {
        assert_eq!(dist, Metric::L1.dist(q, emb.row(id as usize)));
    }
}

// Rescored distances are exact f32 distances: merged rankings (e.g. the
// mutable index's buffer merge) can compare them against unquantized
// candidates without bias.
#[test]
fn rescored_distances_equal_brute_force_distances() {
    let emb = mixture(600, 16, 8, 91);
    let mut rng = StdRng::seed_from_u64(92);
    let sq8 = IvfIndex::build_with(&emb, Metric::L1, &opts(8, Quantization::Sq8, 4), &mut rng);
    for qi in [3usize, 299, 599] {
        let q = emb.row(qi);
        let got = sq8.search_rescored(q, 5, 8, Some(&emb));
        for (id, dist) in got {
            let exact = Metric::L1.dist(q, emb.row(id as usize));
            assert_eq!(dist, exact, "id {id}: rescored distance not exact");
        }
    }
}
