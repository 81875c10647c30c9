//! Quantization acceptance suite (f32 + SQ8 + PQ): the `IVF4` section
//! contract — every storage × scan configuration serialises to the one
//! layout and round-trips bit-exactly (property-tested), retired magics
//! are rejected — and the recall@10 gates against exact f32 brute force
//! (SQ8 ≥ 0.95, PQ rescored ≥ 0.90).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trajcl_index::{brute_force_knn, IndexOptions, IvfIndex, Metric, Quantization, ScanMode};
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

fn opts(
    nlist: usize,
    quantization: Quantization,
    rescore_factor: usize,
    scan: ScanMode,
) -> IndexOptions {
    IndexOptions {
        nlist: Some(nlist),
        quantization,
        rescore_factor,
        scan,
        ..IndexOptions::default()
    }
}

/// Every storage × scan configuration the builder can produce: f32, SQ8
/// under either scan kernel, PQ nibble-packed (`packed_bits ≤ 4`) and PQ
/// one byte per code (`wide_bits > 4`).
fn storage_grid(m: usize, packed_bits: u8, wide_bits: u8) -> [(Quantization, ScanMode); 5] {
    [
        (Quantization::None, ScanMode::Asymmetric),
        (Quantization::Sq8, ScanMode::Asymmetric),
        (Quantization::Sq8, ScanMode::Symmetric),
        (
            Quantization::Pq {
                m,
                nbits: packed_bits,
            },
            ScanMode::Asymmetric,
        ),
        (
            Quantization::Pq {
                m,
                nbits: wide_bits,
            },
            ScanMode::Asymmetric,
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The format contract: whatever the storage, scan kernel and metric,
    // an index serialises to the one `IVF4` section, survives `to_bytes`
    // -> `from_bytes` -> `to_bytes` BIT-EXACTLY (codebooks, trained error
    // bound, codes, scan mode and rescore factor included), and the
    // restored index answers plain and rescored searches identically.
    #[test]
    fn every_storage_round_trips_bit_exactly_as_ivf4(
        n in 10usize..150,
        d in 2usize..24,
        m in 1usize..6,
        packed_bits in 1u8..5,
        wide_bits in 5u8..9,
        nlist in 1usize..12,
        rescore in 1usize..9,
        seed in 0u64..1000,
    ) {
        let emb = mixture(n, d, 8, seed);
        for metric in [Metric::L1, Metric::L2] {
            for (quant, scan) in storage_grid(m, packed_bits, wide_bits) {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
                let index =
                    IvfIndex::build_with(&emb, metric, &opts(nlist, quant, rescore, scan), &mut rng);
                let bytes = index.to_bytes();
                prop_assert_eq!(&bytes[..4], b"IVF4", "{:?} {:?}", quant, scan);
                let restored = IvfIndex::from_bytes(&bytes).expect("valid bytes must deserialize");
                prop_assert_eq!(restored.to_bytes(), &bytes[..], "round trip must be bit-exact");
                prop_assert_eq!(restored.len(), index.len());
                prop_assert_eq!(restored.nlist(), index.nlist());
                prop_assert_eq!(restored.rescore_factor(), rescore);
                prop_assert_eq!(restored.scan_mode(), scan);
                // The effective geometry survives (m clamps to d at build
                // time); rows pack two codes per byte exactly when they fit.
                prop_assert_eq!(restored.quantization(), index.quantization());
                let geometry = |i: &IvfIndex| {
                    i.pq_codebook().map(|cb| (cb.m(), cb.nbits(), cb.ksub(), cb.packed()))
                };
                prop_assert_eq!(geometry(&restored), geometry(&index));
                if let Some((_, nbits, _, packed)) = geometry(&restored) {
                    prop_assert_eq!(packed, nbits <= 4);
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

    // The symmetric-scan acceptance property: integer (code × code)
    // distances must stay within the derived codebook error bound of the
    // asymmetric ones. sym = L1(decode(enc(q)), decode(codes)) and
    // asym = L1(q, decode(codes)) differ by at most L1(q, decode(enc(q)))
    // ≤ Σ_j scale_j / 2 (the triangle inequality), provided q lies inside
    // the trained box — so queries are drawn as convex combinations of
    // table rows.
    #[test]
    fn symmetric_distances_stay_within_codebook_bound_of_asymmetric(
        n in 10usize..150,
        d in 2usize..24,
        nlist in 1usize..12,
        metric_l2 in 0u32..2,
        qa in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let metric = if metric_l2 == 1 { Metric::L2 } else { Metric::L1 };
        let emb = mixture(n, d, 8, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        let sym = IvfIndex::build_with(
            &emb, metric, &opts(nlist, Quantization::Sq8, 4, ScanMode::Symmetric), &mut rng,
        );
        let cb = sym.codebook().expect("sq8 storage");
        let scale = cb.uniform_scale().expect("symmetric build trains uniform");
        // In-box query: a convex combination of two table rows.
        let (r0, r1) = (emb.row(0), emb.row(n / 2));
        let q: Vec<f32> = r0
            .iter()
            .zip(r1)
            .map(|(&a, &b)| (qa as f32) * a + (1.0 - qa as f32) * b)
            .collect();
        // Compare the two kernels row by row over the same codebook.
        let mut qcodes = Vec::new();
        cb.encode_into(&q, &mut qcodes);
        let mut codes_row = Vec::new();
        let half = 0.5f64 * scale as f64;
        for i in 0..n {
            codes_row.clear();
            cb.encode_into(emb.row(i), &mut codes_row);
            let sym_d = trajcl_index::kernels::sq8_sym_dist(metric, &qcodes, &codes_row, scale);
            let asym_d = trajcl_index::kernels::sq8_dist(metric, &q, &codes_row, cb);
            match metric {
                Metric::L1 => {
                    // |sym - asym| ≤ Σ_j |q_j - dec(enc(q))_j| ≤ d · scale/2.
                    let bound = d as f64 * half + 1e-4;
                    prop_assert!(
                        (sym_d - asym_d).abs() <= bound,
                        "row {}: sym {} vs asym {} (bound {})", i, sym_d, asym_d, bound
                    );
                }
                Metric::L2 => {
                    // √sym and √asym are Euclidean norms differing by the
                    // norm of the encode error: |√sym - √asym| ≤ √(d)·scale/2.
                    let bound = (d as f64).sqrt() * half + 1e-4;
                    prop_assert!(
                        (sym_d.sqrt() - asym_d.sqrt()).abs() <= bound,
                        "row {}: √sym {} vs √asym {} (bound {})",
                        i, sym_d.sqrt(), asym_d.sqrt(), bound
                    );
                }
            }
        }
    }
}

// The retired section layouts are gone: a faithful `IVF1` (f32: no scan
// byte, rescore factor or storage tag), `IVF2` (SQ8) or `IVF3` (PQ: the
// rescore factor kept, scan byte and tag absent) blob — and the current
// body under a retired magic — is rejected like any unknown magic.
#[test]
fn retired_section_magics_are_rejected() {
    let emb = mixture(60, 8, 4, 5);
    for (magic, quant) in [
        (b"IVF1", Quantization::None),
        (b"IVF2", Quantization::Sq8),
        (b"IVF3", Quantization::Pq { m: 2, nbits: 8 }),
    ] {
        let mut rng = StdRng::seed_from_u64(6);
        let o = opts(4, quant, 4, ScanMode::Asymmetric);
        let current = IvfIndex::build_with(&emb, Metric::L1, &o, &mut rng).to_bytes();
        assert!(IvfIndex::from_bytes(&current).is_some(), "sanity");
        // magic | metric n d nlist | scan | rescore | tag | rest
        let (header, rescore, rest) = (&current[4..17], &current[18..22], &current[23..]);
        let mut legacy = magic.to_vec();
        legacy.extend_from_slice(header);
        if quant != Quantization::None {
            legacy.extend_from_slice(rescore);
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
    let o = opts(nlist, Quantization::Sq8, 4, ScanMode::Asymmetric);
    let sq8 = IvfIndex::build_with(&emb, Metric::L1, &o, &mut rng);

    let rescored = measured_recall(&sq8, &emb, nprobe, k, true);
    assert!(
        rescored >= 0.95,
        "IVF+SQ8 (rescored) recall@10 gate failed: {rescored:.4} < 0.95"
    );
    // Even the raw asymmetric scan (no rescoring table) must clear the
    // gate — rescoring sharpens distances, not recall floors.
    let plain = measured_recall(&sq8, &emb, nprobe, k, false);
    assert!(
        plain >= 0.95,
        "IVF+SQ8 (no rescore) recall@10 gate failed: {plain:.4} < 0.95"
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
// the same clustered geometry — m-byte codes are far coarser than SQ8,
// so the deep (rescore_factor 32) over-fetch is what claws recall back.
#[test]
fn pq_recall_gate_at_partial_probe() {
    let (n, d, nlist, nprobe, k) = (4000, 32, 32, 8, 10);
    let emb = mixture(n, d, 16, 77);
    let mut rng = StdRng::seed_from_u64(78);
    let o = opts(
        nlist,
        Quantization::Pq { m: 4, nbits: 8 },
        32,
        ScanMode::Asymmetric,
    );
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

// The symmetric-scan acceptance gate: quantizing the query too must not
// drop rescored recall@10 below 0.90 (in practice it matches asymmetric
// almost exactly — the rescore absorbs the extra half-step of error).
#[test]
fn symmetric_recall_gate_at_partial_probe() {
    let (n, d, nlist, nprobe, k) = (4000, 32, 32, 8, 10);
    let emb = mixture(n, d, 16, 77);
    let mut rng = StdRng::seed_from_u64(78);
    let o = opts(nlist, Quantization::Sq8, 4, ScanMode::Symmetric);
    let sym = IvfIndex::build_with(&emb, Metric::L1, &o, &mut rng);
    let rescored = measured_recall(&sym, &emb, nprobe, k, true);
    assert!(
        rescored >= 0.90,
        "IVF+SQ8 symmetric (rescored) recall@10 gate failed: {rescored:.4} < 0.90"
    );
}

// The pq4 acceptance gate: nibble-packed 4-bit codes with a deep
// over-fetch must still clear rescored recall@10 >= 0.90.
#[test]
fn pq4_recall_gate_at_partial_probe() {
    let (n, d, nlist, nprobe, k) = (4000, 32, 32, 8, 10);
    let emb = mixture(n, d, 16, 77);
    let mut rng = StdRng::seed_from_u64(78);
    let o = opts(
        nlist,
        Quantization::Pq { m: 8, nbits: 4 },
        32,
        ScanMode::Asymmetric,
    );
    let pq4 = IvfIndex::build_with(&emb, Metric::L1, &o, &mut rng);
    assert!(pq4.pq_codebook().expect("pq").packed());
    let rescored = measured_recall(&pq4, &emb, nprobe, k, true);
    assert!(
        rescored >= 0.90,
        "IVF+PQ4 (rescored) recall@10 gate failed: {rescored:.4} < 0.90"
    );
}

// Rescored distances are exact f32 distances: merged rankings (e.g. the
// mutable index's buffer merge) can compare them against unquantized
// candidates without bias.
#[test]
fn rescored_distances_equal_brute_force_distances() {
    let emb = mixture(600, 16, 8, 91);
    let mut rng = StdRng::seed_from_u64(92);
    let o = opts(8, Quantization::Sq8, 4, ScanMode::Asymmetric);
    let sq8 = IvfIndex::build_with(&emb, Metric::L1, &o, &mut rng);
    for qi in [3usize, 299, 599] {
        let q = emb.row(qi);
        let got = sq8.search_rescored(q, 5, 8, Some(&emb));
        for (id, dist) in got {
            let exact = Metric::L1.dist(q, emb.row(id as usize));
            assert_eq!(dist, exact, "id {id}: rescored distance not exact");
        }
    }
}
