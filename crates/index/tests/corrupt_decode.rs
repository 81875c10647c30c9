//! Property tests for decoder robustness: arbitrarily corrupted f32, SQ8
//! and PQ `IVF5` blobs must either be rejected (`None`) or decode
//! to an index that answers a search and reads every row back — never
//! panic, never index out of bounds, never serve a row twice. This is the checked-in distillation of the `trajcl audit`
//! fuzzer's IVF target (which runs ~100k mutations per CI run); these
//! cases replay the attack shapes deterministically under `cargo test`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use trajcl_index::{IndexOptions, IvfIndex, Metric, Quantization};
use trajcl_tensor::{Shape, Tensor};

/// The three storages, by index: f32, SQ8, and PQ with an odd `m` (so a
/// stray trailing nibble is one of the corruptions in reach).
const STORAGES: [Quantization; 3] = [
    Quantization::None,
    Quantization::Sq8,
    Quantization::Pq { m: 3 },
];

/// A valid blob to corrupt (geometry varies with the seed).
fn valid_blob(quant: Quantization, n: usize, d: usize, nlist: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let emb = Tensor::randn(Shape::d2(n, d), 0.0, 1.0, &mut rng);
    let opts = IndexOptions {
        nlist: Some(nlist),
        quantization: quant,
        ..IndexOptions::default()
    };
    IvfIndex::build_with(&emb, Metric::L1, &opts, &mut rng).to_bytes()
}

/// The decode-or-reject contract: whatever `from_bytes` accepts must be
/// searchable end to end, serve every row exactly once under a full
/// probe, and read every row back (the compaction path).
fn assert_decode_contract(bytes: &[u8]) {
    if let Some(idx) = IvfIndex::from_bytes(bytes) {
        let query = vec![0.5f32; idx.dim()];
        let hits = idx.search(&query, 3, 2);
        assert!(hits.len() <= idx.len());
        let mut ids: Vec<u32> = idx
            .search(&query, idx.len(), idx.nlist())
            .iter()
            .map(|&(id, _)| id)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), idx.len(), "full probe must return distinct ids");
        let mut row = Vec::new();
        for id in 0..idx.len() as u32 {
            row.clear();
            idx.decode_vector_into(id, &mut row);
            assert_eq!(row.len(), idx.dim());
        }
    }
}

/// Inverted lists must be a permutation of the positions: a section whose
/// one list reads `[0, 0, 2, 3]` used to decode and serve row 0 twice and
/// row 1 never.
#[test]
fn duplicate_list_ids_are_rejected() {
    let mut rng = StdRng::seed_from_u64(7);
    let emb = Tensor::randn(Shape::d2(4, 2), 0.0, 1.0, &mut rng);
    let index = IvfIndex::build_with(&emb, Metric::L1, &IndexOptions::default(), &mut rng);
    let mut blob = index.to_bytes();
    // 22 header bytes, one 2-d centroid, the list length, then the ids.
    let ids_at = 22 + 2 * 4 + 4;
    assert_eq!(
        blob[ids_at..ids_at + 16],
        [0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0]
    );
    blob[ids_at + 4] = 0;
    assert_decode_contract(&blob);
    assert!(IvfIndex::from_bytes(&blob).is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Truncation at every kind of boundary: header, centroid table,
    // inverted lists, codebook, code matrix.
    #[test]
    fn truncated_blobs_never_panic(
        cut_frac in 0.0f64..1.0,
        storage in 0usize..3,
        seed in 0u64..500,
    ) {
        let blob = valid_blob(STORAGES[storage], 48, 8, 4, seed);
        let cut = ((blob.len() as f64) * cut_frac) as usize;
        let truncated = &blob[..cut.min(blob.len())];
        // A strict prefix can never be a valid blob (the trailing-bytes
        // check makes encodings self-delimiting), so anything short of
        // the full length must be rejected outright.
        if truncated.len() < blob.len() {
            prop_assert!(IvfIndex::from_bytes(truncated).is_none());
        } else {
            assert_decode_contract(truncated);
        }
    }

    // Random byte corruption anywhere in the blob.
    #[test]
    fn bitflipped_blobs_decode_or_reject(
        flips in prop::collection::vec((0usize..4096, 0u32..8), 1..8),
        storage in 0usize..3,
        seed in 0u64..500,
    ) {
        let mut blob = valid_blob(STORAGES[storage], 40, 8, 3, seed);
        for (pos, bit) in flips {
            let at = pos % blob.len();
            blob[at] ^= 1 << bit;
        }
        assert_decode_contract(&blob);
    }

    // Length-field attacks: interesting u32s spliced over any aligned or
    // unaligned offset (counts, list lengths, ksub, ...).
    #[test]
    fn spliced_length_fields_decode_or_reject(
        at_frac in 0.0f64..1.0,
        value_idx in 0usize..9,
        storage in 0usize..3,
        seed in 0u64..500,
    ) {
        const INTERESTING: [u32; 9] =
            [0, 1, 2, 0xff, 0x100, 0xffff, 0x00ff_ffff, 0x7fff_ffff, u32::MAX];
        let value = INTERESTING[value_idx];
        let mut blob = valid_blob(STORAGES[storage], 64, 6, 5, seed);
        let at = ((blob.len() - 4) as f64 * at_frac) as usize;
        blob[at..at + 4].copy_from_slice(&value.to_le_bytes());
        assert_decode_contract(&blob);
    }

    // Trailing garbage after a valid encoding must be rejected (the
    // format is self-delimiting).
    #[test]
    fn extended_blobs_are_rejected(
        extra in prop::collection::vec(0u32..256, 1..32),
        seed in 0u64..500,
    ) {
        let mut blob = valid_blob(Quantization::Sq8, 32, 8, 3, seed);
        blob.extend(extra.into_iter().map(|b| b as u8));
        prop_assert!(IvfIndex::from_bytes(&blob).is_none());
    }
}
