//! Property tests for the `TCE1` engine decoder, focused on the
//! mandatory tail (the trailing `tag | rescore | [PQ: m]` section): a corrupted tail must be rejected or
//! decode to a consistent engine, a truncated one must be rejected —
//! never panic. Deterministic sibling of the `trajcl audit` engine fuzz
//! target.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use trajcl_core::{EncoderVariant, Featurizer, TrajClConfig, TrajClModel};
use trajcl_engine::{Engine, IndexOptions, Quantization};
use trajcl_geo::{Bbox, Grid, Point, SpatialNorm};
use trajcl_tensor::{Shape, Tensor};

/// Serialized engines describing an SQ8 and a PQ index (model-only files,
/// as every TCE1 file is; built once).
fn corpus() -> &'static (Vec<u8>, Vec<u8>) {
    static CORPUS: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let build = |quant: Quantization| {
            let mut rng = StdRng::seed_from_u64(11);
            let cfg = TrajClConfig::test_default();
            let region = Bbox::new(Point::new(0.0, 0.0), Point::new(1000.0, 800.0));
            let grid = Grid::new(region, 100.0);
            let table = Tensor::randn(Shape::d2(grid.num_cells(), cfg.dim), 0.0, 0.5, &mut rng);
            let feat = Featurizer::new(grid, table, SpatialNorm::new(region, 100.0), cfg.max_len);
            let model = TrajClModel::new(&cfg, EncoderVariant::Dual, &mut rng);
            Engine::builder()
                .trajcl(model, feat)
                .index_options(IndexOptions {
                    nlist: Some(3),
                    quantization: quant,
                    ..IndexOptions::default()
                })
                .build()
                .expect("build corpus engine")
                .to_bytes()
                .expect("serialize corpus engine")
        };
        (build(Quantization::Sq8), build(Quantization::Pq { m: 4 }))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Random bytes over the whole tail region (SQ8 tail: tag + rescore,
    // 5 bytes; PQ additionally m, 9) and the end of the settings before
    // it. Any tag/geometry combination must be
    // rejected or produce a consistent engine.
    #[test]
    fn corrupted_quantization_tail_never_panics(
        offset_back in 1usize..16,
        byte in 0u32..256,
        pq in 0u32..2,
    ) {
        let (sq8, pq_bytes) = corpus();
        let base = if pq == 1 { pq_bytes } else { sq8 };
        let mut bytes = base.clone();
        let len = bytes.len();
        bytes[len - offset_back.min(len)] = byte as u8;
        if let Ok(engine) = Engine::from_bytes(&bytes) {
            // An accepted tail must carry a sane rescore factor and a
            // recognised quantization mode.
            prop_assert!(engine.index_options().rescore_factor >= 1);
            match engine.index_options().quantization {
                Quantization::None | Quantization::Sq8 => {}
                Quantization::Pq { m } => prop_assert!(m >= 1),
            }
        }
    }

    // The tail is mandatory: only the full file loads; truncating
    // anywhere inside the tail (or further into the file) fails cleanly
    // instead of defaulting the fields that were cut.
    #[test]
    fn truncated_tail_is_rejected(cut_back in 0usize..28, pq in 0u32..2) {
        let (sq8, pq_bytes) = corpus();
        let base = if pq == 1 { pq_bytes } else { sq8 };
        let bytes = &base[..base.len() - cut_back.min(base.len())];
        match Engine::from_bytes(bytes) {
            Ok(engine) => {
                prop_assert_eq!(cut_back, 0);
                prop_assert!(engine.index_options().rescore_factor >= 1);
            }
            Err(_) => prop_assert!(cut_back != 0),
        }
    }

    // Garbage appended after the tail must be rejected: the tail is the
    // final field and the decoder checks for trailing bytes.
    #[test]
    fn trailing_garbage_is_rejected(extra in prop::collection::vec(0u32..256, 1..16)) {
        let (sq8, _) = corpus();
        let mut bytes = sq8.clone();
        bytes.extend(extra.into_iter().map(|b| b as u8));
        prop_assert!(Engine::from_bytes(&bytes).is_err());
    }
}
