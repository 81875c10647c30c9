//! # trajcl-engine
//!
//! The paper's learned similarity as one API:
//!
//! * [`Engine`] / [`EngineBuilder`] — the TrajCL encoder (featurizer +
//!   DualSTB model) built or trained by the builder (dataset → featurizer
//!   → model → embedded database), bulk [`Engine::embed_all`], exact
//!   [`Engine::knn`] over the cached embedding table,
//!   [`Engine::approximate_measure`] fine-tuning the encoder into an
//!   estimator of a heuristic measure, and model persistence
//!   ([`Engine::to_bytes`] / [`Engine::from_bytes`]);
//! * [`EngineError`] — one typed error for the whole stack, converted from
//!   the featurisation and persistence errors of the crates below.
//!
//! The heuristic measures themselves are the ground truth the encoder is
//! scored against, computed by `trajcl_measures` directly. The engine
//! embeds; it builds no vector index. [`Engine::index_options`] and
//! [`Engine::nprobe`] describe the index `trajcl_serve::Server` trains
//! over the engine's table, which is where every indexed kNN runs.
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use trajcl_core::{EncoderVariant, Featurizer, TrajClConfig, TrajClModel};
//! use trajcl_data::{Dataset, DatasetProfile};
//! use trajcl_engine::Engine;
//! use trajcl_geo::{Grid, SpatialNorm};
//! use trajcl_tensor::{Shape, Tensor};
//!
//! let dataset = Dataset::generate(DatasetProfile::porto(), 30, 0);
//! let cfg = TrajClConfig::test_default();
//! let mut rng = StdRng::seed_from_u64(0);
//! // An untrained encoder: random weights and cell table, deterministic
//! // embeddings all the same.
//! let side = dataset.profile.cell_side();
//! let grid = Grid::new(dataset.region, side);
//! let cells = Tensor::randn(Shape::d2(grid.num_cells(), cfg.dim), 0.0, 0.5, &mut rng);
//! let norm = SpatialNorm::new(dataset.region, side);
//! let featurizer = Featurizer::new(grid, cells, norm, cfg.max_len);
//! let model = TrajClModel::new(&cfg, EncoderVariant::Dual, &mut rng);
//! let engine = Engine::builder()
//!     .trajcl(model, featurizer)
//!     .database(dataset.trajectories.clone())
//!     .build()
//!     .unwrap();
//! let hits = engine.knn(&dataset.trajectories[0], 3).unwrap();
//! assert_eq!(hits[0], (0, 0.0)); // the query itself is its own nearest neighbour
//! ```

pub mod engine;
pub mod error;

pub use engine::{Engine, EngineBuilder, DEFAULT_BATCH};
pub use error::EngineError;
pub use trajcl_index::{Durability, IndexOptions, Quantization};
