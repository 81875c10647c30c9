//! # trajcl-engine
//!
//! The unified similarity API over everything this workspace can do:
//!
//! * [`SimilarityBackend`] — one object-safe trait (`embed_batch`,
//!   `distance`, `dim`, `name`) implemented by TrajCL itself
//!   ([`TrajClBackend`]), exact heuristic measures ([`HeuristicBackend`])
//!   and fine-tuned estimators ([`FinetunedBackend`]);
//! * [`Engine`] / [`EngineBuilder`] — builder-pattern construction
//!   (dataset → featurizer → backend → embedded database), chunked
//!   [`Engine::embed_all`], exact [`Engine::knn`] over the cached
//!   embedding table (or the database geometry, for heuristic backends),
//!   [`Engine::approximate_measure`] wrapping fine-tuning, and model
//!   persistence ([`Engine::to_bytes`] / [`Engine::from_bytes`]);
//! * [`EngineError`] — one typed error for the whole stack, converted from
//!   the featurisation and persistence errors of the crates below.
//!
//! The engine embeds; it builds no vector index. [`Engine::index_options`]
//! and [`Engine::nprobe`] describe the index `trajcl_serve::Server` trains
//! over the engine's table, which is where every indexed kNN runs.
//!
//! ```
//! use trajcl_data::{Dataset, DatasetProfile};
//! use trajcl_engine::Engine;
//! use trajcl_measures::HeuristicMeasure;
//!
//! let dataset = Dataset::generate(DatasetProfile::porto(), 30, 0);
//! // Heuristic backend: exact Hausdorff kNN, no training required.
//! let engine = Engine::builder()
//!     .heuristic(HeuristicMeasure::Hausdorff)
//!     .database(dataset.trajectories.clone())
//!     .build()
//!     .unwrap();
//! let hits = engine.knn(&dataset.trajectories[0], 3).unwrap();
//! assert_eq!(hits[0].0, 0); // the query itself is its own nearest neighbour
//! ```

pub mod backend;
pub mod engine;
pub mod error;

pub use backend::{FinetunedBackend, HeuristicBackend, SimilarityBackend, TrajClBackend};
pub use engine::{Engine, EngineBuilder, DEFAULT_BATCH};
pub use error::EngineError;
pub use trajcl_index::{Durability, IndexOptions, Quantization};
