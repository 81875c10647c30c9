//! [`Engine`] + [`EngineBuilder`]: one front door for training, embedding,
//! exact kNN, heuristic approximation and persistence.
//!
//! The engine owns a boxed [`SimilarityBackend`], an optional trajectory
//! database with its cached embedding table, and the description of the
//! index a server builds over that table ([`Engine::index_options`],
//! [`Engine::nprobe`]). The engine embeds; `trajcl_serve::Server` indexes.
//! [`Engine::knn`] itself is exact: brute force over the cached table, or
//! a database scan for heuristic (no-embedding) backends.

// A codec module (DESIGN.md §11.2): no cast in its non-test code may
// truncate, wrap, drop a sign or round.
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )
)]

use crate::backend::{FinetunedBackend, HeuristicBackend, SimilarityBackend, TrajClBackend};
use crate::error::EngineError;
use rand::Rng;
use trajcl_core::{
    build_featurizer, finetune, load_model, save_model, train, EncoderVariant, FinetuneConfig,
    MocoState, TrainReport, TrajClConfig,
};
use trajcl_data::Dataset;
use trajcl_geo::{validate_batch, Trajectory};
use trajcl_index::{
    atomic_write, brute_force_batch_knn, IndexOptions, Metric, Quantization, RealFs,
};
use trajcl_measures::HeuristicMeasure;
use trajcl_tensor::{Shape, Tensor};

const ENGINE_MAGIC: &[u8; 4] = b"TCE1";

/// Default number of trajectories one [`SimilarityBackend::embed_batch`]
/// call of [`Engine::embed_all`] takes. Every embedding backend runs one
/// forward per trajectory whatever the chunk, so this sets only how many
/// rows one call takes.
pub const DEFAULT_BATCH: usize = 64;

/// A similarity engine: backend + database + cached embedding table.
pub struct Engine {
    backend: Box<dyn SimilarityBackend>,
    database: Vec<Trajectory>,
    embeddings: Option<Tensor>,
    index_options: IndexOptions,
    nprobe: usize,
    batch_size: usize,
    train_report: Option<TrainReport>,
}

impl Engine {
    /// Starts a builder.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The active backend.
    pub fn backend(&self) -> &dyn SimilarityBackend {
        self.backend.as_ref()
    }

    /// The trajectory database (empty for engines reloaded from bytes
    /// until [`Engine::with_database`]).
    pub fn database(&self) -> &[Trajectory] {
        &self.database
    }

    /// Cached database embeddings, when the backend embeds.
    pub fn embeddings(&self) -> Option<&Tensor> {
        self.embeddings.as_ref()
    }

    /// Training report from [`EngineBuilder::train_trajcl`], when the
    /// engine's model was trained by the builder.
    pub fn train_report(&self) -> Option<&TrainReport> {
        self.train_report.as_ref()
    }

    /// How the index over the database embeddings is trained and
    /// stored: cells (`nlist: None` = a flat scan), k-means seed, storage
    /// quantization and the over-fetch multiplier of exact rescoring
    /// (the top `rescore_factor · k` quantized candidates re-ranked
    /// against the cached embedding table). The engine builds no index:
    /// `trajcl_serve::Server::new` builds its shards from this value.
    pub fn index_options(&self) -> &IndexOptions {
        &self.index_options
    }

    /// Number of IVF cells a server built from this engine probes per
    /// query.
    pub fn nprobe(&self) -> usize {
        self.nprobe
    }

    /// Trajectories per backend call in [`Engine::embed_all`] (see
    /// [`DEFAULT_BATCH`]).
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Embeds trajectories, one backend call per chunk of the configured
    /// batch size, returning `(N, dim)`. Callable from any thread at once
    /// (the serving layer's cache misses do, up to `workers` at a time):
    /// see [`SimilarityBackend::embed_batch`].
    pub fn embed_all(&self, trajs: &[Trajectory]) -> Result<Tensor, EngineError> {
        validate_batch(trajs)?;
        if !self.backend.supports_embedding() {
            return Err(EngineError::NoEmbedding {
                backend: self.backend.name().to_string(),
            });
        }
        let d = self.backend.dim();
        let mut out = Tensor::zeros(Shape::d2(trajs.len(), d));
        let mut row = 0usize;
        for chunk in trajs.chunks(self.batch_size.max(1)) {
            let e = self.backend.embed_batch(chunk)?;
            out.data_mut()[row * d..(row + chunk.len()) * d].copy_from_slice(e.data());
            row += chunk.len();
        }
        Ok(out)
    }

    /// Distance between two trajectories under the active backend.
    pub fn distance(&self, a: &Trajectory, b: &Trajectory) -> Result<f64, EngineError> {
        self.backend.distance(a, b)
    }

    /// k nearest database entries to `query`, `(id, distance)` ascending.
    ///
    /// Exact: brute force over the cached embedding table, or a measure
    /// scan for heuristic backends. A single-query wrapper over
    /// [`Engine::knn_batch`].
    pub fn knn(&self, query: &Trajectory, k: usize) -> Result<Vec<(u32, f64)>, EngineError> {
        let mut hits = self.knn_batch(std::slice::from_ref(query), k)?;
        Ok(hits.pop().expect("one result row per query"))
    }

    /// k nearest database entries for a *batch* of queries, one `(id,
    /// distance)` row per query.
    ///
    /// All queries are embedded by one [`Engine::embed_all`] call before
    /// fanning out to the brute-force scan.
    pub fn knn_batch(
        &self,
        queries: &[Trajectory],
        k: usize,
    ) -> Result<Vec<Vec<(u32, f64)>>, EngineError> {
        validate_batch(queries)?;
        if !self.backend.supports_embedding() {
            // Heuristic route: exact scan over database geometry.
            if self.database.is_empty() {
                return Err(EngineError::NoDatabase);
            }
            let mut out = Vec::with_capacity(queries.len());
            for query in queries {
                let mut hits: Vec<(u32, f64)> = Vec::with_capacity(self.database.len());
                for (i, t) in self.database.iter().enumerate() {
                    #[expect(clippy::cast_possible_truncation, reason = "row ids are u32")]
                    hits.push((i as u32, self.backend.distance(query, t)?));
                }
                hits.sort_by(|a, b| a.1.total_cmp(&b.1));
                hits.truncate(k);
                out.push(hits);
            }
            return Ok(out);
        }
        let q = self.embed_all(queries)?;
        match &self.embeddings {
            Some(emb) => Ok(brute_force_batch_knn(emb, &q, k, Metric::L1)),
            None => Err(EngineError::NoDatabase),
        }
    }

    /// Attaches (or replaces) the database, re-embedding it into the
    /// cached table. This is how a persisted engine (which carries
    /// neither geometry nor table) resumes serving.
    pub fn with_database(mut self, trajs: Vec<Trajectory>) -> Result<Engine, EngineError> {
        self.database = trajs;
        self.embed_database()?;
        Ok(self)
    }

    /// Embeds the database into the cached table (embedding backends
    /// only; replaces whatever table was there).
    fn embed_database(&mut self) -> Result<(), EngineError> {
        self.embeddings = None;
        if self.backend.supports_embedding() && !self.database.is_empty() {
            self.embeddings = Some(self.embed_all(&self.database)?);
        }
        Ok(())
    }

    /// Replaces the index description a server built from this engine
    /// reads ([`Engine::index_options`]).
    pub fn with_index_options(mut self, index_options: IndexOptions) -> Self {
        self.index_options = index_options;
        self
    }

    /// Fine-tunes the engine's TrajCL model into a fast estimator of
    /// `measure` (wrapping [`trajcl_core::finetune()`]) and returns a new
    /// engine serving the same database through the refined embeddings.
    ///
    /// # Errors
    /// [`EngineError::Unsupported`] unless the active backend is TrajCL;
    /// [`EngineError::TooFewTrajectories`] when `pool` cannot form pairs.
    pub fn approximate_measure(
        &self,
        measure: HeuristicMeasure,
        pool: &[Trajectory],
        cfg: &FinetuneConfig,
        rng: &mut impl Rng,
    ) -> Result<Engine, EngineError> {
        let (model, featurizer) = self.backend.as_trajcl().ok_or_else(|| {
            EngineError::Unsupported(format!(
                "approximate_measure needs a TrajCL backend, got {:?}",
                self.backend.name()
            ))
        })?;
        if pool.len() < 2 {
            return Err(EngineError::TooFewTrajectories {
                needed: 2,
                got: pool.len(),
            });
        }
        validate_batch(pool)?;
        let estimator = finetune(model, featurizer, pool, measure, cfg, rng);
        let backend =
            FinetunedBackend::new(estimator, featurizer.clone(), measure.name(), model.cfg.dim);
        EngineBuilder::new()
            .backend(Box::new(backend))
            .database(self.database.clone())
            .index_options(self.index_options)
            .nprobe(self.nprobe)
            .batch_size(self.batch_size)
            .build()
    }

    /// Serialises the engine: model + featurizer (via
    /// [`trajcl_core::persist`]) and the query settings (`nprobe`, batch
    /// size, index description), as `"TCE1" | model_len | model | nprobe
    /// | batch | nlist | seed | tag | rescore | [PQ: m]`. The database,
    /// its embedding table and any index built over it are not persisted
    /// — [`Engine::with_database`] rebuilds the table — and neither is
    /// anything about serving (shards, write-ahead log): that is
    /// `trajcl_serve::ServeConfig`.
    ///
    /// # Errors
    /// [`EngineError::Unsupported`] unless the active backend is TrajCL.
    pub fn to_bytes(&self) -> Result<Vec<u8>, EngineError> {
        let (model, featurizer) = self.backend.as_trajcl().ok_or_else(|| {
            EngineError::Unsupported(format!(
                "persistence needs a TrajCL backend, got {:?}",
                self.backend.name()
            ))
        })?;
        let mut out = Vec::new();
        out.extend_from_slice(ENGINE_MAGIC);
        let model_bytes = save_model(model, featurizer, featurizer.grid().cell_side());
        #[expect(clippy::cast_possible_truncation, reason = "a model is < 4 GiB")]
        out.extend_from_slice(&(model_bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&model_bytes);
        #[expect(clippy::cast_possible_truncation, reason = "nprobe is at most nlist")]
        out.extend_from_slice(&(self.nprobe as u32).to_le_bytes());
        #[expect(clippy::cast_possible_truncation, reason = "a batch size fits u32")]
        out.extend_from_slice(&(self.batch_size as u32).to_le_bytes());
        let opts = &self.index_options;
        #[expect(clippy::cast_possible_truncation, reason = "nlist is at most n rows")]
        out.extend_from_slice(&(opts.nlist.unwrap_or(0) as u32).to_le_bytes());
        out.extend_from_slice(&opts.seed.to_le_bytes());
        // The tail: `tag | rescore | [PQ: m]`, the tag through the one
        // wire codec of `Quantization`.
        out.push(opts.quantization.wire_tag());
        #[expect(clippy::cast_possible_truncation, reason = "rescore factor fits u32")]
        out.extend_from_slice(&(opts.rescore_factor as u32).to_le_bytes());
        if let Quantization::Pq { m } = opts.quantization {
            #[expect(clippy::cast_possible_truncation, reason = "m is at most the dim")]
            out.extend_from_slice(&(m as u32).to_le_bytes());
        }
        Ok(out)
    }

    /// Writes [`Engine::to_bytes`] to `path` crash-safely: temp file,
    /// fsync, atomic rename. A crash mid-save leaves the previous
    /// snapshot intact — never a torn TCE1 file.
    ///
    /// # Errors
    /// [`EngineError::Unsupported`] for non-TrajCL backends (as
    /// [`Engine::to_bytes`]); [`EngineError::Io`] on filesystem failure.
    pub fn save(&self, path: &std::path::Path) -> Result<(), EngineError> {
        let bytes = self.to_bytes()?;
        atomic_write(&RealFs, path, &bytes).map_err(EngineError::Io)
    }

    /// Restores an engine from [`Engine::to_bytes`] output. Every field
    /// is mandatory: a file that ends early — inside the tail included —
    /// is [`EngineError::CorruptEngineFile`], never an engine with
    /// silently defaulted settings.
    pub fn from_bytes(bytes: &[u8]) -> Result<Engine, EngineError> {
        let mut r = bytes;
        fn take<'a>(r: &mut &'a [u8], n: usize) -> Result<&'a [u8], EngineError> {
            if r.len() < n {
                return Err(EngineError::CorruptEngineFile("truncated"));
            }
            let (head, rest) = r.split_at(n);
            *r = rest;
            Ok(head)
        }
        let u32_of = |r: &mut &[u8]| -> Result<u32, EngineError> {
            take(r, 4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        };
        if take(&mut r, 4)? != ENGINE_MAGIC {
            return Err(EngineError::CorruptEngineFile("bad magic"));
        }
        let model_len = u32_of(&mut r)? as usize;
        let model_bytes = take(&mut r, model_len)?;
        let (model, featurizer) = load_model(model_bytes)?;
        let nprobe = u32_of(&mut r)? as usize;
        let batch_size = u32_of(&mut r)? as usize;
        let nlist_raw = u32_of(&mut r)? as usize;
        let seed = u64::from_le_bytes(
            take(&mut r, 8)?
                .try_into()
                .map_err(|_| EngineError::CorruptEngineFile("seed"))?,
        );
        let tag = take(&mut r, 1)?[0];
        let rescore_factor = (u32_of(&mut r)? as usize).max(1);
        let quantization = Quantization::from_wire(tag, || Some(u32_of(&mut r).ok()? as usize))
            .ok_or(EngineError::CorruptEngineFile("quantization"))?;
        // The tail is the final field: anything after it is corruption.
        if !r.is_empty() {
            return Err(EngineError::CorruptEngineFile("trailing bytes"));
        }
        Ok(Engine {
            backend: Box::new(TrajClBackend::new(model, featurizer)),
            database: Vec::new(),
            embeddings: None,
            index_options: IndexOptions {
                nlist: (nlist_raw > 0).then_some(nlist_raw),
                seed,
                quantization,
                rescore_factor,
            },
            nprobe,
            batch_size: batch_size.max(1),
            train_report: None,
        })
    }
}

/// Builder-pattern construction of an [`Engine`]:
/// dataset → featurizer → backend → embedded database.
pub struct EngineBuilder {
    backend: Option<Box<dyn SimilarityBackend>>,
    database: Vec<Trajectory>,
    index_options: IndexOptions,
    nprobe: usize,
    batch_size: usize,
    train_report: Option<TrainReport>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineBuilder {
    /// A builder with no backend and no database.
    pub fn new() -> Self {
        EngineBuilder {
            backend: None,
            database: Vec::new(),
            index_options: IndexOptions::default(),
            nprobe: 4,
            batch_size: DEFAULT_BATCH,
            train_report: None,
        }
    }

    /// Uses an explicit backend (any [`SimilarityBackend`]).
    pub fn backend(mut self, backend: Box<dyn SimilarityBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Uses a trained TrajCL model + featurizer as the backend.
    pub fn trajcl(
        self,
        model: trajcl_core::TrajClModel,
        featurizer: trajcl_core::Featurizer,
    ) -> Self {
        self.backend(Box::new(TrajClBackend::new(model, featurizer)))
    }

    /// Uses an exact heuristic measure as a no-embedding backend.
    pub fn heuristic(self, measure: HeuristicMeasure) -> Self {
        self.backend(Box::new(HeuristicBackend::new(measure)))
    }

    /// Trains TrajCL on the dataset's trajectories and uses it as the
    /// backend: builds the featurizer (grid + node2vec + normalisation),
    /// runs MoCo contrastive training, and stashes the [`TrainReport`]
    /// (readable via [`Engine::train_report`]).
    ///
    /// # Errors
    /// [`EngineError::TooFewTrajectories`] when the dataset cannot form a
    /// contrastive batch.
    pub fn train_trajcl(
        self,
        dataset: &Dataset,
        cfg: &TrajClConfig,
        rng: &mut impl Rng,
    ) -> Result<Self, EngineError> {
        self.train_trajcl_on(dataset, &dataset.trajectories, cfg, rng)
    }

    /// Like [`EngineBuilder::train_trajcl`] but trains on an explicit
    /// subset (e.g. a train split) while building the featurizer over the
    /// full dataset region.
    pub fn train_trajcl_on(
        mut self,
        dataset: &Dataset,
        train_set: &[Trajectory],
        cfg: &TrajClConfig,
        rng: &mut impl Rng,
    ) -> Result<Self, EngineError> {
        if train_set.len() < 2 {
            return Err(EngineError::TooFewTrajectories {
                needed: 2,
                got: train_set.len(),
            });
        }
        validate_batch(train_set)?;
        let featurizer = build_featurizer(dataset, cfg.dim, cfg.max_len, rng);
        let mut moco = MocoState::new(cfg, EncoderVariant::Dual, rng);
        let report = train(
            &mut moco,
            &featurizer,
            train_set,
            &trajcl_nn::StepDecay::trajcl_default(),
            rng,
        );
        self.train_report = Some(report);
        Ok(self.trajcl(moco.online, featurizer))
    }

    /// Sets the trajectory database the engine will serve.
    pub fn database(mut self, trajs: Vec<Trajectory>) -> Self {
        self.database = trajs;
        self
    }

    /// How a server built from this engine indexes the database
    /// embeddings ([`Engine::index_options`]; default: a flat exact f32
    /// scan). `nlist: Some(_)` trains IVF cells; [`Quantization::Sq8`]
    /// stores vectors as int8 codes (4× smaller) scanned in integer
    /// arithmetic, [`Quantization::Pq`] as `⌈m/2⌉`-byte product-quantized
    /// codes, both rescored against the cached embedding table.
    pub fn index_options(mut self, index_options: IndexOptions) -> Self {
        self.index_options = index_options;
        self
    }

    /// Number of Voronoi cells a server probes per query (default 4).
    pub fn nprobe(mut self, nprobe: usize) -> Self {
        self.nprobe = nprobe.max(1);
        self
    }

    /// Trajectories per backend call in [`Engine::embed_all`] (default
    /// [`DEFAULT_BATCH`]): the forward batch of the tape baselines; the
    /// TrajCL backends run one forward per trajectory at any value.
    pub fn batch_size(mut self, batch: usize) -> Self {
        self.batch_size = batch.max(1);
        self
    }

    /// Assembles the engine: embeds the database (embedding backends).
    ///
    /// # Errors
    /// [`EngineError::InvalidInput`] when no backend was configured;
    /// embedding errors propagate from the backend.
    pub fn build(self) -> Result<Engine, EngineError> {
        let backend = self.backend.ok_or_else(|| {
            EngineError::InvalidInput("EngineBuilder: no backend configured".into())
        })?;
        let mut engine = Engine {
            backend,
            database: self.database,
            embeddings: None,
            index_options: self.index_options,
            nprobe: self.nprobe,
            batch_size: self.batch_size,
            train_report: self.train_report,
        };
        engine.embed_database()?;
        Ok(engine)
    }
}
