//! [`Engine`] + [`EngineBuilder`]: one front door for training, embedding,
//! exact kNN, heuristic approximation and persistence.
//!
//! The engine is the paper's encoder — a [`Featurizer`] and a DualSTB
//! [`TrajClModel`], plus the regression head of a [`FinetunedEstimator`]
//! once [`Engine::approximate_measure`] made it one — with an optional
//! trajectory database, its cached embedding table, and the description
//! of the index a server builds over that table ([`Engine::index_options`],
//! [`Engine::nprobe`]). The engine embeds; `trajcl_serve::Server` indexes.
//! [`Engine::knn`] itself is exact: brute force over the cached table.

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

use crate::error::EngineError;
use rand::Rng;
use trajcl_core::{
    build_featurizer, finetune, load_model, save_model, train, EncoderVariant, Featurizer,
    FinetuneConfig, FinetunedEstimator, MocoState, TrainReport, TrajClConfig, TrajClModel,
};
use trajcl_data::Dataset;
use trajcl_geo::{validate_batch, Trajectory};
use trajcl_index::{atomic_write, brute_force_knn, IndexOptions, Metric, Quantization, RealFs};
use trajcl_measures::HeuristicMeasure;
use trajcl_tensor::{CtxPool, Shape, Tensor};

const ENGINE_MAGIC: &[u8; 4] = b"TCE1";

/// Default number of trajectories one chunk of [`Engine::embed_all`]
/// takes. The encoder runs one forward per trajectory whatever the
/// chunk, so this sets only how many rows one chunk holds.
pub const DEFAULT_BATCH: usize = 64;

/// A similarity engine: encoder + database + cached embedding table.
pub struct Engine {
    model: TrajClModel,
    featurizer: Featurizer,
    /// The estimator [`Engine::approximate_measure`] fine-tuned, and the
    /// measure it approximates; `None` embeds with `model` itself.
    finetuned: Option<(FinetunedEstimator, HeuristicMeasure)>,
    /// Scratch contexts for the forwards, one per forward in flight.
    infer: CtxPool,
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

    /// Human-readable name: `TrajCL`, or `TrajCL~<measure>` for an
    /// estimator of a heuristic measure.
    pub fn name(&self) -> String {
        match &self.finetuned {
            Some((_, measure)) => format!("TrajCL~{}", measure.name()),
            None => "TrajCL".to_string(),
        }
    }

    /// Embedding dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.model.cfg.dim
    }

    /// The trajectory database (empty for engines reloaded from bytes
    /// until [`Engine::with_database`]).
    pub fn database(&self) -> &[Trajectory] {
        &self.database
    }

    /// Cached database embeddings, `None` without a database.
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

    /// Trajectories per chunk of [`Engine::embed_all`] (see
    /// [`DEFAULT_BATCH`]).
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Inference contexts idle in the engine's free list. Each forward
    /// checks one out and puts it back, so this is the most forwards
    /// that ever ran at once (one per pool lane a call splits over).
    pub fn idle_contexts(&self) -> usize {
        self.infer.idle()
    }

    /// Embeds trajectories, returning `(N, dim)`: one unpadded forward
    /// per trajectory, the rows split across the pool lanes, on contexts
    /// from the engine's free list. Deterministic (the same input embeds
    /// to the same bytes) and callable from any thread at once — the
    /// serving layer's cache misses do, up to `workers` at a time — with
    /// no lock held across a forward.
    pub fn embed_all(&self, trajs: &[Trajectory]) -> Result<Tensor, EngineError> {
        validate_batch(trajs)?;
        let d = self.dim();
        let mut out = Tensor::zeros(Shape::d2(trajs.len(), d));
        for (chunk, rows) in trajs
            .chunks(self.batch_size)
            .zip(out.data_mut().chunks_mut(self.batch_size * d))
        {
            let e = match &self.finetuned {
                Some((estimator, _)) => estimator.embed_with(&self.infer, &self.featurizer, chunk),
                None => self.model.embed_with(&self.infer, &self.featurizer, chunk),
            };
            rows.copy_from_slice(e.data());
        }
        Ok(out)
    }

    /// k nearest database entries to `query`, `(id, distance)` ascending:
    /// brute force over the cached embedding table.
    pub fn knn(&self, query: &Trajectory, k: usize) -> Result<Vec<(u32, f64)>, EngineError> {
        let q = self.embed_all(std::slice::from_ref(query))?;
        let table = self.embeddings.as_ref().ok_or(EngineError::NoDatabase)?;
        Ok(brute_force_knn(table, q.row(0), k, Metric::L1))
    }

    /// Attaches (or replaces) the database, re-embedding it into the
    /// cached table. This is how a persisted engine (which carries
    /// neither geometry nor table) resumes serving.
    pub fn with_database(mut self, trajs: Vec<Trajectory>) -> Result<Engine, EngineError> {
        self.database = trajs;
        self.embed_database()?;
        Ok(self)
    }

    /// Embeds the database into the cached table (replacing whatever
    /// table was there).
    fn embed_database(&mut self) -> Result<(), EngineError> {
        self.embeddings = None;
        if !self.database.is_empty() {
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
    /// [`EngineError::Unsupported`] when this engine is fine-tuned
    /// already; [`EngineError::TooFewTrajectories`] when `pool` cannot
    /// form pairs.
    pub fn approximate_measure(
        &self,
        measure: HeuristicMeasure,
        pool: &[Trajectory],
        cfg: &FinetuneConfig,
        rng: &mut impl Rng,
    ) -> Result<Engine, EngineError> {
        self.pretrained("approximate_measure")?;
        if pool.len() < 2 {
            return Err(EngineError::TooFewTrajectories {
                needed: 2,
                got: pool.len(),
            });
        }
        validate_batch(pool)?;
        let estimator = finetune(&self.model, &self.featurizer, pool, measure, cfg, rng);
        let mut builder = EngineBuilder::new()
            .trajcl(self.model.clone(), self.featurizer.clone())
            .database(self.database.clone())
            .index_options(self.index_options)
            .nprobe(self.nprobe)
            .batch_size(self.batch_size);
        builder.finetuned = Some((estimator, measure));
        builder.build()
    }

    /// Refuses `operation` on a fine-tuned engine: it needs the
    /// pre-trained model alone.
    fn pretrained(&self, operation: &str) -> Result<(), EngineError> {
        match self.finetuned {
            Some(_) => Err(EngineError::Unsupported(format!(
                "{operation} needs a pre-trained engine, got {:?}",
                self.name()
            ))),
            None => Ok(()),
        }
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
    /// [`EngineError::Unsupported`] for a fine-tuned engine;
    /// [`EngineError::InvalidInput`], naming the field, when a count does
    /// not fit the file's `u32`.
    pub fn to_bytes(&self) -> Result<Vec<u8>, EngineError> {
        self.pretrained("persistence")?;
        let model_bytes = save_model(
            &self.model,
            &self.featurizer,
            self.featurizer.grid().cell_side(),
        );
        let opts = &self.index_options;
        let mut out = Vec::new();
        out.extend_from_slice(ENGINE_MAGIC);
        out.extend_from_slice(&u32_le("model size", model_bytes.len())?);
        out.extend_from_slice(&model_bytes);
        out.extend_from_slice(&u32_le("nprobe", self.nprobe)?);
        out.extend_from_slice(&u32_le("batch_size", self.batch_size)?);
        out.extend_from_slice(&u32_le("nlist", opts.nlist.unwrap_or(0))?);
        out.extend_from_slice(&opts.seed.to_le_bytes());
        // The tail: `tag | rescore | [PQ: m]`, the tag through the one
        // wire codec of `Quantization`.
        out.push(opts.quantization.wire_tag());
        out.extend_from_slice(&u32_le("rescore_factor", opts.rescore_factor)?);
        if let Quantization::Pq { m } = opts.quantization {
            out.extend_from_slice(&u32_le("m", m)?);
        }
        Ok(out)
    }

    /// Writes [`Engine::to_bytes`] to `path` crash-safely: temp file,
    /// fsync, atomic rename. A crash mid-save leaves the previous
    /// snapshot intact — never a torn TCE1 file.
    ///
    /// # Errors
    /// As [`Engine::to_bytes`]; [`EngineError::Io`] on filesystem
    /// failure.
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
            model,
            featurizer,
            finetuned: None,
            infer: CtxPool::new(),
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

/// `value` as a little-endian `u32` field of the engine file.
///
/// # Errors
/// [`EngineError::InvalidInput`] naming `field` when `value` does not fit.
fn u32_le(field: &str, value: usize) -> Result<[u8; 4], EngineError> {
    u32::try_from(value)
        .map(u32::to_le_bytes)
        .map_err(|_| EngineError::InvalidInput(format!("{field} {value} does not fit a u32")))
}

/// Builder-pattern construction of an [`Engine`]:
/// dataset → featurizer → model → embedded database.
pub struct EngineBuilder {
    encoder: Option<(TrajClModel, Featurizer)>,
    finetuned: Option<(FinetunedEstimator, HeuristicMeasure)>,
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
    /// A builder with no model and no database.
    pub fn new() -> Self {
        EngineBuilder {
            encoder: None,
            finetuned: None,
            database: Vec::new(),
            index_options: IndexOptions::default(),
            nprobe: 4,
            batch_size: DEFAULT_BATCH,
            train_report: None,
        }
    }

    /// Uses a trained (or freshly initialised) TrajCL model and its
    /// featurizer as the engine's encoder.
    pub fn trajcl(mut self, model: TrajClModel, featurizer: Featurizer) -> Self {
        self.encoder = Some((model, featurizer));
        self
    }

    /// Trains TrajCL on the dataset's trajectories and uses it as the
    /// encoder: builds the featurizer (grid + node2vec + normalisation),
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

    /// Trajectories per chunk of [`Engine::embed_all`] (default
    /// [`DEFAULT_BATCH`]); the encoder runs one forward per trajectory at
    /// any value.
    pub fn batch_size(mut self, batch: usize) -> Self {
        self.batch_size = batch.max(1);
        self
    }

    /// Assembles the engine and embeds the database.
    ///
    /// # Errors
    /// [`EngineError::InvalidInput`] when no model was configured.
    pub fn build(self) -> Result<Engine, EngineError> {
        let (model, featurizer) = self.encoder.ok_or_else(|| {
            EngineError::InvalidInput("EngineBuilder: no model configured".into())
        })?;
        let mut engine = Engine {
            model,
            featurizer,
            finetuned: self.finetuned,
            infer: CtxPool::new(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use trajcl_geo::{Bbox, Grid, Point, SpatialNorm};

    fn traj(n: usize, y: f64) -> Trajectory {
        (0..n)
            .map(|i| Point::new(40.0 + i as f64 * 45.0, y))
            .collect()
    }

    /// An untrained TrajCL engine over a 1 km square.
    fn trajcl_engine() -> Engine {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = TrajClConfig::test_default();
        let region = Bbox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
        let grid = Grid::new(region, 100.0);
        let table = Tensor::randn(Shape::d2(grid.num_cells(), cfg.dim), 0.0, 0.5, &mut rng);
        let feat = Featurizer::new(grid, table, SpatialNorm::new(region, 100.0), cfg.max_len);
        let model = TrajClModel::new(&cfg, EncoderVariant::Dual, &mut rng);
        Engine::builder()
            .trajcl(model, feat)
            .batch_size(4) // sizes above 4 take several chunks per call
            .build()
            .unwrap()
    }

    /// 8 threads x 20 `embed_all` calls over mixed batch sizes, started
    /// together: every row must carry the bits of a serial run, and the
    /// free list must end no longer than the forwards that can be in
    /// flight at once — one per pool lane a call splits over, so at one
    /// lane 1 for the serial caller and 8 for the eight, and at width `w`
    /// at most `w` and `8·w`.
    fn assert_concurrent_embeds_match_serial(engine: &Engine) {
        const THREADS: usize = 8;
        let pool: Vec<Trajectory> = (0..11)
            .map(|i| traj(4 + i, 60.0 + 80.0 * i as f64))
            .collect();
        let serial = engine.embed_all(&pool).unwrap();
        let lanes = trajcl_tensor::pool::threads();
        let serial_idle = engine.idle_contexts();
        if lanes == 1 {
            assert_eq!(serial_idle, 1, "a serial caller reuses one context");
        } else {
            assert!(
                (1..=lanes).contains(&serial_idle),
                "{serial_idle} contexts for a serial caller at {lanes} lanes"
            );
        }
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (pool, serial, start) = (&pool, &serial, &start);
                scope.spawn(move || {
                    start.wait();
                    for call in 0..20 {
                        let (from, len) = ((t + call) % pool.len(), [1, 2, 5, 9][call % 4]);
                        let picks: Vec<usize> = (0..len).map(|i| (from + i) % pool.len()).collect();
                        let batch: Vec<Trajectory> =
                            picks.iter().map(|&i| pool[i].clone()).collect();
                        let got = engine.embed_all(&batch).unwrap();
                        for (row, &i) in picks.iter().enumerate() {
                            let same = got.row(row).iter().zip(serial.row(i));
                            assert!(
                                same.clone().all(|(a, b)| a.to_bits() == b.to_bits()),
                                "thread {t} call {call}: row {row} differs from the serial run"
                            );
                        }
                    }
                });
            }
        });
        let idle = engine.idle_contexts();
        if lanes == 1 {
            assert!(
                (1..=THREADS).contains(&idle),
                "{idle} contexts for {THREADS} threads"
            );
        } else {
            assert!(
                (1..=THREADS * lanes).contains(&idle),
                "{idle} contexts for {THREADS} threads at {lanes} lanes"
            );
        }
    }

    #[test]
    fn concurrent_embed_all_is_bit_identical_to_serial_and_reuses_contexts() {
        let base = trajcl_engine();
        let pool: Vec<Trajectory> = (0..6)
            .map(|i| traj(5 + i, 100.0 + 150.0 * i as f64))
            .collect();
        let cfg = FinetuneConfig {
            train: trajcl_nn::PairRegression {
                pairs_per_epoch: 8,
                batch_pairs: 4,
                epochs: 1,
                ..Default::default()
            },
            ..FinetuneConfig::default()
        };
        let finetuned = base
            .approximate_measure(
                HeuristicMeasure::Hausdorff,
                &pool,
                &cfg,
                &mut StdRng::seed_from_u64(4),
            )
            .unwrap();
        assert_concurrent_embeds_match_serial(&base);
        assert_concurrent_embeds_match_serial(&finetuned);
    }
}
