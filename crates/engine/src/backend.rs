//! The object-safe backend abstraction and its implementations.
//!
//! [`SimilarityBackend`] is the seam the engine's similarity methods plug
//! into: TrajCL itself ([`TrajClBackend`]), the exact heuristic measures
//! ([`HeuristicBackend`], a no-embedding fallback) and fine-tuned
//! heuristic estimators ([`FinetunedBackend`]). The trait is object-safe:
//! [`crate::Engine`] owns a `Box<dyn SimilarityBackend>`. The baselines
//! are no backend: `trajcl_baselines::TrajectoryEncoder::embed` is their
//! one inference path, which the experiments call directly.

use crate::error::EngineError;
use trajcl_core::{Featurizer, FinetunedEstimator, TrajClModel};
use trajcl_geo::{validate_batch, Trajectory};
use trajcl_measures::HeuristicMeasure;
use trajcl_tensor::{CtxPool, Tensor};

/// One similarity method behind a uniform, object-safe interface.
///
/// Implementations are *deterministic at inference*: calling
/// [`SimilarityBackend::embed_batch`] twice on the same input must produce
/// identical bytes (the engine's persistence tests rely on it).
///
/// The trait requires `Send + Sync` so an [`crate::Engine`] can be shared
/// across serving threads (`trajcl-serve` holds one behind an `Arc`), and
/// [`SimilarityBackend::embed_batch`] is the one embed path: any thread
/// may call it, and concurrent calls do not wait on each other.
pub trait SimilarityBackend: Send + Sync {
    /// Human-readable name (paper table spelling).
    fn name(&self) -> &str;

    /// Embedding dimensionality; `0` for measures with no embedding space.
    fn dim(&self) -> usize;

    /// Embeds a non-empty batch into `(B, dim)`.
    fn embed_batch(&self, trajs: &[Trajectory]) -> Result<Tensor, EngineError>;

    /// Distance between two trajectories under this method (lower = more
    /// similar). Embedding backends use L1 in embedding space; heuristic
    /// backends compute the exact measure.
    fn distance(&self, a: &Trajectory, b: &Trajectory) -> Result<f64, EngineError>;

    /// Whether this backend embeds into a vector space (and can therefore
    /// be served from a vector index).
    fn supports_embedding(&self) -> bool {
        self.dim() > 0
    }

    /// Access to the underlying TrajCL model, when this backend wraps one.
    /// This is the seam used by engine persistence and fine-tuning; every
    /// non-TrajCL backend returns `None`.
    fn as_trajcl(&self) -> Option<(&TrajClModel, &Featurizer)> {
        None
    }
}

fn l1(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs() as f64).sum()
}

/// The paper's model as a backend: DualSTB encoder + featurizer.
///
/// Serving goes through the tape-free [`trajcl_tensor::InferCtx`] path —
/// no autograd bookkeeping, fused attention, and scratch buffers that
/// persist across `embed_batch` calls: each call takes one context per
/// pool lane from the backend's free list for the length of that lane's
/// forwards, so callers on different threads never share one and never
/// hold a lock across a forward.
pub struct TrajClBackend {
    model: TrajClModel,
    featurizer: Featurizer,
    infer: CtxPool,
}

impl TrajClBackend {
    /// Wraps a trained (or freshly initialised) model and its featurizer.
    pub fn new(model: TrajClModel, featurizer: Featurizer) -> Self {
        TrajClBackend {
            model,
            featurizer,
            infer: CtxPool::new(),
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &TrajClModel {
        &self.model
    }

    /// The wrapped featurizer.
    pub fn featurizer(&self) -> &Featurizer {
        &self.featurizer
    }
}

impl SimilarityBackend for TrajClBackend {
    fn name(&self) -> &str {
        "TrajCL"
    }

    fn dim(&self) -> usize {
        self.model.cfg.dim
    }

    fn embed_batch(&self, trajs: &[Trajectory]) -> Result<Tensor, EngineError> {
        validate_batch(trajs)?;
        // One unpadded forward per trajectory, the rows split across the
        // pool lanes on one context per lane: a padded batch would cost
        // its longest member's attention for every row and leave that
        // scratch in the free list for good. The engine's `batch_size`
        // only sets how many rows one call takes.
        Ok(self.model.embed_with(&self.infer, &self.featurizer, trajs))
    }

    fn distance(&self, a: &Trajectory, b: &Trajectory) -> Result<f64, EngineError> {
        let e = self.embed_batch(&[a.clone(), b.clone()])?;
        Ok(l1(e.row(0), e.row(1)))
    }

    fn as_trajcl(&self) -> Option<(&TrajClModel, &Featurizer)> {
        Some((&self.model, &self.featurizer))
    }
}

/// Exact heuristic measures as a no-embedding fallback backend: `knn`
/// degrades to a database scan, `distance` is the measure itself.
pub struct HeuristicBackend {
    measure: HeuristicMeasure,
}

impl HeuristicBackend {
    /// Wraps a heuristic measure.
    pub fn new(measure: HeuristicMeasure) -> Self {
        HeuristicBackend { measure }
    }

    /// The wrapped measure.
    pub fn measure(&self) -> HeuristicMeasure {
        self.measure
    }
}

impl SimilarityBackend for HeuristicBackend {
    fn name(&self) -> &str {
        self.measure.name()
    }

    fn dim(&self) -> usize {
        0
    }

    fn embed_batch(&self, trajs: &[Trajectory]) -> Result<Tensor, EngineError> {
        validate_batch(trajs)?;
        Err(EngineError::NoEmbedding {
            backend: self.name().to_string(),
        })
    }

    fn distance(&self, a: &Trajectory, b: &Trajectory) -> Result<f64, EngineError> {
        if a.is_empty() || b.is_empty() {
            return Err(EngineError::EmptyTrajectory {
                index: usize::from(!a.is_empty()),
            });
        }
        Ok(self.measure.distance(a, b))
    }
}

/// A fine-tuned estimator of a heuristic measure (the output of
/// [`crate::Engine::approximate_measure`]): refined embeddings whose L1
/// distances track the target measure's ranking.
pub struct FinetunedBackend {
    estimator: FinetunedEstimator,
    featurizer: Featurizer,
    name: String,
    dim: usize,
    infer: CtxPool,
}

impl FinetunedBackend {
    /// Wraps a fine-tuned estimator; `target` names the approximated
    /// measure (for display).
    pub fn new(
        estimator: FinetunedEstimator,
        featurizer: Featurizer,
        target: &str,
        dim: usize,
    ) -> Self {
        FinetunedBackend {
            estimator,
            featurizer,
            name: format!("TrajCL~{target}"),
            dim,
            infer: CtxPool::new(),
        }
    }

    /// The wrapped estimator.
    pub fn estimator(&self) -> &FinetunedEstimator {
        &self.estimator
    }
}

impl SimilarityBackend for FinetunedBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn embed_batch(&self, trajs: &[Trajectory]) -> Result<Tensor, EngineError> {
        validate_batch(trajs)?;
        Ok(self
            .estimator
            .embed_with(&self.infer, &self.featurizer, trajs))
    }

    fn distance(&self, a: &Trajectory, b: &Trajectory) -> Result<f64, EngineError> {
        let e = self.embed_batch(&[a.clone(), b.clone()])?;
        Ok(l1(e.row(0), e.row(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use trajcl_core::{EncoderVariant, TrajClConfig};
    use trajcl_geo::{Bbox, Grid, Point, SpatialNorm};
    use trajcl_tensor::Shape;

    pub(crate) fn traj(n: usize, y: f64) -> Trajectory {
        (0..n)
            .map(|i| Point::new(40.0 + i as f64 * 45.0, y))
            .collect()
    }

    pub(crate) fn trajcl_backend() -> TrajClBackend {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = TrajClConfig::test_default();
        let region = Bbox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
        let grid = Grid::new(region, 100.0);
        let table = Tensor::randn(Shape::d2(grid.num_cells(), cfg.dim), 0.0, 0.5, &mut rng);
        let feat = Featurizer::new(grid, table, SpatialNorm::new(region, 100.0), cfg.max_len);
        let model = TrajClModel::new(&cfg, EncoderVariant::Dual, &mut rng);
        TrajClBackend::new(model, feat)
    }

    #[test]
    fn trait_is_object_safe_across_all_families() {
        let backends: Vec<Box<dyn SimilarityBackend>> = vec![
            Box::new(trajcl_backend()),
            Box::new(HeuristicBackend::new(HeuristicMeasure::Hausdorff)),
            Box::new(HeuristicBackend::new(HeuristicMeasure::Edwp)),
        ];
        let a = traj(8, 200.0);
        let b = traj(8, 800.0);
        for backend in &backends {
            let d = backend.distance(&a, &b).expect("distance");
            assert!(d.is_finite() && d >= 0.0, "{}: {d}", backend.name());
            let self_d = backend.distance(&a, &a).expect("self distance");
            assert!(
                self_d <= d,
                "{}: self-distance should not exceed cross",
                backend.name()
            );
            if backend.supports_embedding() {
                let e = backend
                    .embed_batch(std::slice::from_ref(&a))
                    .expect("embed");
                assert_eq!(e.shape(), Shape::d2(1, backend.dim()));
            } else {
                assert!(matches!(
                    backend.embed_batch(std::slice::from_ref(&a)),
                    Err(EngineError::NoEmbedding { .. })
                ));
            }
        }
    }

    /// A backend the test keeps a handle on while an engine owns it, so
    /// it can read the free list the engine's callers went through.
    struct Shared<B>(std::sync::Arc<B>);

    impl<B: SimilarityBackend> SimilarityBackend for Shared<B> {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn dim(&self) -> usize {
            self.0.dim()
        }
        fn embed_batch(&self, trajs: &[Trajectory]) -> Result<Tensor, EngineError> {
            self.0.embed_batch(trajs)
        }
        fn distance(&self, a: &Trajectory, b: &Trajectory) -> Result<f64, EngineError> {
            self.0.distance(a, b)
        }
    }

    /// 8 threads x 20 `embed_all` calls over mixed batch sizes, started
    /// together: every row must carry the bits of a serial run, and the
    /// free list (read through `idle`) must end no longer than the
    /// forwards that can be in flight at once — one per pool lane a call
    /// splits over, so at one lane 1 for the serial caller and 8 for the
    /// eight, and at width `w` at most `w` and `8·w`.
    fn assert_concurrent_embeds_match_serial<B: SimilarityBackend + 'static>(
        backend: B,
        idle: impl Fn(&B) -> usize,
    ) {
        const THREADS: usize = 8;
        let backend = std::sync::Arc::new(backend);
        let engine = crate::Engine::builder()
            .backend(Box::new(Shared(backend.clone())))
            .batch_size(4) // sizes above 4 take several forwards per call
            .build()
            .unwrap();
        let pool: Vec<Trajectory> = (0..11)
            .map(|i| traj(4 + i, 60.0 + 80.0 * i as f64))
            .collect();
        let serial = engine.embed_all(&pool).unwrap();
        let lanes = trajcl_tensor::pool::threads();
        let serial_idle = idle(&backend);
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
                let (engine, pool, serial, start) = (&engine, &pool, &serial, &start);
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
        let idle = idle(&backend);
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
        assert_concurrent_embeds_match_serial(trajcl_backend(), |b| b.infer.idle());
        let base = trajcl_backend();
        let pool: Vec<Trajectory> = (0..6)
            .map(|i| traj(5 + i, 100.0 + 150.0 * i as f64))
            .collect();
        let cfg = trajcl_core::FinetuneConfig {
            train: trajcl_nn::PairRegression {
                pairs_per_epoch: 8,
                batch_pairs: 4,
                epochs: 1,
                ..Default::default()
            },
            ..trajcl_core::FinetuneConfig::default()
        };
        let estimator = trajcl_core::finetune(
            base.model(),
            base.featurizer(),
            &pool,
            HeuristicMeasure::Hausdorff,
            &cfg,
            &mut StdRng::seed_from_u64(4),
        );
        let dim = base.dim();
        let finetuned =
            FinetunedBackend::new(estimator, base.featurizer().clone(), "Hausdorff", dim);
        assert_concurrent_embeds_match_serial(finetuned, |b| b.infer.idle());
    }

    #[test]
    fn embedding_is_deterministic_per_call() {
        let backend = trajcl_backend();
        let batch = [traj(6, 100.0), traj(9, 500.0)];
        let e1 = backend.embed_batch(&batch).unwrap();
        let e2 = backend.embed_batch(&batch).unwrap();
        assert!(
            e1.approx_eq(&e2, 0.0),
            "same input must embed to identical bytes"
        );
    }

    #[test]
    fn empty_inputs_surface_engine_errors() {
        let backend: Box<dyn SimilarityBackend> = Box::new(trajcl_backend());
        assert!(matches!(
            backend.embed_batch(&[]),
            Err(EngineError::EmptyBatch)
        ));
        let empty = Trajectory::new(Vec::new());
        assert!(matches!(
            backend.embed_batch(&[traj(5, 100.0), empty.clone()]),
            Err(EngineError::EmptyTrajectory { index: 1 })
        ));
        let heuristic = HeuristicBackend::new(HeuristicMeasure::Dtw);
        assert!(matches!(
            heuristic.distance(&empty, &traj(4, 100.0)),
            Err(EngineError::EmptyTrajectory { .. })
        ));
    }

    #[test]
    fn heuristic_backend_matches_exact_measure() {
        let backend = HeuristicBackend::new(HeuristicMeasure::Hausdorff);
        let a = traj(10, 100.0);
        let b = traj(10, 400.0);
        assert_eq!(
            backend.distance(&a, &b).unwrap(),
            HeuristicMeasure::Hausdorff.distance(&a, &b)
        );
    }

    #[test]
    fn gen_smoke_rng_compiles() {
        // Guards the shim's Rng surface used throughout the engine.
        let mut rng = StdRng::seed_from_u64(9);
        let _: f64 = rng.gen();
    }
}
