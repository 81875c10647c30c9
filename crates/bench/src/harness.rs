//! Shared experiment harness: dataset environments, model training
//! registry, and protocol evaluation used by every `exp_*` binary.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;
use trajcl_baselines::{
    Cstrm, CstrmConfig, E2dtc, E2dtcConfig, T2Vec, T2VecConfig, TokenFeaturizer, TrajectoryEncoder,
    TrjSr, TrjSrConfig,
};
use trajcl_core::{
    build_featurizer, l1_distances, train, EncoderVariant, Featurizer, MocoState, TrajClConfig,
};
use trajcl_data::{mean_rank, Dataset, DatasetProfile, QueryProtocol, Splits};
use trajcl_engine::{Engine, EngineError};
use trajcl_geo::Trajectory;
use trajcl_measures::{pairwise_distances, HeuristicMeasure};
use trajcl_nn::StepDecay;
use trajcl_tensor::Tensor;

/// Experiment scale knobs (paper sizes ÷ ~100 by default; every binary
/// accepts `--train`, `--db`, `--queries`, `--pool` overrides).
#[derive(Debug, Clone)]
pub struct Scale {
    /// Trajectories generated per dataset.
    pub dataset_size: usize,
    /// Contrastive training set size.
    pub train_size: usize,
    /// Database size for ranking experiments.
    pub db_size: usize,
    /// Number of queries.
    pub n_queries: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            dataset_size: 1600,
            train_size: 300,
            db_size: 600,
            n_queries: 50,
        }
    }
}

impl Scale {
    /// Reads overrides from command-line arguments of the form
    /// `--train 500 --db 1000 --queries 100 --pool 4000`.
    pub fn from_args() -> Self {
        let mut scale = Scale::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i + 1 < args.len() {
            let val = || args[i + 1].parse::<usize>().ok();
            match args[i].as_str() {
                "--train" => scale.train_size = val().unwrap_or(scale.train_size),
                "--db" => scale.db_size = val().unwrap_or(scale.db_size),
                "--queries" => scale.n_queries = val().unwrap_or(scale.n_queries),
                "--pool" => scale.dataset_size = val().unwrap_or(scale.dataset_size),
                _ => {}
            }
            i += 1;
        }
        // The test pool (4/5 of the post-train remainder) must cover the DB.
        let needed = scale.train_size + scale.train_size / 10 + scale.db_size * 5 / 4 + 8;
        if scale.dataset_size < needed {
            scale.dataset_size = needed;
        }
        scale
    }
}

/// A fully prepared dataset environment.
pub struct ExperimentEnv {
    /// The dataset profile.
    pub profile: DatasetProfile,
    /// Generated dataset.
    pub dataset: Dataset,
    /// Train/val/test/downstream splits.
    pub splits: Splits,
    /// TrajCL featurizer (grid + node2vec table + normalisation).
    pub featurizer: Featurizer,
    /// Tokeniser shared by the baselines.
    pub token_featurizer: TokenFeaturizer,
    /// Scale used.
    pub scale: Scale,
    /// Seed for reproducibility.
    pub seed: u64,
}

impl ExperimentEnv {
    /// Generates data and featurizers for `profile` (deterministic per
    /// profile + seed).
    pub fn new(
        profile: DatasetProfile,
        scale: &Scale,
        dim: usize,
        max_len: usize,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ profile.seed());
        let dataset = Dataset::generate(profile, scale.dataset_size, seed);
        let splits = dataset.split(scale.train_size, &mut rng);
        let featurizer = build_featurizer(&dataset, dim, max_len, &mut rng);
        let token_featurizer = TokenFeaturizer::new(dataset.region, profile.cell_side(), max_len);
        ExperimentEnv {
            profile,
            dataset,
            splits,
            featurizer,
            token_featurizer,
            scale: scale.clone(),
            seed,
        }
    }

    /// Builds the §V-B query protocol from the test split.
    pub fn protocol(&self) -> QueryProtocol {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xBEEF);
        QueryProtocol::build(
            &self.splits.test,
            self.scale.n_queries.min(self.splits.test.len() / 2),
            self.scale.db_size.min(self.splits.test.len()),
            &mut rng,
        )
    }
}

/// All trained learned models for one environment.
pub struct TrainedModels {
    /// TrajCL (MoCo state holding the online model).
    pub trajcl: MocoState,
    /// t2vec baseline.
    pub t2vec: T2Vec,
    /// TrjSR baseline.
    pub trjsr: TrjSr,
    /// E2DTC baseline.
    pub e2dtc: E2dtc,
    /// CSTRM baseline (`None` when profile = Germany, mirroring the
    /// paper's OOM).
    pub cstrm: Option<Cstrm>,
    /// Wall-clock training seconds per model.
    pub train_seconds: BTreeMap<&'static str, f64>,
}

/// Names of the learned methods in table order.
pub const LEARNED_METHODS: [&str; 5] = ["t2vec", "TrjSR", "E2DTC", "CSTRM", "TrajCL"];

/// Names of the heuristic methods in table order.
pub fn heuristic_set(profile: DatasetProfile) -> [HeuristicMeasure; 4] {
    // EDR threshold scales with the dataset's spatial granularity.
    HeuristicMeasure::paper_set(profile.cell_side())
}

/// Trains TrajCL and all self-supervised baselines on the environment's
/// training split. `cfg` controls TrajCL; baseline widths follow it.
pub fn train_all(env: &ExperimentEnv, cfg: &TrajClConfig, seed: u64) -> TrainedModels {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut secs = BTreeMap::new();
    let schedule = StepDecay::trajcl_default();

    let t0 = Instant::now();
    let mut trajcl = MocoState::new(cfg, EncoderVariant::Dual, &mut rng);
    train(
        &mut trajcl,
        &env.featurizer,
        &env.splits.train,
        &schedule,
        &mut rng,
    );
    secs.insert("TrajCL", t0.elapsed().as_secs_f64());

    let t2v_cfg = T2VecConfig {
        dim: cfg.dim,
        epochs: cfg.max_epochs.min(3),
        batch_size: cfg.batch_size,
        ..Default::default()
    };
    let t0 = Instant::now();
    let mut t2vec = T2Vec::new(env.token_featurizer.clone(), cfg.dim, &mut rng);
    t2vec.train(&env.splits.train, &t2v_cfg, &mut rng);
    secs.insert("t2vec", t0.elapsed().as_secs_f64());

    let t0 = Instant::now();
    let trjsr_cfg = TrjSrConfig {
        dim: cfg.dim,
        epochs: cfg.max_epochs.min(3),
        batch_size: cfg.batch_size,
        ..Default::default()
    };
    let mut trjsr = TrjSr::new(env.dataset.region, &trjsr_cfg, &mut rng);
    trjsr.train(&env.splits.train, &trjsr_cfg, &mut rng);
    secs.insert("TrjSR", t0.elapsed().as_secs_f64());

    let t0 = Instant::now();
    let e2dtc_cfg = E2dtcConfig {
        backbone: T2VecConfig {
            dim: cfg.dim,
            epochs: cfg.max_epochs.min(2),
            batch_size: cfg.batch_size,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut e2dtc = E2dtc::new(env.token_featurizer.clone(), cfg.dim, 8, &mut rng);
    e2dtc.train(&env.splits.train, &e2dtc_cfg, &mut rng);
    secs.insert("E2DTC", t0.elapsed().as_secs_f64());

    // CSTRM OOMs on Germany in the paper (trainable cell table over a
    // country-wide grid); we reproduce the mechanism by refusing to
    // allocate tables past a budget.
    let cstrm = if cstrm_table_feasible(&env.token_featurizer, cfg.dim) {
        let t0 = Instant::now();
        let cstrm_cfg = CstrmConfig {
            dim: cfg.dim,
            heads: cfg.heads,
            layers: cfg.layers,
            epochs: cfg.max_epochs.min(3),
            batch_size: cfg.batch_size,
            ..Default::default()
        };
        let mut m = Cstrm::new(env.token_featurizer.clone(), &cstrm_cfg, &mut rng);
        m.train(&env.splits.train, &cstrm_cfg, &mut rng);
        secs.insert("CSTRM", t0.elapsed().as_secs_f64());
        Some(m)
    } else {
        None
    };

    TrainedModels {
        trajcl,
        t2vec,
        trjsr,
        e2dtc,
        cstrm,
        train_seconds: secs,
    }
}

/// Whether CSTRM's trainable cell table fits the (scaled) memory budget.
pub fn cstrm_table_feasible(tf: &TokenFeaturizer, dim: usize) -> bool {
    // 2 GB of f32 at full scale ~ paper's V100; scaled budget: 64M floats.
    tf.vocab() * dim <= 64_000_000
}

impl TrainedModels {
    /// Embeds `trajs` with the named learned method.
    ///
    /// # Panics
    /// Panics on an unknown name or if CSTRM was infeasible.
    pub fn embed(&self, name: &str, trajs: &[Trajectory], rng: &mut StdRng) -> Tensor {
        match name {
            "TrajCL" => panic!("use embed_trajcl with the env's featurizer"),
            "t2vec" => self.t2vec.embed(trajs, rng),
            "TrjSR" => self.trjsr.embed(trajs, rng),
            "E2DTC" => self.e2dtc.embed(trajs, rng),
            "CSTRM" => self
                .cstrm
                .as_ref()
                .expect("CSTRM infeasible for this profile")
                .embed(trajs, rng),
            other => panic!("unknown learned method {other}"),
        }
    }

    /// Embeds with TrajCL using an explicit featurizer (the env's),
    /// through the tape-free serving path (no RNG involved).
    pub fn embed_trajcl(&self, featurizer: &Featurizer, trajs: &[Trajectory]) -> Tensor {
        self.trajcl.online.embed(featurizer, trajs)
    }

    /// Mean rank of a learned method on a protocol.
    pub fn mean_rank_learned(
        &self,
        name: &str,
        featurizer: &Featurizer,
        protocol: &QueryProtocol,
        rng: &mut StdRng,
    ) -> f64 {
        let (q, d) = if name == "TrajCL" {
            (
                self.embed_trajcl(featurizer, &protocol.queries),
                self.embed_trajcl(featurizer, &protocol.database),
            )
        } else {
            (
                self.embed(name, &protocol.queries, rng),
                self.embed(name, &protocol.database, rng),
            )
        };
        let dists = l1_distances(&q, &d);
        mean_rank(&dists, protocol.database.len(), &protocol.ground_truth)
    }
}

impl TrainedModels {
    /// Packages the trained TrajCL model as an [`Engine`] over `database`
    /// (embedded at build; `nprobe` is the probe an index over its table
    /// uses) — the harness entry point for engine-routed experiments (kNN
    /// costs, index builds, throughput benches).
    pub fn trajcl_engine(
        &self,
        featurizer: &Featurizer,
        database: Vec<Trajectory>,
        nprobe: usize,
    ) -> Result<Engine, EngineError> {
        Engine::builder()
            .trajcl(self.trajcl.online.clone(), featurizer.clone())
            .database(database)
            .nprobe(nprobe)
            .build()
    }
}

impl ExperimentEnv {
    /// An exact-measure engine over `database` (the heuristic comparison
    /// arm of the kNN experiments).
    pub fn heuristic_engine(
        &self,
        measure: HeuristicMeasure,
        database: Vec<Trajectory>,
    ) -> Result<Engine, EngineError> {
        Engine::builder()
            .heuristic(measure)
            .database(database)
            .build()
    }
}

/// Trains only TrajCL (used by the parameter studies, Figs. 5/7–12).
pub fn train_trajcl_only(
    env: &ExperimentEnv,
    cfg: &TrajClConfig,
    variant: EncoderVariant,
    seed: u64,
) -> (MocoState, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let schedule = StepDecay::trajcl_default();
    let t0 = Instant::now();
    let mut moco = MocoState::new(cfg, variant, &mut rng);
    train(
        &mut moco,
        &env.featurizer,
        &env.splits.train,
        &schedule,
        &mut rng,
    );
    (moco, t0.elapsed().as_secs_f64())
}

/// Mean rank of a TrajCL model under the three standard settings of the
/// parameter studies: clean |D|, ρs = 0.2 down-sampling, ρd = 0.2
/// distortion. Returns `[clean, downsampled, distorted]`.
pub fn eval_three_settings(
    moco: &MocoState,
    featurizer: &Featurizer,
    base: &QueryProtocol,
    seed: u64,
) -> [f64; 3] {
    use trajcl_data::{distort, downsample};
    let mut drng = StdRng::seed_from_u64(seed);
    let down = base.degrade(|t| downsample(t, 0.2, &mut drng));
    let dist = base.degrade(|t| distort(t, 0.2, 100.0, 0.5, &mut drng));
    let rank = |p: &QueryProtocol| -> f64 {
        let q = moco.online.embed(featurizer, &p.queries);
        let d = moco.online.embed(featurizer, &p.database);
        mean_rank(&l1_distances(&q, &d), p.database.len(), &p.ground_truth)
    };
    [rank(base), rank(&down), rank(&dist)]
}

/// Mean rank of a heuristic measure on a protocol.
pub fn mean_rank_heuristic(measure: HeuristicMeasure, protocol: &QueryProtocol) -> f64 {
    let dists = pairwise_distances(&protocol.queries, &protocol.database, measure);
    mean_rank(&dists, protocol.database.len(), &protocol.ground_truth)
}

/// Mean rank from a precomputed full distance matrix restricted to the
/// first `db_size` database entries (ground truths are stored first, so
/// prefixes are valid databases).
pub fn mean_rank_prefix(
    dists: &[f64],
    full_db: usize,
    db_size: usize,
    ground_truth: &[usize],
) -> f64 {
    let mut total = 0.0;
    for (qi, &gt) in ground_truth.iter().enumerate() {
        let row = &dists[qi * full_db..qi * full_db + db_size];
        let t = row[gt];
        total += (1 + row.iter().filter(|&&d| d < t).count()) as f64;
    }
    total / ground_truth.len() as f64
}

/// Mean ranks of a heuristic for several database sizes, computing the
/// distance matrix once.
pub fn heuristic_rank_sweep(
    measure: HeuristicMeasure,
    protocol: &QueryProtocol,
    sizes: &[usize],
) -> Vec<f64> {
    let full = protocol.database.len();
    let dists = pairwise_distances(&protocol.queries, &protocol.database, measure);
    sizes
        .iter()
        .map(|&s| mean_rank_prefix(&dists, full, s.min(full), &protocol.ground_truth))
        .collect()
}

impl TrainedModels {
    /// Mean ranks of a learned method for several database sizes, embedding
    /// the full protocol once.
    pub fn learned_rank_sweep(
        &self,
        name: &str,
        featurizer: &Featurizer,
        protocol: &QueryProtocol,
        sizes: &[usize],
        rng: &mut StdRng,
    ) -> Vec<f64> {
        let (q, d) = if name == "TrajCL" {
            (
                self.embed_trajcl(featurizer, &protocol.queries),
                self.embed_trajcl(featurizer, &protocol.database),
            )
        } else {
            (
                self.embed(name, &protocol.queries, rng),
                self.embed(name, &protocol.database, rng),
            )
        };
        let full = protocol.database.len();
        let dists = l1_distances(&q, &d);
        sizes
            .iter()
            .map(|&s| mean_rank_prefix(&dists, full, s.min(full), &protocol.ground_truth))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        Scale {
            dataset_size: 260,
            train_size: 40,
            db_size: 60,
            n_queries: 10,
        }
    }

    #[test]
    fn env_builds_consistent_splits() {
        let scale = tiny_scale();
        let env = ExperimentEnv::new(DatasetProfile::porto(), &scale, 16, 64, 7);
        assert_eq!(env.splits.train.len(), 40);
        assert!(env.splits.test.len() >= 60);
        let proto = env.protocol();
        assert_eq!(proto.queries.len(), 10);
        assert_eq!(proto.database.len(), 60);
    }

    #[test]
    fn heuristic_mean_rank_finds_planted_matches() {
        let scale = tiny_scale();
        let env = ExperimentEnv::new(DatasetProfile::porto(), &scale, 16, 64, 8);
        let proto = env.protocol();
        let mr = mean_rank_heuristic(HeuristicMeasure::Hausdorff, &proto);
        // Odd/even splits of the same trajectory are near-identical under
        // Hausdorff — mean rank must be far better than random (db/2 = 30).
        assert!(mr < 8.0, "Hausdorff mean rank {mr} too poor");
    }

    #[test]
    fn engine_entry_points_serve_knn() {
        let scale = tiny_scale();
        let env = ExperimentEnv::new(DatasetProfile::porto(), &scale, 16, 64, 10);
        let db: Vec<Trajectory> = env.splits.test[..40].to_vec();

        let heuristic = env
            .heuristic_engine(HeuristicMeasure::Hausdorff, db.clone())
            .expect("heuristic engine");
        let hits = heuristic.knn(&db[5], 3).expect("knn");
        assert_eq!(hits[0].0, 5, "exact measure ranks the query itself first");

        // A fresh (untrained) TrajCL state is enough to validate routing.
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = TrajClConfig::test_default();
        let models = TrainedModels {
            trajcl: MocoState::new(&cfg, EncoderVariant::Dual, &mut rng),
            t2vec: T2Vec::new(env.token_featurizer.clone(), 16, &mut rng),
            trjsr: TrjSr::new(env.dataset.region, &TrjSrConfig::default(), &mut rng),
            e2dtc: E2dtc::new(env.token_featurizer.clone(), 16, 4, &mut rng),
            cstrm: None,
            train_seconds: BTreeMap::new(),
        };
        let engine = models
            .trajcl_engine(&env.featurizer, db.clone(), 6)
            .expect("trajcl engine");
        assert_eq!(engine.nprobe(), 6);
        let hits = engine.knn(&db[5], 3).expect("knn");
        assert_eq!(hits[0].0, 5, "self-query through the TrajCL engine");
    }

    #[test]
    fn cstrm_feasibility_gate() {
        let scale = tiny_scale();
        let porto = ExperimentEnv::new(DatasetProfile::porto(), &scale, 16, 64, 9);
        assert!(cstrm_table_feasible(&porto.token_featurizer, 64));
        let germany = ExperimentEnv::new(DatasetProfile::germany(), &scale, 16, 64, 9);
        // Germany at the paper's 100 m cells would blow up; our profile uses
        // 10 km cells for the other models, so emulate the paper's check at
        // the fine granularity.
        let fine = TokenFeaturizer::new(germany.dataset.region, 100.0, 200);
        assert!(!cstrm_table_feasible(&fine, 256));
    }
}
