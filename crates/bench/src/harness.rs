//! Shared experiment harness: command-line scale, the per-profile training
//! [`Recipe`], the lazily built [`Zoo`] of environments and trained models,
//! and the protocol evaluation every `exp` report reads.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::time::Instant;
use trajcl_baselines::{
    Cstrm, CstrmConfig, E2dtc, E2dtcConfig, T2Vec, T2VecConfig, TokenFeaturizer, TrajectoryEncoder,
    TrjSr, TrjSrConfig,
};
use trajcl_core::{
    build_featurizer, l1_distances, train, EncoderVariant, Featurizer, MocoState, TrajClConfig,
};
use trajcl_data::{
    hit_ratio, mean_rank, recall_k_at_m, Dataset, DatasetProfile, QueryProtocol, Splits,
};
use trajcl_engine::{Engine, EngineError};
use trajcl_geo::Trajectory;
use trajcl_measures::{pairwise_distances, HeuristicMeasure};
use trajcl_nn::{PairRegression, StepDecay};
use trajcl_tensor::Tensor;

/// Table X's fewest queries: a quarter of its held-out pool, at least this.
pub const TABLE10_MIN_QUERIES: usize = 4;

/// Experiment scale knobs (paper sizes ÷ ~100 by default; `exp` accepts
/// `--train`, `--db`, `--queries`, `--pool` overrides).
#[derive(Debug, Clone, PartialEq, Eq)]
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

impl Scale {
    /// Grows the dataset until the test pool (4/5 of the post-train
    /// remainder) covers the database.
    fn fit_pool(mut self) -> Self {
        let needed = self.train_size + self.train_size / 10 + self.db_size * 5 / 4 + 8;
        self.dataset_size = self.dataset_size.max(needed);
        self
    }

    /// Grows the dataset until Table X's held-out fifth of the downstream
    /// split (the fifth of the post-train remainder the test pool leaves)
    /// holds its [`TABLE10_MIN_QUERIES`] queries and a database row.
    fn fit_downstream(mut self) -> Self {
        let held_out = |n: usize| {
            let rest = n.saturating_sub(self.train_size + (self.train_size / 10).max(1));
            let downstream = rest - rest * 4 / 5;
            downstream - downstream * 8 / 10
        };
        while held_out(self.dataset_size) <= TABLE10_MIN_QUERIES {
            self.dataset_size += 1;
        }
        self
    }
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

/// The parsed command line of `exp`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The artifact to build (`table3`, `fig10`, `all`, ...).
    pub command: String,
    /// Scale from `--train N --db N --queries N --pool N`.
    pub scale: Scale,
    /// `--profiles all`: Table III covers every profile, not only Porto.
    pub all_profiles: bool,
}

impl Args {
    /// Parses `<command> [--train N] [--db N] [--queries N] [--pool N]
    /// [--profiles all]` (the arguments after the program name). An
    /// unknown option, a missing value or a value that is not a count is
    /// an error, so a mistyped run never falls back to the default scale.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut it = args.iter();
        let command = match it.next() {
            Some(c) if !c.starts_with('-') => c.clone(),
            _ => return Err("missing artifact name".into()),
        };
        let mut scale = Scale::default();
        let mut all_profiles = false;
        while let Some(flag) = it.next() {
            let field = match flag.as_str() {
                "--train" => Some(&mut scale.train_size),
                "--db" => Some(&mut scale.db_size),
                "--queries" => Some(&mut scale.n_queries),
                "--pool" => Some(&mut scale.dataset_size),
                "--profiles" => None,
                other => return Err(format!("unknown option {other}")),
            };
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match field {
                Some(field) => {
                    *field = value
                        .parse()
                        .map_err(|_| format!("{flag} needs a count, not {value:?}"))?;
                }
                None if value == "all" => all_profiles = true,
                None => return Err(format!("--profiles takes only `all`, not {value:?}")),
            }
        }
        Ok(Args {
            command,
            scale: scale.fit_pool().fit_downstream(),
            all_profiles,
        })
    }
}

/// The one training recipe of a dataset profile. Every table reads the
/// models it trains; a parameter study changes only its own knob of it.
#[derive(Debug, Clone)]
pub struct Recipe {
    /// TrajCL configuration; the baselines' widths follow it.
    pub cfg: TrajClConfig,
    /// Dataset, split and training seed.
    pub seed: u64,
    /// Training-set size in tenths of `--train` (10 = all of it).
    pub train_tenths: usize,
}

impl Recipe {
    /// Table III's recipe (dim 32, 3 epochs, seed 3) for every profile.
    /// Germany trains on 3/10 of the set, as the paper's Germany set is
    /// the small one (30k against 200k trajectories, Table VII).
    pub fn for_profile(profile: DatasetProfile) -> Recipe {
        let mut cfg = TrajClConfig::scaled_default();
        cfg.dim = 32;
        cfg.max_epochs = 3;
        let train_tenths = if profile == DatasetProfile::Germany {
            3
        } else {
            10
        };
        Recipe {
            cfg,
            seed: 3,
            train_tenths,
        }
    }

    /// `base` with this recipe's training-set size (a reduced one never
    /// below 20 trajectories).
    pub fn scale(&self, base: &Scale) -> Scale {
        let mut scale = base.clone();
        if self.train_tenths < 10 {
            scale.train_size = (scale.train_size * self.train_tenths / 10).max(20);
        }
        scale.fit_pool()
    }

    /// Whether a TrajCL training with these settings is this recipe's.
    fn is(&self, cfg: &TrajClConfig, variant: EncoderVariant) -> bool {
        // `TrajClConfig` has no `PartialEq`; its Debug text lists every
        // field, floats in their round-trip form.
        variant == EncoderVariant::Dual && format!("{cfg:?}") == format!("{:?}", self.cfg)
    }
}

/// What a [`Zoo`] built: the expensive steps a run pays for.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BuildCounts {
    /// Dataset environments (data, splits, node2vec featurizer).
    pub envs: usize,
    /// [`train_all`] runs (TrajCL plus every self-supervised baseline).
    pub zoos: usize,
    /// TrajCL trainings outside [`train_all`] (parameter-study points).
    pub trajcl: usize,
}

/// Everything one `exp` run shares, built lazily and once: an
/// [`ExperimentEnv`] per (profile, dim) and a [`TrainedModels`] per
/// (profile, recipe).
pub struct Zoo {
    /// The run's scale (before each recipe's adjustment).
    pub scale: Scale,
    /// `--profiles all` (see [`Args::all_profiles`]).
    pub all_profiles: bool,
    /// What this zoo has built so far.
    pub counts: BuildCounts,
    recipe: fn(DatasetProfile) -> Recipe,
    envs: HashMap<(DatasetProfile, usize), Rc<ExperimentEnv>>,
    models: HashMap<DatasetProfile, Rc<TrainedModels>>,
}

impl Zoo {
    /// An empty zoo over [`Recipe::for_profile`].
    pub fn new(scale: Scale, all_profiles: bool) -> Self {
        Self::with_recipes(scale, all_profiles, Recipe::for_profile)
    }

    /// An empty zoo over other recipes (small ones for tests).
    fn with_recipes(
        scale: Scale,
        all_profiles: bool,
        recipe: fn(DatasetProfile) -> Recipe,
    ) -> Self {
        Zoo {
            scale,
            all_profiles,
            counts: BuildCounts::default(),
            recipe,
            envs: HashMap::new(),
            models: HashMap::new(),
        }
    }

    /// The recipe of `profile`.
    pub fn recipe(&self, profile: DatasetProfile) -> Recipe {
        (self.recipe)(profile)
    }

    /// The environment of `profile` at embedding width `dim`, at the
    /// recipe's scale and seed.
    pub fn env(&mut self, profile: DatasetProfile, dim: usize) -> Rc<ExperimentEnv> {
        if let Some(env) = self.envs.get(&(profile, dim)) {
            return Rc::clone(env);
        }
        let recipe = self.recipe(profile);
        eprintln!(
            "[{}] building dataset and featurizer (d={dim})...",
            profile.name()
        );
        let env = Rc::new(ExperimentEnv::new(
            profile,
            &recipe.scale(&self.scale),
            dim,
            recipe.cfg.max_len,
            recipe.seed,
        ));
        self.counts.envs += 1;
        self.envs.insert((profile, dim), Rc::clone(&env));
        env
    }

    /// The recipe's environment and trained models of `profile`.
    pub fn trained(&mut self, profile: DatasetProfile) -> (Rc<ExperimentEnv>, Rc<TrainedModels>) {
        let recipe = self.recipe(profile);
        let env = self.env(profile, recipe.cfg.dim);
        if let Some(models) = self.models.get(&profile) {
            return (env, Rc::clone(models));
        }
        eprintln!(
            "[{}] training models (train={})...",
            profile.name(),
            env.splits.train.len()
        );
        let models = Rc::new(train_all(&env, &recipe.cfg, recipe.seed));
        self.counts.zoos += 1;
        self.models.insert(profile, Rc::clone(&models));
        (env, models)
    }

    /// TrajCL trained with `cfg` and `variant` on the first `n_train`
    /// trajectories of the shared train split (all of it when larger),
    /// with the training seeds of the recipe, and its training seconds.
    /// The recipe's own point is the zoo's model, not a second training.
    pub fn trajcl(
        &mut self,
        profile: DatasetProfile,
        cfg: &TrajClConfig,
        variant: EncoderVariant,
        n_train: usize,
    ) -> (Rc<MocoState>, f64) {
        let recipe = self.recipe(profile);
        let env = self.env(profile, cfg.dim);
        let train_set = &env.splits.train[..n_train.min(env.splits.train.len())];
        if recipe.is(cfg, variant) && train_set.len() == env.splits.train.len() {
            let (_, models) = self.trained(profile);
            return (Rc::clone(&models.trajcl), models.train_seconds["TrajCL"]);
        }
        self.counts.trajcl += 1;
        let mut rng = StdRng::seed_from_u64(recipe.seed);
        let (moco, secs) = train_trajcl_only(&env.featurizer, train_set, cfg, variant, &mut rng);
        (Rc::new(moco), secs)
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
    pub trajcl: Rc<MocoState>,
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
    let (trajcl, trajcl_secs) = train_trajcl_only(
        &env.featurizer,
        &env.splits.train,
        cfg,
        EncoderVariant::Dual,
        &mut rng,
    );
    secs.insert("TrajCL", trajcl_secs);

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
        trajcl: Rc::new(trajcl),
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
    /// Embeds `trajs` with the named learned method, each on the
    /// tape-free executor. TrajCL reads `featurizer` (the env's, or
    /// another one for a transfer); the baselines bring their own.
    ///
    /// # Panics
    /// Panics on an unknown name or if CSTRM was infeasible.
    pub fn embed(&self, name: &str, featurizer: &Featurizer, trajs: &[Trajectory]) -> Tensor {
        match name {
            "TrajCL" => self.trajcl.online.embed(featurizer, trajs),
            "t2vec" => self.t2vec.embed(trajs),
            "TrjSR" => self.trjsr.embed(trajs),
            "E2DTC" => self.e2dtc.embed(trajs),
            "CSTRM" => self
                .cstrm
                .as_ref()
                .expect("CSTRM infeasible for this profile")
                .embed(trajs),
            other => panic!("unknown learned method {other}"),
        }
    }

    /// Mean rank of a learned method on a protocol.
    pub fn mean_rank_learned(
        &self,
        name: &str,
        featurizer: &Featurizer,
        protocol: &QueryProtocol,
    ) -> f64 {
        let full = protocol.database.len();
        self.learned_rank_sweep(name, featurizer, protocol, &[full])[0]
    }

    /// Mean ranks of a learned method for several database sizes, embedding
    /// the full protocol once.
    pub fn learned_rank_sweep(
        &self,
        name: &str,
        featurizer: &Featurizer,
        protocol: &QueryProtocol,
        sizes: &[usize],
    ) -> Vec<f64> {
        let q = self.embed(name, featurizer, &protocol.queries);
        let d = self.embed(name, featurizer, &protocol.database);
        let full = protocol.database.len();
        let dists = l1_distances(&q, &d);
        sizes
            .iter()
            .map(|&s| mean_rank_prefix(&dists, full, s.min(full), &protocol.ground_truth))
            .collect()
    }

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

/// Trains only TrajCL on `train_set`, drawing from the caller's `rng`
/// (so [`train_all`] keeps one stream), and its training seconds.
pub fn train_trajcl_only(
    featurizer: &Featurizer,
    train_set: &[Trajectory],
    cfg: &TrajClConfig,
    variant: EncoderVariant,
    rng: &mut StdRng,
) -> (MocoState, f64) {
    let schedule = StepDecay::trajcl_default();
    let t0 = Instant::now();
    let mut moco = MocoState::new(cfg, variant, rng);
    train(&mut moco, featurizer, train_set, &schedule, rng);
    (moco, t0.elapsed().as_secs_f64())
}

/// Mean rank of a TrajCL model on a protocol.
pub fn trajcl_mean_rank(moco: &MocoState, featurizer: &Featurizer, p: &QueryProtocol) -> f64 {
    let q = moco.online.embed(featurizer, &p.queries);
    let d = moco.online.embed(featurizer, &p.database);
    mean_rank(&l1_distances(&q, &d), p.database.len(), &p.ground_truth)
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
    [base, &down, &dist].map(|p| trajcl_mean_rank(moco, featurizer, p))
}

/// The downstream fine-tuning recipe (§V-F): every pair-regression row of
/// Table X and Fig. 7's fine-tuned ablation train with it.
pub const FINETUNE: PairRegression = PairRegression {
    pairs_per_epoch: 128,
    batch_pairs: 16,
    epochs: 2,
    lr: 2e-3,
};

/// HR@5, HR@20 and R5@20 of predicted against true `queries × db`
/// distance matrices, averaged over the queries.
pub fn hit_ratios(true_d: &[f64], pred_d: &[f64], db: usize, queries: usize) -> [f64; 3] {
    let mut out = [0.0f64; 3];
    for q in 0..queries {
        let t = &true_d[q * db..(q + 1) * db];
        let p = &pred_d[q * db..(q + 1) * db];
        out[0] += hit_ratio(t, p, 5);
        out[1] += hit_ratio(t, p, 20.min(db));
        out[2] += recall_k_at_m(t, p, 5, 20.min(db));
    }
    out.map(|v| v / queries as f64)
}

/// Mean rank of a heuristic measure on a protocol.
pub fn mean_rank_heuristic(measure: HeuristicMeasure, protocol: &QueryProtocol) -> f64 {
    heuristic_rank_sweep(measure, protocol, &[protocol.database.len()])[0]
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

    fn args(line: &str) -> Result<Args, String> {
        let words: Vec<String> = line.split_whitespace().map(String::from).collect();
        Args::parse(&words)
    }

    #[test]
    fn args_read_every_scale_flag() {
        let a = args("table3 --train 60 --db 40 --queries 8 --pool 2000").unwrap();
        assert_eq!(a.command, "table3");
        assert!(!a.all_profiles);
        let want = Scale {
            dataset_size: 2000,
            train_size: 60,
            db_size: 40,
            n_queries: 8,
        };
        assert_eq!(a.scale, want);
        // A pool too small for the split grows to fit it.
        let a = args("all --train 300 --db 600 --pool 10").unwrap();
        assert_eq!(a.scale.dataset_size, 300 + 30 + 750 + 8);
        // And until Table X holds 4 queries and a database row: at
        // `--train 8` that takes 110 trajectories (84 used to panic).
        for (pool, want) in [(84, 110), (109, 110), (110, 110), (111, 111)] {
            let a = args(&format!(
                "table10 --train 8 --db 8 --queries 2 --pool {pool}"
            ));
            assert_eq!(a.unwrap().scale.dataset_size, want, "--pool {pool}");
        }
        assert_eq!(args("fig10").unwrap().scale, Scale::default());
    }

    #[test]
    fn args_reject_unknown_options_and_bad_values() {
        for (line, want) in [
            ("table3 --trian 60", "unknown option --trian"),
            ("all --check", "unknown option --check"),
            ("table3 --db abc", "--db needs a count, not \"abc\""),
            ("table3 --queries -1", "--queries needs a count"),
            ("table3 --train", "--train needs a value"),
            ("--train 60", "missing artifact name"),
            ("", "missing artifact name"),
        ] {
            let err = args(line).expect_err(line);
            assert!(err.contains(want), "{line}: {err}");
        }
    }

    #[test]
    fn profiles_all_is_the_one_spelling() {
        assert!(args("table3 --profiles all").unwrap().all_profiles);
        assert!(args("all --profiles all --train 60").unwrap().all_profiles);
        // The artifact `all` is not the profile set.
        assert!(!args("all").unwrap().all_profiles);
        for line in ["table3 all", "table3 --profiles porto", "table3 --profiles"] {
            assert!(args(line).is_err(), "{line}");
        }
    }

    #[test]
    fn germany_recipe_trains_on_three_tenths() {
        let base = args("table7 --train 300").unwrap().scale;
        let porto = Recipe::for_profile(DatasetProfile::porto()).scale(&base);
        assert_eq!(porto, base);
        let germany = Recipe::for_profile(DatasetProfile::germany()).scale(&base);
        assert_eq!(germany.train_size, 90);
        // A tiny run keeps 20 training trajectories and a pool that holds them.
        let tiny = args("table7 --train 8 --db 1 --queries 1 --pool 1")
            .unwrap()
            .scale;
        let germany = Recipe::for_profile(DatasetProfile::germany()).scale(&tiny);
        assert_eq!(germany.train_size, 20);
        assert!(germany.dataset_size >= 20 + 2 + 8);
    }

    fn tiny_recipe(_: DatasetProfile) -> Recipe {
        let mut cfg = TrajClConfig::test_default();
        cfg.max_epochs = 1;
        Recipe {
            cfg,
            seed: 5,
            train_tenths: 10,
        }
    }

    #[test]
    fn one_training_per_profile_and_recipe() {
        let mut zoo = Zoo::with_recipes(tiny_scale(), false, tiny_recipe);
        let porto = DatasetProfile::porto();
        let cfg = zoo.recipe(porto).cfg;
        // Two reports ask for the zoo, a third for the recipe's point.
        let (env, first) = zoo.trained(porto);
        let (_, second) = zoo.trained(porto);
        assert!(Rc::ptr_eq(&first, &second));
        let (moco, secs) = zoo.trajcl(porto, &cfg, EncoderVariant::Dual, usize::MAX);
        assert!(Rc::ptr_eq(&moco, &first.trajcl));
        assert_eq!(secs, first.train_seconds["TrajCL"]);
        let one = BuildCounts {
            envs: 1,
            zoos: 1,
            trajcl: 0,
        };
        assert_eq!(zoo.counts, one);

        // Any other point trains, on the shared env and the recipe's seed,
        // so the same point trained alone gives the zoo's bits.
        let half = env.splits.train.len() / 2;
        let (small, _) = zoo.trajcl(porto, &cfg, EncoderVariant::Dual, half);
        assert!(!Rc::ptr_eq(&small, &first.trajcl));
        assert_eq!(zoo.counts.trajcl, 1);
        assert_eq!(zoo.counts.envs, 1);
        let mut rng = StdRng::seed_from_u64(5);
        let (alone, _) = train_trajcl_only(
            &env.featurizer,
            &env.splits.train,
            &cfg,
            EncoderVariant::Dual,
            &mut rng,
        );
        let some = &env.splits.test[..6];
        let bits = |m: &MocoState| -> Vec<u32> {
            let e = m.online.embed(&env.featurizer, some);
            e.data().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&alone), bits(&first.trajcl));
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
    fn trajcl_engine_serves_knn() {
        let scale = tiny_scale();
        let env = ExperimentEnv::new(DatasetProfile::porto(), &scale, 16, 64, 10);
        let db: Vec<Trajectory> = env.splits.test[..40].to_vec();

        // A fresh (untrained) TrajCL state is enough to validate routing.
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = TrajClConfig::test_default();
        let models = TrainedModels {
            trajcl: Rc::new(MocoState::new(&cfg, EncoderVariant::Dual, &mut rng)),
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
