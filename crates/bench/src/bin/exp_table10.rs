//! Table X — HR@5, HR@20 and R5@20 of self-supervised (fine-tuned) and
//! supervised methods approximating the four heuristic measures.
//!
//! Expected shape (paper): TrajCL* best overall, TrajCL second; pre-trained
//! plus fine-tuned beats the supervised methods in most cells; Hausdorff
//! and Fréchet are the easiest targets (R5@20 near 0.9+ for TrajCL*).
//!
//! Fine-tuning protocol per §V-F: the downstream pool is split 7:1:2. Every
//! row trains with one recipe through one trainer, `trajcl_nn::train_pairs`:
//! the self-supervised baselines are fine-tuned and the supervised ones
//! trained from scratch on all their parameters, TrajCL on its last encoder
//! layer + MLP head (TrajCL* on all layers).

use rand::rngs::StdRng;
use rand::SeedableRng;
use trajcl_baselines::{train_pair_regression, T3s, Traj2SimVec, TrajGat, TrajectoryEncoder};
use trajcl_bench::{heuristic_set, train_all, ExperimentEnv, Scale, Table};
use trajcl_core::{finetune, l1_distances, FinetuneConfig, FinetuneScope, TrajClConfig};
use trajcl_data::{hit_ratio, recall_k_at_m, DatasetProfile};
use trajcl_geo::Trajectory;
use trajcl_measures::pairwise_distances;
use trajcl_nn::PairRegression;
use trajcl_tensor::Tensor;

/// Evaluates HR@5 / HR@20 / R5@20 of predicted vs true distance matrices.
fn metrics(true_d: &[f64], pred_d: &[f64], db: usize, queries: usize) -> [f64; 3] {
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

fn main() {
    let scale = Scale::from_args();
    let mut cfg = TrajClConfig::scaled_default();
    cfg.dim = 32;
    cfg.max_epochs = 2;
    let profile = DatasetProfile::porto();
    let env = ExperimentEnv::new(profile, &scale, cfg.dim, cfg.max_len, 20);
    eprintln!(
        "[{}] pre-training self-supervised models...",
        profile.name()
    );
    let models = train_all(&env, &cfg, 20);

    // Downstream pool split 7:1:2 (train : val : eval).
    let pool = &env.splits.downstream;
    let n = pool.len();
    let ft_train = &pool[..n * 7 / 10];
    let eval_all = &pool[n * 8 / 10..];
    let n_q = (eval_all.len() / 4).clamp(4, 20);
    let queries: Vec<Trajectory> = eval_all[..n_q].to_vec();
    let database: Vec<Trajectory> = eval_all[n_q..].to_vec();
    let db = database.len();
    eprintln!(
        "fine-tune pool: {} train, {} queries x {} database",
        ft_train.len(),
        n_q,
        db
    );

    let recipe = PairRegression {
        pairs_per_epoch: 128,
        batch_pairs: 16,
        epochs: 2,
        lr: 2e-3,
    };

    let mut table = Table::new(
        format!(
            "Table X — approximating heuristic measures ({})",
            profile.name()
        ),
        &["measure", "HR@5", "HR@20", "R5@20"],
    );
    let mut rng = StdRng::seed_from_u64(21);

    for measure in heuristic_set(profile) {
        eprintln!("[{}] computing ground truth...", measure.name());
        let true_d = pairwise_distances(&queries, &database, measure);

        let mut add = |name: String, q_emb: Tensor, d_emb: Tensor| {
            let pred = l1_distances(&q_emb, &d_emb);
            let m = metrics(&true_d, &pred, db, n_q);
            table.row(
                name,
                vec![
                    measure.name().into(),
                    format!("{:.3}", m[0]),
                    format!("{:.3}", m[1]),
                    format!("{:.3}", m[2]),
                ],
            );
        };

        // One baseline row: pair regression on every parameter of `$model`.
        macro_rules! baseline_row {
            ($name:expr, $model:expr) => {{
                let mut m = $model;
                train_pair_regression(&mut m, ft_train, measure, &recipe, &mut rng);
                let q = m.embed(&queries, &mut rng);
                let d = m.embed(&database, &mut rng);
                add($name.into(), q, d);
            }};
        }
        eprintln!("[{}] fine-tuning baselines...", measure.name());
        {
            // Each baseline is fine-tuned from its pre-trained state; clone
            // the stores so one measure's tuning does not leak into the next.
            let mut t2v =
                trajcl_baselines::T2Vec::new(env.token_featurizer.clone(), cfg.dim, &mut rng);
            t2v.store_mut().copy_values_from(models.t2vec.store());
            baseline_row!("t2vec (ft)", t2v);
        }
        if let Some(cstrm_ref) = models.cstrm.as_ref() {
            let cstrm_cfg = trajcl_baselines::CstrmConfig {
                dim: cfg.dim,
                heads: cfg.heads,
                layers: cfg.layers,
                ..Default::default()
            };
            let mut c =
                trajcl_baselines::Cstrm::new(env.token_featurizer.clone(), &cstrm_cfg, &mut rng);
            c.store_mut().copy_values_from(cstrm_ref.store());
            baseline_row!("CSTRM (ft)", c);
        }

        // TrajCL (last layer) and TrajCL* (all layers).
        eprintln!("[{}] fine-tuning TrajCL...", measure.name());
        for (name, scope) in [
            ("TrajCL (ft)", FinetuneScope::LastLayer),
            ("TrajCL* (ft)", FinetuneScope::AllLayers),
        ] {
            let ft_cfg = FinetuneConfig {
                scope,
                train: recipe.clone(),
            };
            let est = finetune(
                &models.trajcl.online,
                &env.featurizer,
                ft_train,
                measure,
                &ft_cfg,
                &mut rng,
            );
            add(
                name.into(),
                est.embed(&env.featurizer, &queries),
                est.embed(&env.featurizer, &database),
            );
        }

        // Supervised methods trained from scratch on the same pairs.
        eprintln!("[{}] training supervised baselines...", measure.name());
        let tf = &env.token_featurizer;
        baseline_row!(
            "Traj2SimVec",
            Traj2SimVec::new(tf.clone(), cfg.dim, &mut rng)
        );
        baseline_row!(
            "TrajGAT",
            TrajGat::new(tf.clone(), cfg.dim, cfg.heads, 1, &mut rng)
        );
        baseline_row!("T3S", T3s::new(tf.clone(), cfg.dim, cfg.heads, &mut rng));
    }
    table.print();
    table.save_json("table10");
    println!(
        "paper shape check: TrajCL*/TrajCL lead most cells; Hausdorff/Frechet easiest targets."
    );
}
