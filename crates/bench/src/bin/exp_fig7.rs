//! Fig. 7 — ablation study: TrajCL vs TrajCL-MSM (vanilla attention,
//! structural only) vs TrajCL-concat (vanilla attention on concatenated
//! features), with and without fine-tuning.
//!
//! Expected shape (paper): TrajCL best on mean rank; TrajCL-concat worst
//! (naive concatenation confuses the feature space); with fine-tuning
//! TrajCL still leads HR@5 except near-ties on EDwP.

use rand::rngs::StdRng;
use rand::SeedableRng;
use trajcl_bench::harness::{eval_three_settings, train_trajcl_only};
use trajcl_bench::{ExperimentEnv, Scale, Table};
use trajcl_core::{
    finetune, l1_distances, EncoderVariant, FinetuneConfig, FinetuneScope, TrajClConfig,
};
use trajcl_data::{hit_ratio, DatasetProfile};
use trajcl_measures::{pairwise_distances, HeuristicMeasure};
use trajcl_nn::PairRegression;

fn main() {
    let scale = Scale::from_args();
    let mut cfg = TrajClConfig::scaled_default();
    cfg.dim = 32;
    cfg.max_epochs = 3;
    let profile = DatasetProfile::porto();
    let env = ExperimentEnv::new(profile, &scale, cfg.dim, cfg.max_len, 30);
    let base = env.protocol();

    let variants = [
        EncoderVariant::VanillaMsm,
        EncoderVariant::Concat,
        EncoderVariant::Dual,
    ];
    let mut no_ft = Table::new(
        "Fig. 7a — ablation, no fine-tuning (mean rank, Porto)",
        &["|D|=full", "ρs=0.2", "ρd=0.2"],
    );
    let mut with_ft = Table::new(
        "Fig. 7b — ablation, with fine-tuning (HR@5, Porto)",
        &["Hausdorff HR@5"],
    );

    for variant in variants {
        eprintln!("training {}...", variant.name());
        let (moco, _) = train_trajcl_only(&env, &cfg, variant, 31);
        let ranks = eval_three_settings(&moco, &env.featurizer, &base, 32);
        no_ft.row_f64(variant.name(), &ranks);

        // Fine-tune toward Hausdorff and measure HR@5 on held-out data.
        let mut rng = StdRng::seed_from_u64(33);
        let pool = &env.splits.downstream;
        let split = pool.len() * 7 / 10;
        let ft_cfg = FinetuneConfig {
            scope: FinetuneScope::AllLayers,
            train: PairRegression {
                pairs_per_epoch: 128,
                batch_pairs: 16,
                epochs: 2,
                lr: 2e-3,
            },
        };
        let est = finetune(
            &moco.online,
            &env.featurizer,
            &pool[..split],
            HeuristicMeasure::Hausdorff,
            &ft_cfg,
            &mut rng,
        );
        let eval = &pool[split..];
        let nq = (eval.len() / 4).max(2);
        let queries = &eval[..nq];
        let database = &eval[nq..];
        let true_d = pairwise_distances(queries, database, HeuristicMeasure::Hausdorff);
        let qe = est.embed(&env.featurizer, queries);
        let de = est.embed(&env.featurizer, database);
        let pred = l1_distances(&qe, &de);
        let mut hr = 0.0;
        for q in 0..nq {
            hr += hit_ratio(
                &true_d[q * database.len()..(q + 1) * database.len()],
                &pred[q * database.len()..(q + 1) * database.len()],
                5,
            );
        }
        with_ft.row_f64(variant.name(), &[hr / nq as f64]);
    }
    no_ft.print();
    no_ft.save_json("fig7a");
    with_ft.print();
    with_ft.save_json("fig7b");
    println!("paper shape check: Dual < MSM < concat on mean rank; Dual leads HR@5.");
}
