//! Fig. 1 and Figs. 5–12. The parameter studies (Figs. 5 and 7–12) train
//! TrajCL at points that differ from Porto's recipe in the paper's one
//! knob of each figure; a point equal to the recipe reads the zoo's model.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io;
use std::time::Instant;
use trajcl_bench::harness::{eval_three_settings, hit_ratios, trajcl_mean_rank, Zoo, FINETUNE};
use trajcl_bench::{fmt_secs, Table};
use trajcl_core::{
    finetune, l1_distances, train, EncoderVariant, FinetuneConfig, FinetuneScope, MocoState,
    TrajClConfig,
};
use trajcl_data::{distort, Augmentation, DatasetProfile};
use trajcl_geo::{render_knn_figure, Trajectory};
use trajcl_index::{IvfIndex, Metric, SegmentHausdorffIndex};
use trajcl_measures::{hausdorff, pairwise_distances, HeuristicMeasure};
use trajcl_nn::StepDecay;

/// Headers of the parameter studies' three standard settings.
const THREE_SETTINGS: [&str; 4] = ["|D|=full", "ρs=0.2", "ρd=0.2", "train time (s)"];

/// Figs. 8 and 9 train 25 points each, on a cheaper recipe than the zoo's
/// (d = 16, 2 epochs, at most 120 training trajectories): at default scale
/// on 2 vCPUs a grid point takes ≈ 0.46 s with its evaluation, the zoo's
/// recipe 2.3 s to train, so the two grids at the recipe would add ≈ 90 s
/// to a 317 s `exp all`.
const GRID_DIM: usize = 16;
const GRID_EPOCHS: usize = 2;
const GRID_TRAIN: usize = 120;

/// Adds a `[clean, ρs, ρd]` mean-rank row with its training seconds.
fn three_settings_row(table: &mut Table, label: String, ranks: [f64; 3], secs: f64) {
    let mut cells: Vec<String> = ranks.iter().map(|r| format!("{r:.3}")).collect();
    cells.push(fmt_secs(secs));
    table.row(label, cells);
}

/// A Porto parameter study: one row per `(label, cfg, n_train)` point,
/// evaluated under the three standard settings on the env of its dim.
fn sweep(
    zoo: &mut Zoo,
    title: &str,
    points: Vec<(String, TrajClConfig, usize)>,
    eval_seed: u64,
) -> Table {
    let porto = DatasetProfile::porto();
    let mut table = Table::new(title, &THREE_SETTINGS);
    for (label, cfg, n_train) in points {
        eprintln!("training {label}...");
        let env = zoo.env(porto, cfg.dim);
        let (moco, secs) = zoo.trajcl(porto, &cfg, EncoderVariant::Dual, n_train);
        let ranks = eval_three_settings(&moco, &env.featurizer, &env.protocol(), eval_seed);
        three_settings_row(&mut table, label, ranks, secs);
    }
    table
}

/// The indices of the `k` smallest distances.
fn nearest(dists: &[f64], k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..dists.len()).collect();
    order.sort_by(|&a, &b| dists[a].total_cmp(&dists[b]));
    order.truncate(k);
    order
}

/// Fig. 1 — qualitative 3NN query comparison: Hausdorff (heuristic) vs
/// t2vec (learned, recurrent) vs TrajCL, rendered as `results/fig1_*.svg`.
/// Expected shape: TrajCL's neighbours hug the query trajectory; t2vec's
/// wander; Hausdorff's are close but not as tight.
pub fn fig1(zoo: &mut Zoo) -> io::Result<()> {
    let (env, models) = zoo.trained(DatasetProfile::porto());
    let db = &env.splits.test;
    let query = std::slice::from_ref(&env.splits.downstream[0]);
    let k = 3;

    let hausdorff_knn = nearest(
        &pairwise_distances(query, db, HeuristicMeasure::Hausdorff),
        k,
    );
    let learned_knn = |name: &str| {
        let q = models.embed(name, &env.featurizer, query);
        let d = models.embed(name, &env.featurizer, db);
        nearest(&l1_distances(&q, &d), k)
    };
    let t2vec_knn = learned_knn("t2vec");
    let trajcl_knn = learned_knn("TrajCL");

    std::fs::create_dir_all("results")?;
    let mut table = Table::new(
        "Fig. 1 — 3NN results (mean Hausdorff distance of the result set, meters)",
        &["#1", "#2", "#3", "mean dist (m)"],
    );
    for (name, knn) in [
        ("Hausdorff", &hausdorff_knn),
        ("t2vec", &t2vec_knn),
        ("TrajCL", &trajcl_knn),
    ] {
        let neighbors: Vec<&Trajectory> = knn.iter().map(|&i| &db[i]).collect();
        let svg = render_knn_figure(&query[0], &neighbors, 480);
        let path = format!("results/fig1_{}.svg", name.to_lowercase());
        std::fs::write(&path, svg)?;
        let mean_d: f64 = knn
            .iter()
            .map(|&i| hausdorff(&query[0], &db[i]))
            .sum::<f64>()
            / k as f64;
        let mut cells: Vec<String> = knn.iter().map(|i| i.to_string()).collect();
        cells.push(format!("{mean_d:.0}"));
        table.row(name, cells);
        eprintln!("wrote {path}");
    }
    table.print();
    table.save_json("fig1")?;
    println!(
        "paper shape check: TrajCL's result set is geographically tightest (smallest mean dist)."
    );
    Ok(())
}

/// Fig. 5 — training scalability: (a) mean rank vs number of training
/// epochs; (b) mean rank vs number of training trajectories (prefixes of
/// the shared train split). Both under the three standard settings.
/// Expected shape: rapid improvement in the first few epochs, then
/// plateau; diminishing returns past ~¼ of the training pool.
pub fn fig5(zoo: &mut Zoo) -> io::Result<()> {
    let porto = DatasetProfile::porto();
    let recipe = zoo.recipe(porto);
    let env = zoo.env(porto, recipe.cfg.dim);
    let base = env.protocol();

    // (a) Mean rank vs epochs: train one epoch at a time on the same state.
    let mut table_a = Table::new(
        "Fig. 5a — mean rank vs #epochs (Porto)",
        &["|D|=full", "ρs=0.2", "ρd=0.2", "cum. time (s)"],
    );
    let mut rng = StdRng::seed_from_u64(recipe.seed);
    let mut epoch_cfg = recipe.cfg.clone();
    epoch_cfg.max_epochs = 1;
    epoch_cfg.patience = usize::MAX;
    let mut moco = MocoState::new(&epoch_cfg, EncoderVariant::Dual, &mut rng);
    zoo.counts.trajcl += 1;
    let schedule = StepDecay::trajcl_default();
    let mut elapsed = 0.0;
    let mut done = 0usize;
    for cp in [1usize, 2, 4, 6] {
        while done < cp {
            let t0 = Instant::now();
            train(
                &mut moco,
                &env.featurizer,
                &env.splits.train,
                &schedule,
                &mut rng,
            );
            elapsed += t0.elapsed().as_secs_f64();
            done += 1;
        }
        let ranks = eval_three_settings(&moco, &env.featurizer, &base, 24);
        three_settings_row(&mut table_a, format!("{cp} epochs"), ranks, elapsed);
    }
    table_a.print();
    table_a.save_json("fig5a")?;

    // (b) Mean rank vs training-set size; the full split is the zoo's model.
    let points = [4usize, 2, 1]
        .iter()
        .map(|div| {
            let n = env.splits.train.len() / div;
            (format!("{n} trajectories"), recipe.cfg.clone(), n)
        })
        .collect();
    let table_b = sweep(
        zoo,
        "Fig. 5b — mean rank vs #training trajectories (Porto)",
        points,
        26,
    );
    table_b.print();
    table_b.save_json("fig5b")?;
    println!("paper shape check: ranks fall then plateau along both axes.");
    Ok(())
}

/// Fig. 6 — kNN query response time: TrajCL embeddings + IVF index vs the
/// segment-based Hausdorff index, across database sizes (Xi'an, ρd=0.2).
/// Expected shape: both grow with |D|; TrajCL/IVF is about two orders of
/// magnitude faster (embedding-space scan + Voronoi probing vs exact
/// quadratic Hausdorff with pruning).
pub fn fig6(zoo: &mut Zoo) -> io::Result<()> {
    let (env, models) = zoo.trained(DatasetProfile::xian());
    let base = &env.splits.test;
    let k = 10;
    let n_queries = zoo.scale.n_queries.min(base.len() / 4);
    let queries: Vec<Trajectory> = base[..n_queries].to_vec();

    // On a V100 the query-encoding term of the learned route is negligible
    // (0.14 µs/pair amortised); on CPU at reproduction scale it dominates,
    // so encode and index-search phases are reported separately — the
    // |D|-dependent term (search) is what Fig. 6 scales.
    let mut table = Table::new(
        format!("Fig. 6 — {k}NN query costs, {n_queries} queries (Xi'an, ρd=0.2)"),
        &[
            "Hausdorff/segment (s)",
            "TrajCL encode (s)",
            "TrajCL IVF search (s)",
            "search speedup",
        ],
    );
    for n in [base.len() / 4, base.len() / 2, base.len()] {
        let mut drng = StdRng::seed_from_u64(29);
        let db: Vec<Trajectory> = base[..n]
            .iter()
            .map(|t| distort(t, 0.2, 100.0, 0.5, &mut drng))
            .collect();

        let seg = SegmentHausdorffIndex::build(&db);
        let t0 = Instant::now();
        let _ = seg.batch_knn(&queries, k);
        let seg_time = t0.elapsed().as_secs_f64();

        // The learned route: the engine embeds the database at
        // construction, an IVF index is built over its table, then
        // encode/search per query batch.
        let engine = models
            .trajcl_engine(&env.featurizer, db, 4)
            .expect("engine build");
        let db_emb = engine.embeddings().expect("database embeddings");
        let mut rng = StdRng::seed_from_u64(0);
        let index = IvfIndex::build(db_emb, (n / 32).max(4), Metric::L1, &mut rng);
        let t0 = Instant::now();
        let q_emb = engine.embed_all(&queries).expect("encode queries");
        let encode_time = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let _ = index.batch_search(&q_emb, k, engine.nprobe());
        let search_time = t0.elapsed().as_secs_f64();

        table.row(
            format!("|D|={n}"),
            vec![
                fmt_secs(seg_time),
                fmt_secs(encode_time),
                format!("{search_time:.5}"),
                format!("{:.0}x", seg_time / search_time.max(1e-9)),
            ],
        );
    }
    table.print();
    table.save_json("fig6")?;
    println!(
        "paper shape check: the |D|-dependent search term is orders faster than the segment scan \
         and both grow with |D|; query encoding is a fixed cost (GPU-trivial in the paper)."
    );
    Ok(())
}

/// Fig. 7 — ablation: TrajCL vs TrajCL-MSM (vanilla attention, structural
/// only) vs TrajCL-concat (vanilla attention on concatenated features),
/// with and without fine-tuning. Expected shape: TrajCL best on mean rank;
/// TrajCL-concat worst (naive concatenation confuses the feature space);
/// with fine-tuning TrajCL still leads HR@5 except near-ties on EDwP.
pub fn fig7(zoo: &mut Zoo) -> io::Result<()> {
    let porto = DatasetProfile::porto();
    let cfg = zoo.recipe(porto).cfg;
    let env = zoo.env(porto, cfg.dim);
    let base = env.protocol();
    let mut no_ft = Table::new(
        "Fig. 7a — ablation, no fine-tuning (mean rank, Porto)",
        &["|D|=full", "ρs=0.2", "ρd=0.2"],
    );
    let mut with_ft = Table::new(
        "Fig. 7b — ablation, with fine-tuning (HR@5, Porto)",
        &["Hausdorff HR@5"],
    );

    for variant in [
        EncoderVariant::VanillaMsm,
        EncoderVariant::Concat,
        EncoderVariant::Dual,
    ] {
        eprintln!("training {}...", variant.name());
        let (moco, _) = zoo.trajcl(porto, &cfg, variant, usize::MAX);
        let ranks = eval_three_settings(&moco, &env.featurizer, &base, 32);
        no_ft.row_f64(variant.name(), &ranks);

        // Fine-tune toward Hausdorff and measure HR@5 on held-out data.
        let mut rng = StdRng::seed_from_u64(33);
        let pool = &env.splits.downstream;
        let split = pool.len() * 7 / 10;
        let ft_cfg = FinetuneConfig {
            scope: FinetuneScope::AllLayers,
            train: FINETUNE,
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
        let hr5 = hit_ratios(&true_d, &pred, database.len(), nq)[0];
        with_ft.row_f64(variant.name(), &[hr5]);
    }
    no_ft.print();
    no_ft.save_json("fig7a")?;
    with_ft.print();
    with_ft.save_json("fig7b")?;
    println!("paper shape check: Dual < MSM < concat on mean rank; Dual leads HR@5.");
    Ok(())
}

/// Adds one row per value of `values` to a Figs. 8/9 grid, one cell per
/// value again: the clean mean rank of TrajCL trained on the grid recipe
/// with `configure(cfg, row value, column value)`.
fn grid<T: Copy>(
    zoo: &mut Zoo,
    table: &mut Table,
    values: &[T],
    row_label: impl Fn(T) -> String,
    configure: impl Fn(&mut TrajClConfig, T, T),
) {
    let porto = DatasetProfile::porto();
    let mut cfg = zoo.recipe(porto).cfg;
    cfg.dim = GRID_DIM;
    cfg.max_epochs = GRID_EPOCHS;
    let env = zoo.env(porto, GRID_DIM);
    let base = env.protocol();
    for &r in values {
        let label = row_label(r);
        let mut cells = Vec::new();
        for &c in values {
            let mut point = cfg.clone();
            configure(&mut point, r, c);
            eprintln!("training {label}, column {}...", cells.len() + 1);
            let (moco, _) = zoo.trajcl(porto, &point, EncoderVariant::Dual, GRID_TRAIN);
            let rank = trajcl_mean_rank(&moco, &env.featurizer, &base);
            cells.push(format!("{rank:.2}"));
        }
        table.row(label, cells);
    }
}

/// Fig. 8 — impact of the augmentation-method pair: a 5×5 grid over
/// {Raw, Shift, Simplify, Mask, Truncate} for the two views, mean rank at
/// full |D|. Expected shape: Mask & Truncate best; Raw&Raw (no
/// augmentation) and Simplify&Simplify among the worst; asymmetric pairs
/// generally beat symmetric ones.
pub fn fig8(zoo: &mut Zoo) -> io::Result<()> {
    let augs = Augmentation::all();
    let headers: Vec<&str> = augs.iter().map(|a| a.name()).collect();
    let mut table = Table::new(
        "Fig. 8 — mean rank vs augmentation pair (rows: view 1, cols: view 2)",
        &headers,
    );
    grid(
        zoo,
        &mut table,
        &augs,
        |a| a.name().into(),
        |cfg, a1, a2| {
            cfg.aug1 = a1;
            cfg.aug2 = a2;
        },
    );
    table.print();
    table.save_json("fig8")?;
    println!(
        "paper shape check: Mask&Trun among the best cells; Raw&Raw / Simp-heavy cells worst."
    );
    Ok(())
}

/// Fig. 9 — impact of the augmentation parameters: ρd (masking
/// proportion) × ρb (truncation keep-ratio) under the default Mask &
/// Truncate views, mean rank at full |D|. Expected shape: flat middle,
/// degradation at the extremes (0.1 / 0.9); the default (ρd=0.3, ρb=0.7)
/// sits in the good region.
pub fn fig9(zoo: &mut Zoo) -> io::Result<()> {
    let values = [0.1, 0.3, 0.5, 0.7, 0.9];
    let headers: Vec<String> = values.iter().map(|v| format!("ρb={v}")).collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "Fig. 9 — mean rank vs augmentation parameters (rows ρd, cols ρb)",
        &header_refs,
    );
    grid(
        zoo,
        &mut table,
        &values,
        |v| format!("ρd={v}"),
        |cfg, rho_d, rho_b| {
            cfg.aug_params.rho_d = rho_d;
            cfg.aug_params.rho_b = rho_b;
        },
    );
    table.print();
    table.save_json("fig9")?;
    println!("paper shape check: extremes (0.9 masking / 0.1 keep) degrade; defaults competitive.");
    Ok(())
}

/// Fig. 10 — impact of the embedding dimensionality `d`, with the FFN and
/// projection widths scaled in proportion to the recipe's, under the
/// three standard settings. Expected shape: best around the middle
/// (overfitting at very large `d` without fine-tuning); time grows with d.
pub fn fig10(zoo: &mut Zoo) -> io::Result<()> {
    let recipe = zoo.recipe(DatasetProfile::porto()).cfg;
    let points = [16usize, 32, 64, 128]
        .iter()
        .map(|&d| {
            let mut cfg = recipe.clone();
            cfg.dim = d;
            cfg.ffn_hidden = recipe.ffn_hidden * d / recipe.dim;
            cfg.proj_dim = recipe.proj_dim * d / recipe.dim;
            (format!("d={d}"), cfg, usize::MAX)
        })
        .collect();
    let table = sweep(
        zoo,
        "Fig. 10 — mean rank vs embedding dimensionality d (Porto)",
        points,
        42,
    );
    table.print();
    table.save_json("fig10")?;
    println!("paper shape check: accuracy flat-ish with a sweet spot; time grows with d.");
    Ok(())
}

/// Fig. 11 — impact of the number of encoder layers (1–4), under the
/// three standard settings. Expected shape: improves to ~2–4 layers then
/// saturates/overfits; time grows linearly with depth.
pub fn fig11(zoo: &mut Zoo) -> io::Result<()> {
    let recipe = zoo.recipe(DatasetProfile::porto()).cfg;
    let points = (1..=4usize)
        .map(|layers| {
            let mut cfg = recipe.clone();
            cfg.layers = layers;
            (format!("{layers} layers"), cfg, usize::MAX)
        })
        .collect();
    let table = sweep(
        zoo,
        "Fig. 11 — mean rank vs #encoder layers (Porto)",
        points,
        45,
    );
    table.print();
    table.save_json("fig11")?;
    println!("paper shape check: improvement then saturation; time grows with depth.");
    Ok(())
}

/// Fig. 12 — impact of the negative-sample queue size |Q_neg|, under the
/// three standard settings. Expected shape: larger queues help (a more
/// uniform embedding space) with diminishing returns; training cost grows
/// mildly.
pub fn fig12(zoo: &mut Zoo) -> io::Result<()> {
    let recipe = zoo.recipe(DatasetProfile::porto()).cfg;
    let points = [64usize, 128, 256, 512, 1024]
        .iter()
        .map(|&q| {
            let mut cfg = recipe.clone();
            cfg.queue_size = q;
            (format!("|Qneg|={q}"), cfg, usize::MAX)
        })
        .collect();
    let table = sweep(
        zoo,
        "Fig. 12 — mean rank vs negative queue size |Q_neg| (Porto)",
        points,
        48,
    );
    table.print();
    table.save_json("fig12")?;
    println!("paper shape check: bigger queues help with diminishing returns.");
    Ok(())
}
