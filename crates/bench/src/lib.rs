//! # trajcl-bench
//!
//! The experiment harness reproducing every table and figure in the
//! paper's evaluation (§V). The `exp` binary regenerates one artifact per
//! subcommand, or all of them with `exp all`:
//!
//! | subcommand | artifact |
//! |------------|----------|
//! | `exp table1`  | Table I — per-pair similarity computation time |
//! | `exp table2`  | Table II — dataset statistics |
//! | `exp table3`  | Table III — mean rank vs database size |
//! | `exp table4`  | Table IV — mean rank vs down-sampling rate |
//! | `exp table5`  | Table V — mean rank vs distortion rate |
//! | `exp table6`  | Table VI — cross-dataset generalisation |
//! | `exp table7`  | Table VII — training time |
//! | `exp table8`  | Table VIII — bulk similarity computation time |
//! | `exp table9`  | Table IX — index building costs |
//! | `exp table10` | Table X — HR@k approximating heuristic measures |
//! | `exp fig1`    | Fig. 1 — 3NN query comparison (SVGs) |
//! | `exp fig5`    | Fig. 5 — training scalability |
//! | `exp fig6`    | Fig. 6 — kNN query costs |
//! | `exp fig7`    | Fig. 7 — encoder ablation |
//! | `exp fig8`    | Fig. 8 — augmentation-pair grid |
//! | `exp fig9`    | Fig. 9 — augmentation-parameter grid |
//! | `exp fig10`   | Fig. 10 — embedding dimensionality |
//! | `exp fig11`   | Fig. 11 — encoder depth |
//! | `exp fig12`   | Fig. 12 — negative-queue size |
//!
//! Every subcommand accepts `--train N --db N --queries N --pool N` to
//! scale towards the paper's sizes, and `--profiles all` runs Table III
//! on all four profiles. One run builds each dataset environment once per
//! (profile, dim) and trains each profile's [`Recipe`] once, and every
//! table reads those models. Criterion benches (`benches/`) time what no
//! ladder rung or `exp` table times: the kernels, the augmentations and
//! the heuristics' cost in trajectory length.
//!
//! Serving-stack timing is not here: the ladder (`src/bin/ladder/`, a
//! package of its own, declared in `BENCHMARK.json`) is the one
//! instrument. `index_scale` holds the quantized-vs-exact floors the
//! ladder has no rung for yet.

pub mod harness;
pub mod report;

pub use harness::{
    cstrm_table_feasible, heuristic_set, mean_rank_heuristic, train_all, Args, ExperimentEnv,
    Recipe, Scale, TrainedModels, Zoo, LEARNED_METHODS,
};
pub use report::{fmt_mb, fmt_secs, Table};
