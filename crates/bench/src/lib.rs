//! # trajcl-bench
//!
//! The experiment harness reproducing every table and figure in the
//! paper's evaluation (§V). Each `exp_*` binary regenerates one artifact:
//!
//! | binary | artifact |
//! |--------|----------|
//! | `exp_table1`  | Table I — per-pair similarity computation time |
//! | `exp_table2`  | Table II — dataset statistics |
//! | `exp_table3`  | Table III — mean rank vs database size |
//! | `exp_table4`  | Table IV — mean rank vs down-sampling rate |
//! | `exp_table5`  | Table V — mean rank vs distortion rate |
//! | `exp_table6`  | Table VI — cross-dataset generalisation |
//! | `exp_table7`  | Table VII — training time |
//! | `exp_table8`  | Table VIII — bulk similarity computation time |
//! | `exp_table9`  | Table IX — index building costs |
//! | `exp_table10` | Table X — HR@k approximating heuristic measures |
//! | `exp_fig5`    | Fig. 5 — training scalability |
//! | `exp_fig6`    | Fig. 6 — kNN query costs |
//! | `exp_fig7`    | Fig. 7 — encoder ablation |
//! | `exp_fig8`    | Fig. 8 — augmentation-pair grid |
//! | `exp_fig9`    | Fig. 9 — augmentation-parameter grid |
//! | `exp_fig10`   | Fig. 10 — embedding dimensionality |
//! | `exp_fig11`   | Fig. 11 — encoder depth |
//! | `exp_fig12`   | Fig. 12 — negative-queue size |
//!
//! All binaries accept `--train N --db N --queries N --pool N` to scale
//! towards the paper's sizes. Criterion benches (`benches/`) cover the
//! microbenchmark-shaped artifacts (per-pair times, encoder cost model,
//! index probes, kernels).
//!
//! Serving-stack timing is not here: the ladder (`src/bin/ladder/`, a
//! package of its own, declared in `BENCHMARK.json`) is the one
//! instrument. `index_scale` holds the quantized-vs-exact floors the
//! ladder has no rung for yet.

pub mod harness;
pub mod report;

pub use harness::{
    cstrm_table_feasible, heuristic_set, mean_rank_heuristic, train_all, ExperimentEnv, Scale,
    TrainedModels, LEARNED_METHODS,
};
pub use report::{fmt_mb, fmt_secs, Table};
