//! Fine-tuning a pre-trained TrajCL encoder to approximate a heuristic
//! similarity measure (§V-F).
//!
//! Protocol: attach a two-layer MLP (each layer of width `d`) on top of the
//! frozen-or-partially-frozen encoder and regress heuristic similarity with
//! an MSE loss. `TrajCL` fine-tunes the MLP plus the *last* encoder layer;
//! `TrajCL*` fine-tunes all layers.
//!
//! The objective is [`trajcl_nn::regress`]'s pair regression, the one the
//! supervised baselines train too: `s = exp(-d_heuristic / σ)` with `σ` the
//! mean heuristic distance over sampled pairs, predicted as
//! `ŝ = exp(-‖g(h_a) − g(h_b)‖₁)`, so ranking by predicted similarity is
//! ranking by L1 distance in the refined embedding space.

use crate::encoder::DualStbEncoder;
use crate::featurizer::{BatchInputs, Featurizer};
use crate::model::TrajClModel;
use rand::Rng;
use trajcl_geo::Trajectory;
use trajcl_measures::HeuristicMeasure;
use trajcl_nn::{train_pairs, Fwd, Mlp, PairRegression, ParamStore};
use trajcl_tensor::{CtxPool, Exec, Tensor};

/// Which encoder parameters stay trainable during fine-tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinetuneScope {
    /// Fine-tune the regression head plus the last encoder layer
    /// (the paper's `TrajCL`).
    LastLayer,
    /// Fine-tune everything (`TrajCL*`).
    AllLayers,
    /// Freeze the encoder entirely (head only) — extra ablation.
    HeadOnly,
}

/// Fine-tuning hyper-parameters.
#[derive(Debug, Clone)]
pub struct FinetuneConfig {
    /// Trainable-parameter scope.
    pub scope: FinetuneScope,
    /// The pair-regression recipe.
    pub train: PairRegression,
}

impl Default for FinetuneConfig {
    fn default() -> Self {
        FinetuneConfig {
            scope: FinetuneScope::LastLayer,
            train: PairRegression::default(),
        }
    }
}

/// A fine-tuned estimator: encoder + regression head, usable as a fast
/// approximation of the target heuristic measure. `store` holds the
/// fine-tuned parameters of both the encoder and the head.
pub struct FinetunedEstimator {
    store: ParamStore,
    encoder: DualStbEncoder,
    head: Mlp,
    sigma: f64,
}

impl FinetunedEstimator {
    /// Refined embeddings `g(h)` for a set of trajectories `(N, d)`,
    /// computed on fresh serving executors.
    pub fn embed(&self, featurizer: &Featurizer, trajs: &[Trajectory]) -> Tensor {
        self.embed_with(&CtxPool::new(), featurizer, trajs)
    }

    /// Like [`FinetunedEstimator::embed`] on contexts from a caller-owned
    /// [`CtxPool`] (scratch buffers persist across calls): one unpadded
    /// forward per trajectory, split across the pool lanes, as
    /// [`TrajClModel::embed_with`].
    pub fn embed_with(
        &self,
        ctxs: &CtxPool,
        featurizer: &Featurizer,
        trajs: &[Trajectory],
    ) -> Tensor {
        ctxs.embed_rows(trajs.len(), self.encoder.dim(), |ctx, i| {
            let inputs = featurizer
                .featurize(std::slice::from_ref(&trajs[i]))
                .expect("embed: one trajectory");
            let mut f = Fwd::new(ctx, &self.store);
            refined(&self.encoder, &self.head, &mut f, &inputs)
        })
    }

    /// The distance-normalisation constant learned from the training pairs.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

/// Fine-tunes a pre-trained model towards `measure` on the `pool` of
/// downstream trajectories. The input model is cloned; the pre-trained
/// weights are not modified.
///
/// # Panics
/// If `pool` has fewer than two trajectories.
pub fn finetune(
    pretrained: &TrajClModel,
    featurizer: &Featurizer,
    pool: &[Trajectory],
    measure: HeuristicMeasure,
    cfg: &FinetuneConfig,
    rng: &mut impl Rng,
) -> FinetunedEstimator {
    let d = pretrained.cfg.dim;
    let mut store = pretrained.store.clone();
    let head = Mlp::new(&mut store, "ft_head", d, d, d, 0.0, rng);
    let last_layer = pretrained.encoder.num_layers().saturating_sub(1);
    let last_prefix = format!("enc.layer{last_layer}");
    let trainable = |name: &str| match cfg.scope {
        FinetuneScope::HeadOnly => name.starts_with("ft_head"),
        FinetuneScope::LastLayer => name.starts_with("ft_head") || name.starts_with(&last_prefix),
        FinetuneScope::AllLayers => !name.starts_with("proj"),
    };
    let (sigma, _) = train_pairs(
        &mut store,
        pool,
        |a, b| measure.distance(a, b),
        |f, batch| {
            let inputs = featurizer
                .featurize(batch)
                .expect("sampled pairs are non-empty");
            refined(&pretrained.encoder, &head, f, &inputs)
        },
        trainable,
        &cfg.train,
        rng,
    );
    FinetunedEstimator {
        store,
        encoder: pretrained.encoder.clone(),
        head,
        sigma,
    }
}

/// The encoder's embedding refined by the regression `head`, with the
/// parameters `f` carries (the fine-tuned copy, not the pre-trained one).
fn refined<E: Exec>(
    encoder: &DualStbEncoder,
    head: &Mlp,
    f: &mut Fwd<E>,
    batch: &BatchInputs,
) -> E::Act {
    let h = encoder.forward(f, batch);
    let g = head.forward(f, &h);
    f.exec.release(h);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrajClConfig;
    use crate::encoder::EncoderVariant;
    use crate::model::l1_distances;
    use rand::{rngs::StdRng, SeedableRng};
    use trajcl_data::{hit_ratio, recall_k_at_m};
    use trajcl_geo::{Bbox, Grid, Point, SpatialNorm};
    use trajcl_tensor::Shape;

    fn setup() -> (TrajClModel, Featurizer, Vec<Trajectory>, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = TrajClConfig::test_default();
        let region = Bbox::new(Point::new(0.0, 0.0), Point::new(3000.0, 3000.0));
        let grid = Grid::new(region, 150.0);
        let table = Tensor::randn(Shape::d2(grid.num_cells(), cfg.dim), 0.0, 0.5, &mut rng);
        let feat = Featurizer::new(grid, table, SpatialNorm::new(region, 150.0), cfg.max_len);
        let model = TrajClModel::new(&cfg, EncoderVariant::Dual, &mut rng);
        use rand::Rng as _;
        let pool: Vec<Trajectory> = (0..24)
            .map(|_| {
                let y = rng.gen_range(100.0..2900.0);
                let x0 = rng.gen_range(0.0..800.0);
                (0..16)
                    .map(|i| Point::new(x0 + i as f64 * 90.0, y))
                    .collect()
            })
            .collect();
        (model, feat, pool, rng)
    }

    #[test]
    fn finetuning_improves_hausdorff_approximation() {
        let (model, feat, pool, mut rng) = setup();
        let cfg = FinetuneConfig {
            scope: FinetuneScope::AllLayers,
            train: PairRegression {
                pairs_per_epoch: 96,
                batch_pairs: 16,
                epochs: 4,
                lr: 2e-3,
            },
        };
        let measure = HeuristicMeasure::Hausdorff;
        let est = finetune(&model, &feat, &pool[..16], measure, &cfg, &mut rng);

        // Evaluate HR@3 on held-out trajectories vs the untuned encoder.
        let eval = &pool[16..];
        let q = &eval[0];
        let true_d: Vec<f64> = eval.iter().map(|t| measure.distance(q, t)).collect();

        let tuned_emb = est.embed(&feat, eval);
        let tuned_q = est.embed(&feat, std::slice::from_ref(q));
        let tuned_d = l1_distances(&tuned_q, &tuned_emb);

        let raw_emb = model.embed(&feat, eval);
        let raw_q = model.embed(&feat, std::slice::from_ref(q));
        let raw_d = l1_distances(&raw_q, &raw_emb);

        let tuned_hr = hit_ratio(&true_d, &tuned_d, 3);
        let raw_hr = hit_ratio(&true_d, &raw_d, 3);
        assert!(
            tuned_hr >= raw_hr,
            "fine-tuning should not hurt: tuned {tuned_hr} vs raw {raw_hr}"
        );
        assert!(recall_k_at_m(&true_d, &tuned_d, 3, 5) > 0.0);
    }

    #[test]
    fn head_only_scope_freezes_encoder() {
        let (model, feat, pool, mut rng) = setup();
        let cfg = FinetuneConfig {
            scope: FinetuneScope::HeadOnly,
            train: PairRegression {
                pairs_per_epoch: 16,
                batch_pairs: 8,
                epochs: 1,
                lr: 1e-2,
            },
        };
        let est = finetune(
            &model,
            &feat,
            &pool,
            HeuristicMeasure::Frechet,
            &cfg,
            &mut rng,
        );
        // All encoder params must equal the pre-trained values.
        for id in model.store.ids() {
            let name = model.store.name(id).to_string();
            let before = model.store.value(id);
            let after = est.store.value(est.store.ids_where(|n| n == name)[0]);
            assert!(
                before.approx_eq(after, 0.0),
                "frozen param {name} changed during head-only fine-tuning"
            );
        }
    }

    #[test]
    fn last_layer_scope_moves_only_selected_params() {
        let (model, feat, pool, mut rng) = setup();
        let cfg = FinetuneConfig {
            scope: FinetuneScope::LastLayer,
            train: PairRegression {
                pairs_per_epoch: 16,
                batch_pairs: 8,
                epochs: 1,
                lr: 1e-2,
            },
        };
        let est = finetune(
            &model,
            &feat,
            &pool,
            HeuristicMeasure::Hausdorff,
            &cfg,
            &mut rng,
        );
        let last = model.encoder.num_layers() - 1;
        let last_prefix = format!("enc.layer{last}");
        let mut moved_last = false;
        for id in model.store.ids() {
            let name = model.store.name(id).to_string();
            let before = model.store.value(id);
            let after = est.store.value(est.store.ids_where(|n| n == name)[0]);
            let changed = !before.approx_eq(after, 0.0);
            if name.starts_with(&last_prefix) {
                moved_last |= changed;
            } else if !name.starts_with("ft_head") && !name.starts_with("proj") {
                assert!(!changed, "frozen param {name} moved");
            }
        }
        assert!(moved_last, "last encoder layer should be fine-tuned");
    }
}
