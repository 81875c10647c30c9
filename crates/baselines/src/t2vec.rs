//! t2vec \[11\]: RNN sequence-to-sequence trajectory representation learning.
//!
//! The original trains a GRU encoder–decoder to reconstruct the cell-token
//! sequence of a clean trajectory from a down-sampled/distorted view, with
//! an approximated softmax over the (large) cell vocabulary. We reproduce
//! exactly that shape: GRU encoder → final state = embedding; GRU decoder
//! conditioned on the state predicts each clean token with a
//! sampled-softmax cross-entropy (true cell + `k` random negative cells),
//! which is also how the original handles its vocabulary.

use crate::common::{epoch_mean, TokenBatch, TokenFeaturizer, TrajectoryEncoder};
use rand::Rng;
use trajcl_data::{downsample, point_shift};
use trajcl_geo::Trajectory;
use trajcl_nn::{run_gru, Adam, Embedding, Fwd, GruCell, Linear, ParamStore};
use trajcl_tensor::{Exec, Shape, TapeExec};

/// t2vec model: token embedding + encoder/decoder GRUs.
pub struct T2Vec {
    store: ParamStore,
    cell_emb: Embedding,
    encoder: GruCell,
    decoder: GruCell,
    out_proj: Linear,
    featurizer: TokenFeaturizer,
    dim: usize,
}

/// t2vec training hyper-parameters.
#[derive(Debug, Clone)]
pub struct T2VecConfig {
    /// Embedding / hidden width.
    pub dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Negative cells per decoding step in the sampled softmax.
    pub neg_cells: usize,
    /// Down-sampling rate used to corrupt the source view.
    pub corrupt_rate: f64,
}

impl Default for T2VecConfig {
    fn default() -> Self {
        T2VecConfig {
            dim: 32,
            epochs: 3,
            batch_size: 16,
            lr: 1e-3,
            neg_cells: 8,
            corrupt_rate: 0.3,
        }
    }
}

impl T2Vec {
    /// Builds an untrained t2vec model over the tokenizer's vocabulary.
    pub fn new(featurizer: TokenFeaturizer, dim: usize, rng: &mut impl Rng) -> Self {
        let mut store = ParamStore::new();
        let vocab = featurizer.vocab();
        let cell_emb = Embedding::new(&mut store, "t2vec.cells", vocab, dim, rng);
        let encoder = GruCell::new(&mut store, "t2vec.enc", dim, dim, rng);
        let decoder = GruCell::new(&mut store, "t2vec.dec", dim, dim, rng);
        let out_proj = Linear::new(&mut store, "t2vec.out", dim, dim, rng);
        T2Vec {
            store,
            cell_emb,
            encoder,
            decoder,
            out_proj,
            featurizer,
            dim,
        }
    }

    /// The token featurizer (grid) this model was built over.
    pub fn featurizer(&self) -> &TokenFeaturizer {
        &self.featurizer
    }

    fn embed_tokens<E: Exec>(&self, f: &mut Fwd<E>, batch: &TokenBatch) -> E::Act {
        self.cell_emb.forward(f, &batch.cells, batch.lens.len())
    }

    /// One denoising-autoencoder training step; returns the batch loss.
    ///
    /// The source view is a corrupted (down-sampled + jittered) copy; the
    /// decoder reconstructs the clean token sequence via sampled softmax.
    pub fn train_step(
        &mut self,
        trajs: &[Trajectory],
        opt: &mut Adam,
        cfg: &T2VecConfig,
        rng: &mut impl Rng,
    ) -> f32 {
        let corrupted: Vec<Trajectory> = trajs
            .iter()
            .map(|t| {
                let down = downsample(t, cfg.corrupt_rate, rng);
                point_shift(&down, 30.0, 0.5, rng)
            })
            .collect();
        let src = self
            .featurizer
            .featurize(&corrupted)
            .expect("non-empty batch");
        let dst = self.featurizer.featurize(trajs).expect("non-empty batch");
        let vocab = self.featurizer.vocab();
        let b = trajs.len();

        // Pre-sample the negative cells for every decoding step: the RNG
        // is moved into the forward context below.
        let horizon = dst.seq_len.min(24);
        let mut negatives: Vec<Vec<u32>> = Vec::with_capacity(horizon);
        for t in 0..horizon {
            let mut cand_ids = Vec::with_capacity(b * (cfg.neg_cells + 1));
            for bi in 0..b {
                let true_cell = dst.cells[bi * dst.seq_len + t];
                cand_ids.push(true_cell);
                for _ in 0..cfg.neg_cells {
                    cand_ids.push(rng.gen_range(0..vocab as u32));
                }
            }
            negatives.push(cand_ids);
        }
        let mut exec = TapeExec::new(rng, true);
        let loss_val;
        {
            let mut f = Fwd::new(&mut exec, &self.store);
            let src_emb = self.embed_tokens(&mut f, &src);
            let state = run_gru(&mut f, &self.encoder, &src_emb, &src.lens);

            // Teacher-forced decoding of the clean sequence.
            let dst_emb = self.embed_tokens(&mut f, &dst);
            let mut h = state;
            let mut step_losses = Vec::new();
            // The reconstruction horizon is capped: gradients through very
            // long teacher-forced chains dominate runtime without changing
            // the learned encoder much.
            for (t, cand_ids) in negatives.iter().enumerate() {
                let x_t = f.exec.tape.select_time(dst_emb, t);
                h = self.decoder.forward(&mut f, &x_t, &h);
                let logits_src = self.out_proj.forward(&mut f, &h); // (B, dim)

                // Sampled softmax: score = h · E[cell] for candidates
                // {true, negatives...}; cross-entropy with target index 0.
                let table = f.exec.bind(f.p(self.cell_emb_table_id()));
                let cand = f.exec.tape.embedding(table, cand_ids); // (B*(k+1), dim)
                let cand3 = f
                    .exec
                    .tape
                    .reshape(cand, Shape::d3(b, cfg.neg_cells + 1, self.dim));
                let h3 = f.exec.tape.reshape(logits_src, Shape::d3(b, 1, self.dim));
                let scores = f.exec.tape.matmul(h3, cand3, false, true); // (B, 1, k+1)
                let scores2 = f.exec.tape.reshape(scores, Shape::d2(b, cfg.neg_cells + 1));
                let targets = vec![0usize; b];
                step_losses.push(f.exec.tape.cross_entropy(scores2, &targets));
            }
            let total = step_losses
                .iter()
                .skip(1)
                .fold(step_losses[0], |acc, &l| f.exec.tape.add(acc, l));
            let loss = f.exec.tape.scale(total, 1.0 / step_losses.len() as f32);
            loss_val = f.exec.tape.value(loss).data()[0];
            let grads = f.exec.tape.backward(loss);
            self.store.accumulate(grads.into_param_grads(&f.exec.tape));
        }
        self.store.clip_grad_norm(5.0);
        opt.step(&mut self.store);
        loss_val
    }

    fn cell_emb_table_id(&self) -> trajcl_nn::ParamId {
        // The embedding table is the first registered parameter.
        self.store
            .ids_where(|n| n == "t2vec.cells.table")
            .first()
            .copied()
            .expect("embedding table registered")
    }

    /// Trains on `pool` for `cfg.epochs` epochs; returns per-epoch losses.
    pub fn train(
        &mut self,
        pool: &[Trajectory],
        cfg: &T2VecConfig,
        rng: &mut impl Rng,
    ) -> Vec<f32> {
        let mut opt = Adam::new(cfg.lr);
        (0..cfg.epochs)
            .map(|_| {
                epoch_mean(pool, cfg.batch_size, 1, |chunk| {
                    self.train_step(chunk, &mut opt, cfg, rng)
                })
            })
            .collect()
    }
}

impl TrajectoryEncoder for T2Vec {
    fn name(&self) -> &'static str {
        "t2vec"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn encode<E: Exec>(&self, f: &mut Fwd<E>, trajs: &[Trajectory]) -> E::Act {
        let batch = self.featurizer.featurize(trajs).expect("non-empty batch");
        let emb = self.embed_tokens(f, &batch);
        let state = run_gru(f, &self.encoder, &emb, &batch.lens);
        f.exec.release(emb);
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use trajcl_geo::{Bbox, Point};

    fn setup() -> (T2Vec, Vec<Trajectory>, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let region = Bbox::new(Point::new(0.0, 0.0), Point::new(2000.0, 2000.0));
        let tf = TokenFeaturizer::new(region, 200.0, 32);
        let model = T2Vec::new(tf, 16, &mut rng);
        use rand::Rng as _;
        let pool: Vec<Trajectory> = (0..12)
            .map(|_| {
                let y = rng.gen_range(100.0..1900.0);
                (0..14).map(|i| Point::new(i as f64 * 140.0, y)).collect()
            })
            .collect();
        (model, pool, rng)
    }

    #[test]
    fn embeds_with_correct_shape() {
        let (model, pool, _) = setup();
        let e = model.embed(&pool[..3]);
        assert_eq!(e.shape(), Shape::d2(3, 16));
        assert!(e.all_finite());
    }

    #[test]
    fn training_reduces_reconstruction_loss() {
        let (mut model, pool, mut rng) = setup();
        let cfg = T2VecConfig {
            dim: 16,
            epochs: 4,
            batch_size: 6,
            ..Default::default()
        };
        let losses = model.train(&pool, &cfg, &mut rng);
        assert_eq!(losses.len(), 4);
        assert!(losses.iter().all(|l| l.is_finite()));
        assert!(
            losses[3] < losses[0],
            "reconstruction loss should drop: {losses:?}"
        );
    }

    #[test]
    fn different_trajectories_get_different_embeddings() {
        let (model, _, _) = setup();
        // Fixed rows several grid cells apart so the token sequences are
        // guaranteed to differ (random rows may share a cell row).
        let a: Trajectory = (0..14)
            .map(|i| Point::new(i as f64 * 140.0, 300.0))
            .collect();
        let b: Trajectory = (0..14)
            .map(|i| Point::new(i as f64 * 140.0, 1500.0))
            .collect();
        let e = model.embed(&[a, b]);
        let d: f32 = (0..16).map(|k| (e.at2(0, k) - e.at2(1, k)).abs()).sum();
        assert!(d > 1e-4);
    }
}
