//! The TrajCL model: DualSTB encoder + projection head, with batched
//! inference helpers.

use crate::config::TrajClConfig;
use crate::encoder::{DualStbEncoder, EncoderVariant};
use crate::featurizer::{BatchInputs, Featurizer};
use rand::Rng;
use trajcl_geo::Trajectory;
use trajcl_nn::{Fwd, Mlp, ParamStore};
use trajcl_tensor::{pool, CtxPool, Exec, InferCtx, Shape, Tensor};

/// Encoder `F` plus projection head `P` (Eq. 1) and their parameters.
#[derive(Clone)]
pub struct TrajClModel {
    /// All model parameters.
    pub store: ParamStore,
    /// The backbone encoder.
    pub encoder: DualStbEncoder,
    proj: Mlp,
    /// The configuration the model was built with.
    pub cfg: TrajClConfig,
}

impl TrajClModel {
    /// Builds a model of the given architecture variant.
    pub fn new(cfg: &TrajClConfig, variant: EncoderVariant, rng: &mut impl Rng) -> Self {
        let mut store = ParamStore::new();
        let encoder = DualStbEncoder::new(
            &mut store,
            "enc",
            variant,
            cfg.dim,
            cfg.heads,
            cfg.layers,
            cfg.ffn_hidden,
            cfg.dropout,
            rng,
        );
        let proj = Mlp::new(&mut store, "proj", cfg.dim, cfg.dim, cfg.proj_dim, 0.0, rng);
        TrajClModel {
            store,
            encoder,
            proj,
            cfg: cfg.clone(),
        }
    }

    /// Forward to the L2-normalised projection `z` `(B, proj_dim)` used by
    /// the InfoNCE loss. `f` names the parameters to run with — the
    /// model's own, or the momentum branch's copy.
    pub fn forward_z<E: Exec>(&self, f: &mut Fwd<E>, batch: &BatchInputs) -> E::Act {
        let h = self.encoder.forward(f, batch);
        let z = self.proj.forward(f, &h);
        f.exec.release(h);
        f.exec.l2_normalize_rows(z)
    }

    /// The backbone embedding `h` `(B, d)` on the serving executor.
    pub fn infer_h(&self, ctx: &mut InferCtx, batch: &BatchInputs) -> Tensor {
        self.encoder.forward(&mut Fwd::new(ctx, &self.store), batch)
    }

    /// Inference: embeds trajectories into `(N, d)` backbone embeddings
    /// on fresh serving executors (no dropout, no RNG), one unpadded
    /// forward per trajectory — see [`TrajClModel::embed_with`].
    pub fn embed(&self, featurizer: &Featurizer, trajs: &[Trajectory]) -> Tensor {
        self.embed_with(&CtxPool::new(), featurizer, trajs)
    }

    /// Like [`TrajClModel::embed`] on contexts from a caller-owned
    /// [`CtxPool`], so scratch buffers persist across calls (the engine
    /// holds one). Each trajectory runs its own unpadded forward,
    /// the rows split across the pool lanes ([`CtxPool::embed_rows`]): the
    /// bits equal its row in any padded batch, at any width.
    pub fn embed_with(
        &self,
        ctxs: &CtxPool,
        featurizer: &Featurizer,
        trajs: &[Trajectory],
    ) -> Tensor {
        ctxs.embed_rows(trajs.len(), self.cfg.dim, |ctx, i| {
            let inputs = featurizer
                .featurize(std::slice::from_ref(&trajs[i]))
                .expect("embed: one trajectory");
            self.infer_h(ctx, &inputs)
        })
    }

    /// `(N, d)` embeddings through padded batches of `batch` trajectories,
    /// each one forward pass on a caller-owned [`InferCtx`]. The bits equal
    /// [`TrajClModel::embed`]'s; it stays for callers that time or check
    /// the padded forward itself (the equivalence tests, the ladder's
    /// `forward_b32` rung).
    pub fn embed_chunked_with(
        &self,
        ctx: &mut InferCtx,
        featurizer: &Featurizer,
        trajs: &[Trajectory],
        batch: usize,
    ) -> Tensor {
        let d = self.cfg.dim;
        let mut out = Tensor::zeros(Shape::d2(trajs.len(), d));
        let mut row = 0usize;
        for chunk in trajs.chunks(batch.max(1)) {
            let inputs = featurizer.featurize(chunk).expect("embed: non-empty chunk");
            let h = self.infer_h(ctx, &inputs);
            out.data_mut()[row * d..(row + chunk.len()) * d].copy_from_slice(h.data());
            ctx.recycle(h);
            row += chunk.len();
        }
        out
    }
}

/// Row-wise L1 distance matrix between `(Q, d)` and `(N, d)` embedding
/// tables (the similarity function of the problem statement, computed in
/// parallel). Row-major `Q × N` output.
pub fn l1_distances(queries: &Tensor, database: &Tensor) -> Vec<f64> {
    let d = queries.shape().last();
    assert_eq!(d, database.shape().last(), "embedding dims differ");
    let q = queries.shape().rows();
    let n = database.shape().rows();
    let mut out = vec![0.0f64; q * n];
    let rows_per = pool::rows_per_lane(q);
    let qd = queries.data();
    let dd = database.data();
    pool::par_chunks_mut(&mut out, rows_per * n, |c, chunk| {
        let start = c * rows_per;
        for (r, row) in chunk.chunks_mut(n).enumerate() {
            let qrow = &qd[(start + r) * d..(start + r + 1) * d];
            for (j, slot) in row.iter_mut().enumerate() {
                let drow = &dd[j * d..(j + 1) * d];
                let mut acc = 0.0f32;
                for (a, b) in qrow.iter().zip(drow) {
                    acc += (a - b).abs();
                }
                *slot = acc as f64;
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use trajcl_geo::{Bbox, Grid, Point, SpatialNorm};
    use trajcl_tensor::TapeExec;

    fn setup() -> (TrajClModel, Featurizer, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = TrajClConfig::test_default();
        let region = Bbox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
        let grid = Grid::new(region, 100.0);
        let table = Tensor::randn(Shape::d2(grid.num_cells(), cfg.dim), 0.0, 0.5, &mut rng);
        let feat = Featurizer::new(grid, table, SpatialNorm::new(region, 100.0), cfg.max_len);
        let model = TrajClModel::new(&cfg, EncoderVariant::Dual, &mut rng);
        (model, feat, rng)
    }

    fn traj(n: usize, y: f64) -> Trajectory {
        (0..n)
            .map(|i| Point::new(30.0 + i as f64 * 35.0, y))
            .collect()
    }

    #[test]
    fn embed_shapes_and_determinism() {
        let (model, feat, _rng) = setup();
        let trajs: Vec<Trajectory> = (0..5)
            .map(|i| traj(6 + i, 100.0 * (i + 1) as f64))
            .collect();
        let e1 = model.embed(&feat, &trajs);
        let e2 = model.embed(&feat, &trajs);
        assert_eq!(e1.shape(), Shape::d2(5, model.cfg.dim));
        assert!(
            e1.approx_eq(&e2, 0.0),
            "eval-mode embedding must be deterministic"
        );
    }

    #[test]
    fn embed_batches_agree_with_single() {
        let (model, feat, _rng) = setup();
        let trajs: Vec<Trajectory> = (0..7).map(|i| traj(5 + i, 80.0 * (i + 1) as f64)).collect();
        let all = model.embed(&feat, &trajs);
        for (i, t) in trajs.iter().enumerate() {
            let single = model.embed(&feat, std::slice::from_ref(t));
            for k in 0..model.cfg.dim {
                assert!(
                    (all.at2(i, k) - single.at2(0, k)).abs() < 1e-4,
                    "batching changed embedding {i}"
                );
            }
        }
    }

    #[test]
    fn infer_embed_matches_tape_forward() {
        let (model, feat, mut rng) = setup();
        let trajs: Vec<Trajectory> = (0..4)
            .map(|i| traj(5 + i, 150.0 * (i + 1) as f64))
            .collect();
        let infer = model.embed(&feat, &trajs);
        let batch = feat.featurize(&trajs).expect("featurize");
        let mut exec = TapeExec::new(&mut rng, false);
        let mut f = Fwd::new(&mut exec, &model.store);
        let h = model.encoder.forward(&mut f, &batch);
        assert!(
            infer.approx_eq(exec.tape.value(h), 1e-5),
            "serving path drifted from the tape forward"
        );
    }

    #[test]
    fn z_is_unit_norm() {
        let (model, feat, mut rng) = setup();
        let batch = feat
            .featurize(&[traj(6, 100.0), traj(8, 400.0)])
            .expect("featurize");
        let mut exec = TapeExec::new(&mut rng, false);
        let mut f = Fwd::new(&mut exec, &model.store);
        let z = model.forward_z(&mut f, &batch);
        for r in 0..2 {
            let row = exec.tape.value(z).row(r);
            let norm: f32 = row.iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-5, "z row norm {norm}");
        }
    }

    #[test]
    fn l1_distance_matrix_correct() {
        let a = Tensor::from_vec(vec![0.0, 0.0, 1.0, 2.0], Shape::d2(2, 2));
        let b = Tensor::from_vec(vec![1.0, 1.0, 0.0, 0.0, 3.0, 3.0], Shape::d2(3, 2));
        let m = l1_distances(&a, &b);
        assert_eq!(m.len(), 6);
        assert_eq!(m[0], 2.0); // |0-1|+|0-1|
        assert_eq!(m[1], 0.0);
        assert_eq!(m[2], 6.0);
        assert_eq!(m[3], 1.0); // |1-1|+|2-1|
        assert_eq!(m[4], 3.0);
        assert_eq!(m[5], 3.0);
    }
}
