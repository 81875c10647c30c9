//! Shared infrastructure for the baseline models: token featurisation, the
//! `TrajectoryEncoder` abstraction every baseline implements, and the epoch
//! loop of the self-supervised ones.

use trajcl_geo::{validate_batch, Bbox, FeaturizeError, Grid, Trajectory};
use trajcl_nn::{Fwd, ParamStore};
use trajcl_tensor::{CtxPool, Exec, Shape, Tensor};

/// Featurises trajectories into grid-cell token sequences plus normalised
/// coordinates — the input representation shared by t2vec, CSTRM, T3S and
/// TrajGAT.
#[derive(Debug, Clone)]
pub struct TokenFeaturizer {
    /// The spatial grid whose cells are the token vocabulary.
    pub grid: Grid,
    region: Bbox,
    max_len: usize,
}

/// A tokenised mini-batch.
#[derive(Debug, Clone)]
pub struct TokenBatch {
    /// Cell token per point, row-major `(B, L)`; padding = 0.
    pub cells: Vec<u32>,
    /// Normalised `(x, y)` per point: `(B, L, 2)`.
    pub coords: Tensor,
    /// Valid length per element.
    pub lens: Vec<usize>,
    /// Padded length.
    pub seq_len: usize,
}

impl TokenFeaturizer {
    /// Builds a tokeniser over `region` with `cell_side`-meter cells.
    pub fn new(region: Bbox, cell_side: f64, max_len: usize) -> Self {
        TokenFeaturizer {
            grid: Grid::new(region, cell_side),
            region,
            max_len,
        }
    }

    /// Token vocabulary size.
    pub fn vocab(&self) -> usize {
        self.grid.num_cells()
    }

    /// Maximum sequence length.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Tokenises a batch, padding to its longest member.
    ///
    /// # Errors
    /// [`FeaturizeError::EmptyBatch`] on an empty batch,
    /// [`FeaturizeError::EmptyTrajectory`] when a member has no points.
    pub fn featurize(&self, trajs: &[Trajectory]) -> Result<TokenBatch, FeaturizeError> {
        validate_batch(trajs)?;
        let b = trajs.len();
        let lens: Vec<usize> = trajs.iter().map(|t| t.len().min(self.max_len)).collect();
        let l = lens.iter().copied().max().unwrap_or(0);
        let mut cells = vec![0u32; b * l];
        let mut coords = Tensor::zeros(Shape::d3(b, l, 2));
        let (w, h) = (
            self.region.width().max(1e-9),
            self.region.height().max(1e-9),
        );
        for (bi, traj) in trajs.iter().enumerate() {
            for (t, p) in traj.points().iter().take(lens[bi]).enumerate() {
                cells[bi * l + t] = self.grid.cell_of(p);
                coords.data_mut()[(bi * l + t) * 2] =
                    (2.0 * (p.x - self.region.min.x) / w - 1.0) as f32;
                coords.data_mut()[(bi * l + t) * 2 + 1] =
                    (2.0 * (p.y - self.region.min.y) / h - 1.0) as f32;
            }
        }
        Ok(TokenBatch {
            cells,
            coords,
            lens,
            seq_len: l,
        })
    }
}

/// A trainable trajectory-embedding model. Implemented by every baseline so
/// the experiment harness can treat them uniformly: each trains through
/// [`TrajectoryEncoder::encode`] on the tape and embeds through
/// [`TrajectoryEncoder::embed`], TrajCL's bulk path. `Sync`, because the
/// embed shares the model across the pool lanes.
pub trait TrajectoryEncoder: Sync {
    /// Human-readable name matching the paper's tables.
    fn name(&self) -> &'static str;

    /// Embedding dimensionality.
    fn dim(&self) -> usize;

    /// Parameter store (for optimizers / persistence).
    fn store(&self) -> &ParamStore;

    /// Mutable parameter store.
    fn store_mut(&mut self) -> &mut ParamStore;

    /// Encodes a batch on either executor, returning `(B, dim)`: a
    /// [`trajcl_tensor::TapeExec`] to train, a [`trajcl_tensor::InferCtx`]
    /// to embed.
    ///
    /// The `Fwd` context must be bound to this model's store.
    fn encode<E: Exec>(&self, f: &mut Fwd<E>, trajs: &[Trajectory]) -> E::Act;

    /// Embeds trajectories in eval mode, `(N, dim)`: one unpadded
    /// [`TrajectoryEncoder::encode`] per trajectory on `InferCtx`s, the
    /// rows split across the pool lanes ([`CtxPool::embed_rows`], TrajCL's
    /// bulk path too). A row's bits equal its row in a padded batch.
    fn embed(&self, trajs: &[Trajectory]) -> Tensor {
        CtxPool::new().embed_rows(trajs.len(), self.dim(), |ctx, i| {
            let mut f = Fwd::new(ctx, self.store());
            self.encode(&mut f, std::slice::from_ref(&trajs[i]))
        })
    }
}

/// One training epoch of a self-supervised baseline: the mean of
/// `step(chunk)` over `pool.chunks(batch)`, in order, skipping chunks
/// shorter than `min_chunk`.
pub(crate) fn epoch_mean(
    pool: &[Trajectory],
    batch: usize,
    min_chunk: usize,
    mut step: impl FnMut(&[Trajectory]) -> f32,
) -> f32 {
    let (mut total, mut n) = (0.0, 0);
    for chunk in pool.chunks(batch).filter(|c| c.len() >= min_chunk) {
        total += step(chunk);
        n += 1;
    }
    total / n.max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajcl_geo::Point;

    fn region() -> Bbox {
        Bbox::new(Point::new(0.0, 0.0), Point::new(1000.0, 500.0))
    }

    #[test]
    fn tokenizer_shapes_and_padding() {
        let tf = TokenFeaturizer::new(region(), 100.0, 64);
        let a: Trajectory = (0..5).map(|i| Point::new(i as f64 * 100.0, 50.0)).collect();
        let b: Trajectory = (0..8).map(|i| Point::new(i as f64 * 50.0, 400.0)).collect();
        let batch = tf.featurize(&[a, b]).expect("featurize");
        assert_eq!(batch.seq_len, 8);
        assert_eq!(batch.lens, vec![5, 8]);
        assert_eq!(batch.cells.len(), 16);
        assert_eq!(batch.coords.shape(), Shape::d3(2, 8, 2));
        // Padding slots hold token 0 / zero coords.
        for t in 5..8 {
            assert_eq!(batch.cells[t], 0);
            assert_eq!(batch.coords.at3(0, t, 0), 0.0);
        }
    }

    #[test]
    fn coords_normalised_to_unit_box() {
        let tf = TokenFeaturizer::new(region(), 100.0, 64);
        let t: Trajectory = vec![Point::new(0.0, 0.0), Point::new(1000.0, 500.0)]
            .into_iter()
            .collect();
        let batch = tf.featurize(std::slice::from_ref(&t)).expect("featurize");
        assert_eq!(batch.coords.at3(0, 0, 0), -1.0);
        assert_eq!(batch.coords.at3(0, 0, 1), -1.0);
        assert_eq!(batch.coords.at3(0, 1, 0), 1.0);
        assert_eq!(batch.coords.at3(0, 1, 1), 1.0);
    }

    #[test]
    fn empty_batch_is_an_error_not_a_panic() {
        let tf = TokenFeaturizer::new(region(), 100.0, 64);
        assert_eq!(tf.featurize(&[]).err(), Some(FeaturizeError::EmptyBatch));
    }

    #[test]
    fn empty_trajectory_is_an_error_with_index() {
        let tf = TokenFeaturizer::new(region(), 100.0, 64);
        let ok: Trajectory = (0..4).map(|i| Point::new(i as f64 * 100.0, 50.0)).collect();
        assert_eq!(
            tf.featurize(&[ok, Trajectory::new(Vec::new())]).err(),
            Some(FeaturizeError::EmptyTrajectory { index: 1 })
        );
    }

    #[test]
    fn long_inputs_truncate() {
        let tf = TokenFeaturizer::new(region(), 100.0, 4);
        let t: Trajectory = (0..20).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
        let batch = tf.featurize(std::slice::from_ref(&t)).expect("featurize");
        assert_eq!(batch.seq_len, 4);
        assert_eq!(batch.lens, vec![4]);
    }
}
