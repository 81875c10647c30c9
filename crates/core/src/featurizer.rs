//! Pointwise trajectory feature enrichment (§IV-B).
//!
//! Maps trajectories to the two model inputs:
//! * **structural** features: the node2vec embedding of the grid cell
//!   enclosing each point, giving a `(B, L, d)` matrix `T`;
//! * **spatial** features: the `(x, y, radian, mean segment length)`
//!   four-tuple of Eq. 8, normalised, giving a `(B, L, 4)` matrix `S`.
//!
//! Batches are padded to the longest member (capped at `max_len`); padding
//! is excluded from attention (mask) and pooling (lengths) downstream.

use std::borrow::Cow;
use trajcl_geo::{
    spatial_features, validate_batch, FeaturizeError, Grid, SpatialNorm, Trajectory, SPATIAL_DIM,
};
use trajcl_tensor::{Shape, Tensor};

/// A featurised batch ready for the encoder.
#[derive(Debug, Clone)]
pub struct BatchInputs {
    /// Structural feature matrix `T`: `(B, L, d)` cell embeddings.
    pub structural: Tensor,
    /// Spatial feature matrix `S`: `(B, L, 4)` normalised tuples.
    pub spatial: Tensor,
    /// Valid (pre-padding) length per batch element.
    pub lens: Vec<usize>,
}

impl BatchInputs {
    /// Batch size.
    pub fn batch(&self) -> usize {
        self.lens.len()
    }

    /// Padded sequence length.
    pub fn seq_len(&self) -> usize {
        self.structural.shape()[1]
    }
}

/// Converts trajectories into model inputs using a grid, a pretrained cell
/// embedding table and spatial normalisation constants.
#[derive(Debug, Clone)]
pub struct Featurizer {
    grid: Grid,
    cell_embeddings: Tensor,
    norm: SpatialNorm,
    max_len: usize,
}

impl Featurizer {
    /// Builds a featurizer.
    ///
    /// # Panics
    /// Panics if the embedding table's vocabulary does not cover the grid.
    pub fn new(grid: Grid, cell_embeddings: Tensor, norm: SpatialNorm, max_len: usize) -> Self {
        assert_eq!(
            cell_embeddings.shape().rank(),
            2,
            "cell table must be rank 2"
        );
        assert!(
            cell_embeddings.shape()[0] >= grid.num_cells(),
            "cell table covers {} cells but grid has {}",
            cell_embeddings.shape()[0],
            grid.num_cells()
        );
        Featurizer {
            grid,
            cell_embeddings,
            norm,
            max_len,
        }
    }

    /// Structural embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.cell_embeddings.shape()[1]
    }

    /// The grid used for cell lookups.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The spatial normalisation constants.
    pub fn norm(&self) -> &SpatialNorm {
        &self.norm
    }

    /// Maximum sequence length (`l` in the paper).
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// The pretrained cell-embedding table `(num_cells, dim)`.
    pub fn cell_table(&self) -> &Tensor {
        &self.cell_embeddings
    }

    /// Featurises a batch, padding to the longest member (≤ `max_len`).
    ///
    /// # Errors
    /// [`FeaturizeError::EmptyBatch`] on an empty batch,
    /// [`FeaturizeError::EmptyTrajectory`] when a member has no points.
    pub fn featurize(&self, trajs: &[Trajectory]) -> Result<BatchInputs, FeaturizeError> {
        validate_batch(trajs)?;
        let b = trajs.len();
        let lens: Vec<usize> = trajs.iter().map(|t| t.len().min(self.max_len)).collect();
        let l = lens.iter().copied().max().unwrap_or(0);
        let d = self.dim();
        let mut structural = Tensor::zeros(Shape::d3(b, l, d));
        let mut spatial = Tensor::zeros(Shape::d3(b, l, SPATIAL_DIM));
        for (bi, traj) in trajs.iter().enumerate() {
            let len = lens[bi];
            let traj = if traj.len() > len {
                Cow::Owned(Trajectory::new(traj.points()[..len].to_vec()))
            } else {
                Cow::Borrowed(traj)
            };
            let feats = spatial_features(&traj);
            for (t, (p, feat)) in traj.points().iter().zip(&feats).enumerate() {
                let cell = self.grid.cell_of(p);
                let src = &self.cell_embeddings.data()[cell as usize * d..(cell as usize + 1) * d];
                structural.data_mut()[(bi * l + t) * d..(bi * l + t + 1) * d].copy_from_slice(src);
                let sf = self.norm.apply(feat);
                spatial.data_mut()[(bi * l + t) * SPATIAL_DIM..(bi * l + t + 1) * SPATIAL_DIM]
                    .copy_from_slice(&sf);
            }
        }
        Ok(BatchInputs {
            structural,
            spatial,
            lens,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use trajcl_geo::{Bbox, Point};

    fn featurizer(max_len: usize) -> Featurizer {
        let region = Bbox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
        let grid = Grid::new(region, 100.0);
        let mut rng = StdRng::seed_from_u64(0);
        let table = Tensor::randn(Shape::d2(grid.num_cells(), 8), 0.0, 1.0, &mut rng);
        let norm = SpatialNorm::new(region, 100.0);
        Featurizer::new(grid, table, norm, max_len)
    }

    fn traj(n: usize, y: f64) -> Trajectory {
        (0..n)
            .map(|i| Point::new(50.0 + i as f64 * 40.0, y))
            .collect()
    }

    #[test]
    fn shapes_and_lengths() {
        let f = featurizer(64);
        let batch = f
            .featurize(&[traj(5, 100.0), traj(9, 500.0)])
            .expect("featurize");
        assert_eq!(batch.batch(), 2);
        assert_eq!(batch.seq_len(), 9);
        assert_eq!(batch.lens, vec![5, 9]);
        assert_eq!(batch.structural.shape(), Shape::d3(2, 9, 8));
        assert_eq!(batch.spatial.shape(), Shape::d3(2, 9, 4));
    }

    #[test]
    fn padding_rows_are_zero() {
        let f = featurizer(64);
        let batch = f
            .featurize(&[traj(3, 100.0), traj(6, 500.0)])
            .expect("featurize");
        for t in 3..6 {
            for k in 0..8 {
                assert_eq!(batch.structural.at3(0, t, k), 0.0);
            }
            for k in 0..4 {
                assert_eq!(batch.spatial.at3(0, t, k), 0.0);
            }
        }
    }

    #[test]
    fn structural_rows_come_from_cell_table() {
        let f = featurizer(64);
        let t = traj(4, 100.0);
        let batch = f.featurize(std::slice::from_ref(&t)).expect("featurize");
        for (i, p) in t.points().iter().enumerate() {
            let cell = f.grid().cell_of(p) as usize;
            let expect = &f.cell_embeddings.data()[cell * 8..(cell + 1) * 8];
            let got: Vec<f32> = (0..8).map(|k| batch.structural.at3(0, i, k)).collect();
            assert_eq!(got.as_slice(), expect);
        }
    }

    #[test]
    fn long_trajectories_truncate_to_max_len() {
        let f = featurizer(6);
        let batch = f.featurize(&[traj(20, 100.0)]).expect("featurize");
        assert_eq!(batch.seq_len(), 6);
        assert_eq!(batch.lens, vec![6]);
    }

    #[test]
    fn empty_batch_is_an_error_not_a_panic() {
        let f = featurizer(64);
        assert_eq!(f.featurize(&[]).err(), Some(FeaturizeError::EmptyBatch));
    }

    #[test]
    fn empty_trajectory_is_an_error_with_index() {
        let f = featurizer(64);
        let empty = Trajectory::new(Vec::new());
        assert_eq!(
            f.featurize(&[traj(4, 100.0), empty]).err(),
            Some(FeaturizeError::EmptyTrajectory { index: 1 })
        );
    }

    #[test]
    fn spatial_features_are_normalised() {
        let f = featurizer(64);
        let batch = f.featurize(&[traj(10, 500.0)]).expect("featurize");
        // Coordinates fall in [-1, 1]; radian/len scaled reasonably.
        for t in 0..10 {
            assert!(batch.spatial.at3(0, t, 0).abs() <= 1.0);
            assert!(batch.spatial.at3(0, t, 1).abs() <= 1.0);
        }
    }
}
