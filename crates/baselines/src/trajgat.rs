//! TrajGAT \[21\]: graph-based attention for long-term trajectory dependency.
//!
//! The original builds a PyG graph transformer over a quadtree of spatial
//! cells. We reproduce the essential mechanism — attention over cell
//! tokens *biased by the spatial adjacency graph* — with a standard
//! encoder whose attention scores receive a learnable additive bonus for
//! token pairs whose cells are grid-adjacent, and cell embeddings
//! initialised from node2vec so the grid topology is available from step
//! one (DESIGN.md §4). Like the original, it trains supervised via pair
//! regression and uses a smaller embedding width by default (the paper
//! notes TrajGAT performs best at its default `d = 32`).

use crate::common::{TokenFeaturizer, TrajectoryEncoder};
use rand::Rng;
use trajcl_geo::Trajectory;
use trajcl_graph::{node2vec_cell_embeddings, SgnsConfig, WalkConfig};
use trajcl_nn::attention::{project_heads, sinusoidal_pe};
use trajcl_nn::{Embedding, Fwd, ParamStore, TransformerEncoderLayer};
use trajcl_tensor::exec::{attention_mask_bias, MASK_NEG};
use trajcl_tensor::{Exec, Tensor};

/// TrajGAT model.
pub struct TrajGat {
    store: ParamStore,
    cell_emb: Embedding,
    layers: Vec<TransformerEncoderLayer>,
    adj_weight: trajcl_nn::ParamId,
    featurizer: TokenFeaturizer,
    dim: usize,
    heads: usize,
}

impl TrajGat {
    /// Builds TrajGAT with node2vec-initialised cell embeddings.
    pub fn new(
        featurizer: TokenFeaturizer,
        dim: usize,
        heads: usize,
        layers: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let mut store = ParamStore::new();
        let table = node2vec_cell_embeddings(
            &featurizer.grid,
            &WalkConfig {
                walk_length: 10,
                walks_per_node: 2,
                p: 1.0,
                q: 1.0,
            },
            &SgnsConfig {
                dim,
                epochs: 1,
                ..Default::default()
            },
            rng,
        );
        let cell_emb = Embedding::from_pretrained(&mut store, "gat.cells", table);
        let layers = (0..layers)
            .map(|i| {
                TransformerEncoderLayer::new(
                    &mut store,
                    &format!("gat.layer{i}"),
                    dim,
                    heads,
                    dim * 2,
                    0.1,
                    rng,
                )
            })
            .collect();
        let adj_weight = store.add("gat.adj_weight", Tensor::scalar(1.0));
        TrajGat {
            store,
            cell_emb,
            layers,
            adj_weight,
            featurizer,
            dim,
            heads,
        }
    }

    /// Adjacency bonus matrix for a tokenised batch: `1` where two valid
    /// points lie in the same or 8-adjacent cells, `0` elsewhere;
    /// [`MASK_NEG`] on padded keys. Shape `(B*heads, L, L)`.
    fn graph_bias(&self, cells: &[u32], lens: &[usize], l: usize) -> Tensor {
        let grid = &self.featurizer.grid;
        let mut bias = attention_mask_bias(lens, l, self.heads);
        for (bi, &len) in lens.iter().enumerate() {
            for qi in 0..len {
                let (cq, rq) = grid.col_row(cells[bi * l + qi]);
                for ki in 0..len {
                    let (ck, rk) = grid.col_row(cells[bi * l + ki]);
                    if cq.abs_diff(ck) <= 1 && rq.abs_diff(rk) <= 1 {
                        for h in 0..self.heads {
                            let base = ((bi * self.heads + h) * l + qi) * l + ki;
                            // Leave masked slots masked.
                            if bias.data()[base] > MASK_NEG / 2.0 {
                                bias.data_mut()[base] = 1.0;
                            }
                        }
                    }
                }
            }
        }
        bias
    }
}

impl TrajectoryEncoder for TrajGat {
    fn name(&self) -> &'static str {
        "TrajGAT"
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
        let (b, l) = (batch.lens.len(), batch.seq_len);
        let emb = self.cell_emb.forward(f, &batch.cells, b);
        let pe = sinusoidal_pe(l, self.dim);
        let mut x = f.exec.add_positional(emb, &pe);
        // Padding mask + learnable-scaled adjacency bonus.
        let raw_bias = self.graph_bias(&batch.cells, &batch.lens, l);
        let mask_only = raw_bias.map(|v| if v <= MASK_NEG / 2.0 { v } else { 0.0 });
        let adj_only = raw_bias.map(|v| if v > MASK_NEG / 2.0 { v } else { 0.0 });
        let mask = f.exec.input(&mask_only);
        let adj = f.exec.input(&adj_only);
        let scaled_adj = f.exec.mul_param(&adj, f.p(self.adj_weight));
        let bias = f.exec.add(mask, &scaled_adj);
        for layer in &self.layers {
            let y = biased_layer(f, layer, &x, &bias);
            f.exec.release(std::mem::replace(&mut x, y));
        }
        let pooled = f.exec.mean_pool_masked(&x, &batch.lens);
        for t in [x, adj, scaled_adj, bias] {
            f.exec.release(t);
        }
        pooled
    }
}

/// One encoder layer whose attention scores carry the learned pre-softmax
/// `bias` (padding mask + scaled adjacency): `softmax(Q·Kᵀ/√dh + bias)·V`
/// from general ops, so the fused attention kernels need no branch for an
/// arbitrary bias that only this model feeds them.
fn biased_layer<E: Exec>(
    f: &mut Fwd<E>,
    layer: &TransformerEncoderLayer,
    x: &E::Act,
    bias: &E::Act,
) -> E::Act {
    let heads = layer.attn.heads;
    let [wq, wk, wv, wo] = layer.attn.params();
    let q = project_heads(f, x, wq, heads);
    let k = project_heads(f, x, wk, heads);
    let v = project_heads(f, x, wv, heads);
    let scores = f.exec.matmul(&q, &k, true);
    let dh = layer.attn.dim / heads;
    let scaled = f.exec.scale(scores, 1.0 / (dh as f32).sqrt());
    let biased = f.exec.add(scaled, bias);
    let attn = f.exec.softmax(biased);
    let ctx = f.exec.matmul(&attn, &v, false);
    let merged = f.exec.merge_heads(ctx, heads);
    let out = f.exec.linear(&merged, f.p(wo), None);
    for t in [q, k, v, attn, merged] {
        f.exec.release(t);
    }
    layer.post.forward(f, x, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervised::train_pair_regression;
    use rand::{rngs::StdRng, SeedableRng};
    use trajcl_geo::{Bbox, Point};
    use trajcl_measures::HeuristicMeasure;
    use trajcl_nn::PairRegression;
    use trajcl_tensor::Shape;

    fn setup() -> (TrajGat, Vec<Trajectory>, StdRng) {
        let mut rng = StdRng::seed_from_u64(6);
        let region = Bbox::new(Point::new(0.0, 0.0), Point::new(1500.0, 1500.0));
        let tf = TokenFeaturizer::new(region, 300.0, 24);
        let model = TrajGat::new(tf, 16, 2, 1, &mut rng);
        use rand::Rng as _;
        let pool: Vec<Trajectory> = (0..10)
            .map(|_| {
                let y = rng.gen_range(100.0..1400.0);
                (0..10).map(|i| Point::new(i as f64 * 150.0, y)).collect()
            })
            .collect();
        (model, pool, rng)
    }

    #[test]
    fn graph_bias_marks_adjacent_cells() {
        let (model, pool, _) = setup();
        let batch = model.featurizer.featurize(&pool[..1]).expect("featurize");
        let bias = model.graph_bias(&batch.cells, &batch.lens, batch.seq_len);
        // Self-pairs are always adjacent (same cell).
        for q in 0..batch.lens[0] {
            assert_eq!(bias.at3(0, q, q), 1.0);
        }
        // Consecutive points (150 m apart, 300 m cells) are adjacent.
        assert_eq!(bias.at3(0, 0, 1), 1.0);
        // Distant points (>600 m) are not.
        assert_eq!(bias.at3(0, 0, 8), 0.0);
    }

    #[test]
    fn embeds_and_trains() {
        let (mut model, pool, mut rng) = setup();
        let e = model.embed(&pool[..3]);
        assert_eq!(e.shape(), Shape::d2(3, 16));
        let cfg = PairRegression {
            pairs_per_epoch: 32,
            batch_pairs: 8,
            epochs: 2,
            lr: 2e-3,
        };
        let losses = train_pair_regression(
            &mut model,
            &pool,
            HeuristicMeasure::Hausdorff,
            &cfg,
            &mut rng,
        );
        assert!(losses.iter().all(|l| l.is_finite()));
        assert!(losses[1] <= losses[0] * 1.5, "loss exploded: {losses:?}");
    }
}
