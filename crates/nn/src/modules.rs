//! Basic building-block layers.

use crate::init;
use crate::store::{ParamId, ParamStore};
use rand::Rng;
use trajcl_tensor::{Exec, Param, Shape, Tensor};

/// Forward context: the executor a pass runs on plus the parameters it
/// reads. Every layer takes one, generic over the executor, so the same
/// `forward` trains on a [`TapeExec`](trajcl_tensor::TapeExec) and serves on an
/// [`InferCtx`](trajcl_tensor::InferCtx).
pub struct Fwd<'a, E> {
    /// Where the ops run.
    pub exec: &'a mut E,
    /// The model parameters (read-only).
    pub store: &'a ParamStore,
}

impl<'a, E> Fwd<'a, E> {
    /// Convenience constructor.
    pub fn new(exec: &'a mut E, store: &'a ParamStore) -> Self {
        Fwd { exec, store }
    }

    /// Parameter `id` as the executor ops take it.
    #[inline]
    pub fn p(&self, id: ParamId) -> Param<'a> {
        self.store.p(id)
    }
}

/// Fully-connected layer `y = x·W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    /// Input feature dimension (for shape reporting).
    pub in_dim: usize,
    /// Output feature dimension.
    pub out_dim: usize,
}

impl Linear {
    /// Registers a new Xavier-initialised linear layer.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let w = store.add(
            format!("{name}.weight"),
            init::xavier_uniform(in_dim, out_dim, rng),
        );
        let b = store.add(format!("{name}.bias"), Tensor::zeros(Shape::d1(out_dim)));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Applies the layer to `(.., in_dim)` input.
    pub fn forward<E: Exec>(&self, f: &mut Fwd<E>, x: &E::Act) -> E::Act {
        f.exec.linear(x, f.p(self.w), Some(f.p(self.b)))
    }

    /// Parameter ids `(weight, bias)` — exposed for fine-tuning selectors.
    pub fn params(&self) -> (ParamId, ParamId) {
        (self.w, self.b)
    }
}

/// Layer normalisation with learnable affine parameters.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: ParamId,
    beta: ParamId,
    eps: f32,
}

impl LayerNorm {
    /// Registers a layer-norm over feature dimension `dim`.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gamma = store.add(format!("{name}.gamma"), Tensor::ones(Shape::d1(dim)));
        let beta = store.add(format!("{name}.beta"), Tensor::zeros(Shape::d1(dim)));
        LayerNorm {
            gamma,
            beta,
            eps: 1e-5,
        }
    }

    /// Normalises the last dimension of `x`.
    pub fn forward<E: Exec>(&self, f: &mut Fwd<E>, x: E::Act) -> E::Act {
        f.exec
            .layer_norm(x, f.p(self.gamma), f.p(self.beta), self.eps)
    }
}

/// Two-layer perceptron `FC ∘ ReLU ∘ FC` (the projection-head shape from
/// TrajCL Eq. 1, also the Transformer feed-forward block).
#[derive(Debug, Clone)]
pub struct Mlp {
    fc1: Linear,
    fc2: Linear,
    dropout: f32,
}

impl Mlp {
    /// Registers an MLP `in_dim -> hidden -> out_dim`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        dropout: f32,
        rng: &mut impl Rng,
    ) -> Self {
        Mlp {
            fc1: Linear::new(store, &format!("{name}.fc1"), in_dim, hidden, rng),
            fc2: Linear::new(store, &format!("{name}.fc2"), hidden, out_dim, rng),
            dropout,
        }
    }

    /// `fc2(dropout(relu(fc1(x))))`.
    pub fn forward<E: Exec>(&self, f: &mut Fwd<E>, x: &E::Act) -> E::Act {
        let h = self.fc1.forward(f, x);
        let h = f.exec.relu(h);
        let h = f.exec.dropout(h, self.dropout);
        let out = self.fc2.forward(f, &h);
        f.exec.release(h);
        out
    }
}

/// Token-embedding table with gather-based lookup.
#[derive(Debug, Clone)]
pub struct Embedding {
    table: ParamId,
    /// Vocabulary size.
    pub vocab: usize,
    /// Embedding dimension.
    pub dim: usize,
}

impl Embedding {
    /// Registers a `(vocab, dim)` embedding table.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let table = store.add(
            format!("{name}.table"),
            init::embedding_init(vocab, dim, rng),
        );
        Embedding { table, vocab, dim }
    }

    /// Registers an embedding initialised from a precomputed table (e.g.
    /// node2vec cell embeddings).
    pub fn from_pretrained(store: &mut ParamStore, name: &str, table: Tensor) -> Self {
        let shape = table.shape();
        assert_eq!(shape.rank(), 2, "embedding table must be rank 2");
        let (vocab, dim) = (shape[0], shape[1]);
        let table = store.add(format!("{name}.table"), table);
        Embedding { table, vocab, dim }
    }

    /// Looks up `ids` (`batch` sequences of equal length, row-major) as
    /// `(batch, seq, dim)`.
    pub fn forward<E: Exec>(&self, f: &mut Fwd<E>, ids: &[u32], batch: usize) -> E::Act {
        assert_eq!(ids.len() % batch, 0, "ids length mismatch");
        f.exec.gather(f.p(self.table), ids, batch)
    }
}

/// Square-kernel 2-D convolution over channels-last images (the TrjSR
/// baseline's layer): a window unfold and one product with a `(k·k·in,
/// out)` weight, on the GEMM every linear layer runs on.
#[derive(Debug, Clone)]
pub struct Conv2d {
    w: ParamId,
    b: ParamId,
    k: usize,
    stride: usize,
    pad: usize,
}

impl Conv2d {
    /// Registers a conv layer with a square `k`-kernel.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_ch: usize,
        out_ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let w = store.add(
            format!("{name}.weight"),
            init::conv_xavier(out_ch, in_ch, k, rng),
        );
        let b = store.add(format!("{name}.bias"), Tensor::zeros(Shape::d1(out_ch)));
        Conv2d {
            w,
            b,
            k,
            stride,
            pad,
        }
    }

    /// Applies the convolution to a `(B, H·width, in)` image batch (each
    /// element's rows its pixels, row-major), giving `(B, OH·OW, out)`.
    pub fn forward<E: Exec>(&self, f: &mut Fwd<E>, x: &E::Act, width: usize) -> E::Act {
        let cols = f.exec.unfold(x, width, self.k, self.stride, self.pad);
        let y = f.exec.linear(&cols, f.p(self.w), Some(f.p(self.b)));
        f.exec.release(cols);
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use trajcl_tensor::TapeExec;

    #[test]
    fn linear_shapes_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 4, 3, &mut rng);
        // Force known weights: zero W, bias = [1, 2, 3].
        store.value_mut(lin.params().0).data_mut().fill(0.0);
        store
            .value_mut(lin.params().1)
            .data_mut()
            .copy_from_slice(&[1.0, 2.0, 3.0]);
        let mut exec = TapeExec::new(&mut rng, false);
        let mut f = Fwd::new(&mut exec, &store);
        let x = f.exec.tape.input(Tensor::ones(Shape::d2(2, 4)));
        let y = lin.forward(&mut f, &x);
        assert_eq!(exec.tape.shape(y), Shape::d2(2, 3));
        assert_eq!(exec.tape.value(y).row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn linear_batched_rank3() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 4, 5, &mut rng);
        let mut exec = TapeExec::new(&mut rng, false);
        let mut f = Fwd::new(&mut exec, &store);
        let x = f.exec.tape.input(Tensor::ones(Shape::d3(2, 3, 4)));
        let y = lin.forward(&mut f, &x);
        assert_eq!(exec.tape.shape(y), Shape::d3(2, 3, 5));
    }

    #[test]
    fn layer_norm_normalizes_rows() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 8);
        let mut exec = TapeExec::new(&mut rng, false);
        let mut f = Fwd::new(&mut exec, &store);
        let x = f.exec.tape.input(Tensor::randn(
            Shape::d2(4, 8),
            5.0,
            3.0,
            &mut StdRng::seed_from_u64(3),
        ));
        let y = ln.forward(&mut f, x);
        for r in 0..4 {
            let row = exec.tape.value(y).row(r);
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4, "row mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "row var {var}");
        }
    }

    #[test]
    fn mlp_end_to_end_gradients_flow() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", 4, 8, 2, 0.0, &mut rng);
        let mut exec = TapeExec::new(&mut rng, true);
        let mut f = Fwd::new(&mut exec, &store);
        let x = f.exec.tape.input(Tensor::ones(Shape::d2(3, 4)));
        let y = mlp.forward(&mut f, &x);
        let loss = exec.tape.mean_all(y);
        let grads = exec.tape.backward(loss);
        let pairs = grads.into_param_grads(&exec.tape);
        assert!(!pairs.is_empty(), "MLP params should receive gradients");
        store.accumulate(pairs);
        assert!(store.grad_norm() > 0.0);
    }

    #[test]
    fn embedding_lookup_rows() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let table = Tensor::from_vec(vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0], Shape::d2(3, 2));
        let emb = Embedding::from_pretrained(&mut store, "e", table);
        let mut exec = TapeExec::new(&mut rng, false);
        let y = emb.forward(&mut Fwd::new(&mut exec, &store), &[2, 0, 1, 1], 2);
        assert_eq!(exec.tape.shape(y), Shape::d3(2, 2, 2));
        assert_eq!(exec.tape.value(y).at3(0, 0, 0), 2.0);
        assert_eq!(exec.tape.value(y).at3(1, 0, 1), 1.0);
    }

    #[test]
    fn conv2d_layer_shapes() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let conv = Conv2d::new(&mut store, "c", 1, 4, 3, 2, 1, &mut rng);
        let mut exec = TapeExec::new(&mut rng, false);
        let mut f = Fwd::new(&mut exec, &store);
        let x = f.exec.tape.input(Tensor::ones(Shape::d3(2, 64, 1)));
        let y = conv.forward(&mut f, &x, 8);
        assert_eq!(exec.tape.shape(y), Shape::d3(2, 16, 4));
    }
}
