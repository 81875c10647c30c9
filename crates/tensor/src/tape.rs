//! The autograd tape: forward-op constructors and node storage.
//!
//! A [`Tape`] is rebuilt for every training step (define-by-run). Nodes are
//! appended in topological order, so the backward sweep in
//! [`crate::backward`] is a single reverse iteration.

use crate::kernels::{self, matmul};
use crate::op::Op;
use crate::shape::Shape;
use crate::tensor::Tensor;
use rand::Rng;

/// Handle to a node on a [`Tape`]; a plain index, cheap to copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// Reverse-mode autodiff tape.
pub struct Tape {
    pub(crate) values: Vec<Tensor>,
    pub(crate) ops: Vec<Op>,
    pub(crate) requires: Vec<bool>,
    /// External parameter-store ids, used to route gradients back to the
    /// optimizer after [`Tape::backward`](crate::backward).
    pub(crate) param_binding: Vec<Option<usize>>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Tape {
            values: Vec::with_capacity(64),
            ops: Vec::with_capacity(64),
            requires: Vec::with_capacity(64),
            param_binding: Vec::with_capacity(64),
        }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The forward value of `v`.
    #[inline]
    pub fn value(&self, v: Var) -> &Tensor {
        &self.values[v.0]
    }

    /// Shape of the forward value of `v`.
    #[inline]
    pub fn shape(&self, v: Var) -> Shape {
        self.values[v.0].shape()
    }

    fn push(&mut self, value: Tensor, op: Op, requires: bool) -> Var {
        debug_assert!(
            value.all_finite() || !cfg!(debug_assertions),
            "non-finite forward value"
        );
        self.values.push(value);
        self.ops.push(op);
        self.requires.push(requires);
        self.param_binding.push(None);
        Var(self.values.len() - 1)
    }

    fn req(&self, v: Var) -> bool {
        self.requires[v.0]
    }

    // ----- leaves ---------------------------------------------------------

    /// Records a constant input (no gradient).
    pub fn input(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf, false)
    }

    /// Records a differentiable parameter bound to external id `param_id`.
    ///
    /// After [`backward`](crate::backward) the gradient for this node can be
    /// routed back to the parameter store through
    /// [`Grads::into_param_grads`](crate::backward::Grads::into_param_grads).
    pub fn param(&mut self, value: Tensor, param_id: usize) -> Var {
        let v = self.push(value, Op::Leaf, true);
        self.param_binding[v.0] = Some(param_id);
        v
    }

    // ----- elementwise ----------------------------------------------------

    /// Elementwise sum; shapes must match.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let out = self.value(a).zip_map(self.value(b), |x, y| x + y);
        let r = self.req(a) || self.req(b);
        self.push(out, Op::Add(a, b), r)
    }

    /// Adds a rank-1 bias over the last dimension of `x`.
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let xs = self.shape(x);
        let bs = self.shape(bias);
        assert_eq!(bs.rank(), 1, "bias must be rank 1, got {bs}");
        assert_eq!(bs[0], xs.last(), "bias dim {bs} != last dim of {xs}");
        let mut out = self.value(x).clone();
        kernels::add_bias_rows(out.data_mut(), self.value(bias).data());
        let r = self.req(x) || self.req(bias);
        self.push(out, Op::AddBias(x, bias), r)
    }

    /// Elementwise difference; shapes must match.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let out = self.value(a).zip_map(self.value(b), |x, y| x - y);
        let r = self.req(a) || self.req(b);
        self.push(out, Op::Sub(a, b), r)
    }

    /// Hadamard product; shapes must match.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let out = self.value(a).zip_map(self.value(b), |x, y| x * y);
        let r = self.req(a) || self.req(b);
        self.push(out, Op::Mul(a, b), r)
    }

    /// Multiplication by a constant scalar.
    pub fn scale(&mut self, x: Var, c: f32) -> Var {
        let out = self.value(x).map(|v| v * c);
        let r = self.req(x);
        self.push(out, Op::Scale(x, c), r)
    }

    // ----- linear algebra ---------------------------------------------------

    /// (Batched) matrix product with transpose flags; see
    /// [`kernels::matmul`] for the supported shape combinations.
    pub fn matmul(&mut self, a: Var, b: Var, ta: bool, tb: bool) -> Var {
        let out = matmul(self.value(a), self.value(b), ta, tb);
        let r = self.req(a) || self.req(b);
        self.push(out, Op::Matmul { a, b, ta, tb }, r)
    }

    /// Per-row dot product of two `(R, D)` tensors, returning `(R, 1)`.
    pub fn row_dot(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (self.value(a), self.value(b));
        assert_eq!(av.shape(), bv.shape(), "row_dot shape mismatch");
        let d = av.shape().last();
        let rows = av.shape().rows();
        let mut out = Tensor::zeros(Shape::d2(rows, 1));
        for i in 0..rows {
            out.data_mut()[i] = kernels::dot(
                &av.data()[i * d..(i + 1) * d],
                &bv.data()[i * d..(i + 1) * d],
            );
        }
        let r = self.req(a) || self.req(b);
        self.push(out, Op::RowDot(a, b), r)
    }

    // ----- nonlinearities ----------------------------------------------------

    /// Numerically-stable softmax over the last dimension.
    pub fn softmax(&mut self, x: Var) -> Var {
        let xv = self.value(x);
        let mut out = Tensor::zeros(xv.shape());
        kernels::softmax_rows(xv.data(), xv.shape().last(), out.data_mut());
        let r = self.req(x);
        self.push(out, Op::Softmax(x), r)
    }

    /// ReLU.
    pub fn relu(&mut self, x: Var) -> Var {
        let out = self.value(x).map(|v| v.max(0.0));
        let r = self.req(x);
        self.push(out, Op::Relu(x), r)
    }

    /// Hyperbolic tangent.
    pub fn tanh_op(&mut self, x: Var) -> Var {
        let out = self.value(x).map(f32::tanh);
        let r = self.req(x);
        self.push(out, Op::Tanh(x), r)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        let out = self.value(x).map(kernels::sigmoid);
        let r = self.req(x);
        self.push(out, Op::Sigmoid(x), r)
    }

    /// Elementwise absolute value.
    pub fn abs_op(&mut self, x: Var) -> Var {
        let out = self.value(x).map(f32::abs);
        let r = self.req(x);
        self.push(out, Op::Abs(x), r)
    }

    /// Inverted dropout: keeps elements with probability `1-p` and scales
    /// them by `1/(1-p)`. The identity — `x` itself, no node recorded —
    /// when `training` is false or `p == 0`.
    pub fn dropout(&mut self, x: Var, p: f32, training: bool, rng: &mut impl Rng) -> Var {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout p must be in [0,1), got {p}"
        );
        if !training || p == 0.0 {
            return x;
        }
        let keep = 1.0 - p;
        let inv = 1.0 / keep;
        let xv = self.value(x);
        let mut mask = Tensor::zeros(xv.shape());
        for m in mask.data_mut() {
            if rng.gen::<f32>() < keep {
                *m = inv;
            }
        }
        let out = xv.zip_map(&mask, |v, m| v * m);
        let r = self.req(x);
        self.push(out, Op::Dropout { x, mask }, r)
    }

    // ----- normalisation ----------------------------------------------------

    /// Layer normalisation over the last dimension, with learnable `gamma`
    /// (scale) and `beta` (shift), both rank-1 of that dimension.
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let xs = self.shape(x);
        let d = xs.last();
        assert_eq!(self.shape(gamma), Shape::d1(d), "layer_norm gamma shape");
        assert_eq!(self.shape(beta), Shape::d1(d), "layer_norm beta shape");
        let rows = xs.rows();
        let mut mean = Tensor::zeros(Shape::d1(rows));
        let mut rstd = Tensor::zeros(Shape::d1(rows));
        let mut out = self.value(x).clone();
        let (g, b) = (self.value(gamma).data(), self.value(beta).data());
        kernels::layer_norm_rows(out.data_mut(), g, b, eps, |i, mu, rs| {
            mean.data_mut()[i] = mu;
            rstd.data_mut()[i] = rs;
        });
        let r = self.req(x) || self.req(gamma) || self.req(beta);
        self.push(
            out,
            Op::LayerNorm {
                x,
                gamma,
                beta,
                mean,
                rstd,
            },
            r,
        )
    }

    /// Scales each row of a rank-2 tensor to unit L2 norm.
    pub fn l2_normalize_rows(&mut self, x: Var) -> Var {
        let xv = self.value(x);
        let d = xv.shape().last();
        let rows = xv.shape().rows();
        let mut inv_norms = Tensor::zeros(Shape::d1(rows));
        let mut out = xv.clone();
        kernels::l2_normalize_rows(out.data_mut(), d, |i, inv| inv_norms.data_mut()[i] = inv);
        let r = self.req(x);
        self.push(out, Op::L2NormalizeRows { x, inv_norms }, r)
    }

    // ----- shape plumbing ---------------------------------------------------

    /// Concatenates along the last dimension; leading dimensions must match.
    pub fn concat(&mut self, parts: &[Var]) -> Var {
        let values: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let out = kernels::concat(&values, Tensor::zeros);
        let r = parts.iter().any(|&p| self.req(p));
        self.push(
            out,
            Op::Concat {
                parts: parts.to_vec(),
            },
            r,
        )
    }

    /// `(B, L, H*Dh) -> (B*H, L, Dh)` for multi-head attention.
    pub fn split_heads(&mut self, x: Var, heads: usize) -> Var {
        let out = regroup_heads(self.value(x), heads, false, Tensor::zeros);
        let r = self.req(x);
        self.push(out, Op::SplitHeads { x, heads }, r)
    }

    /// `(B*H, L, Dh) -> (B, L, H*Dh)`, inverse of [`Tape::split_heads`].
    pub fn merge_heads(&mut self, x: Var, heads: usize) -> Var {
        let out = regroup_heads(self.value(x), heads, true, Tensor::zeros);
        let r = self.req(x);
        self.push(out, Op::MergeHeads { x, heads }, r)
    }

    /// Reinterprets the value under a new shape (same element count).
    pub fn reshape(&mut self, x: Var, shape: Shape) -> Var {
        let out = self.value(x).clone().reshaped(shape);
        let r = self.req(x);
        self.push(out, Op::Reshape(x), r)
    }

    /// `(B, L, D)` slice at time step `t`, producing `(B, D)`.
    pub fn select_time(&mut self, x: Var, t: usize) -> Var {
        let out = kernels::select_time(self.value(x), t, Tensor::zeros);
        let r = self.req(x);
        self.push(out, Op::SelectTime { x, t }, r)
    }

    // ----- pooling / gathering ----------------------------------------------

    /// Masked mean over time: averages the first `lens[b]` positions of each
    /// sequence in a `(B, L, D)` tensor, producing `(B, D)`.
    pub fn mean_pool_masked(&mut self, x: Var, lens: &[usize]) -> Var {
        let out = kernels::mean_pool_masked(self.value(x), lens, Tensor::zeros);
        let r = self.req(x);
        self.push(
            out,
            Op::MeanPoolMasked {
                x,
                lens: lens.to_vec(),
            },
            r,
        )
    }

    /// Row gather from an embedding `table` of shape `(V, D)`:
    /// `out[i, :] = table[ids[i], :]`, producing `(N, D)`.
    pub fn embedding(&mut self, table: Var, ids: &[u32]) -> Var {
        let d = self.shape(table).last();
        let mut out = Tensor::zeros(Shape::d2(ids.len(), d));
        kernels::gather_rows(self.value(table), ids, out.data_mut());
        let r = self.req(table);
        self.push(
            out,
            Op::Embedding {
                table,
                ids: ids.to_vec(),
            },
            r,
        )
    }

    // ----- reductions / losses ------------------------------------------------

    /// Mean of all elements, producing a scalar node.
    pub fn mean_all(&mut self, x: Var) -> Var {
        let out = Tensor::scalar(self.value(x).mean());
        let r = self.req(x);
        self.push(out, Op::MeanAll(x), r)
    }

    /// Sum of all elements, producing a scalar node.
    pub fn sum_all(&mut self, x: Var) -> Var {
        let out = Tensor::scalar(self.value(x).sum());
        let r = self.req(x);
        self.push(out, Op::SumAll(x), r)
    }

    /// Mean cross-entropy between `(B, C)` logits and integer class targets.
    pub fn cross_entropy(&mut self, logits: Var, targets: &[usize]) -> Var {
        let ls = self.shape(logits);
        assert_eq!(ls.rank(), 2, "cross_entropy expects rank-2 logits");
        let (b, c) = (ls[0], ls[1]);
        assert_eq!(targets.len(), b, "targets length must equal batch");
        let mut probs = Tensor::zeros(ls);
        kernels::softmax_rows(self.value(logits).data(), c, probs.data_mut());
        let mut loss = 0.0;
        for (i, &t) in targets.iter().enumerate() {
            assert!(t < c, "target {t} out of range {c}");
            loss -= probs.data()[i * c + t].max(1e-12).ln();
        }
        let out = Tensor::scalar(loss / b as f32);
        let r = self.req(logits);
        self.push(
            out,
            Op::CrossEntropy {
                logits,
                targets: targets.to_vec(),
                probs,
            },
            r,
        )
    }

    /// `x * s` with a learnable 1-element scale `s` (e.g. the γ fusion weight
    /// in DualMSM).
    pub fn mul_scalar_var(&mut self, x: Var, s: Var) -> Var {
        assert_eq!(self.shape(s).numel(), 1, "scale must be a single element");
        let sv = self.value(s).data()[0];
        let out = self.value(x).map(|v| v * sv);
        let r = self.req(x) || self.req(s);
        self.push(out, Op::MulScalarVar { x, s }, r)
    }

    /// [`kernels::unfold`]: the `k × k` windows of a `(B, H·width, C)`
    /// channels-last image batch as rows, `(B, OH·OW, k·k·C)`.
    pub fn unfold(&mut self, x: Var, width: usize, k: usize, stride: usize, pad: usize) -> Var {
        let out = kernels::unfold(self.value(x), width, k, stride, pad, Tensor::zeros);
        let r = self.req(x);
        let op = Op::Unfold {
            x,
            width,
            k,
            stride,
            pad,
        };
        self.push(out, op, r)
    }
}

/// `(B, L, H·Dh) -> (B·H, L, Dh)` — or, with `merge`, its inverse — into a
/// tensor from `alloc`.
pub(crate) fn regroup_heads(
    x: &Tensor,
    heads: usize,
    merge: bool,
    alloc: impl FnOnce(Shape) -> Tensor,
) -> Tensor {
    let xs = x.shape();
    assert_eq!(xs.rank(), 3, "head split/merge expects rank 3, got {xs}");
    let (grouped, l, d) = (xs[0], xs[1], xs[2]);
    let (b, dh, out) = if merge {
        assert_eq!(
            grouped % heads,
            0,
            "batch*heads {grouped} not divisible by {heads}"
        );
        (grouped / heads, d, Shape::d3(grouped / heads, l, heads * d))
    } else {
        assert_eq!(d % heads, 0, "model dim {d} not divisible by {heads} heads");
        (grouped, d / heads, Shape::d3(grouped * heads, l, d / heads))
    };
    let mut out = alloc(out);
    split_heads_copy(x.data(), out.data_mut(), b, l, heads, dh, merge);
    out
}

/// Shared index shuffle for head split/merge.
///
/// `reverse = false`: src is `(B, L, H*Dh)`, dst is `(B*H, L, Dh)`.
/// `reverse = true` : src is `(B*H, L, Dh)`, dst is `(B, L, H*Dh)`.
pub(crate) fn split_heads_copy(
    src: &[f32],
    dst: &mut [f32],
    b: usize,
    l: usize,
    heads: usize,
    dh: usize,
    reverse: bool,
) {
    for bi in 0..b {
        for h in 0..heads {
            for t in 0..l {
                let packed = (bi * l + t) * heads * dh + h * dh;
                let split = ((bi * heads + h) * l + t) * dh;
                if reverse {
                    dst[packed..packed + dh].copy_from_slice(&src[split..split + dh]);
                } else {
                    dst[split..split + dh].copy_from_slice(&src[packed..packed + dh]);
                }
            }
        }
    }
}
