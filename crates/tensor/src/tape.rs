//! The autograd tape: each op's forward value and its backward rule.
//!
//! A [`Tape`] is rebuilt for every training step (define-by-run). Each
//! constructor below computes its op's forward value and records it with
//! the op's backward rule: a closure that owns the parent [`Var`]s and
//! whatever forward state the gradient formula reads (a dropout mask,
//! layer-norm statistics, softmax probabilities, ...). One op is one
//! constructor. Nodes are appended in topological order, so the sweep in
//! [`crate::backward`] is a single reverse iteration that calls each
//! reached node's rule.

use crate::kernels::{self, dot, for_each_tap, matmul, matmul_acc_into};
use crate::shape::Shape;
use crate::tensor::Tensor;
use rand::Rng;

/// Handle to a node on a [`Tape`]; a plain index, cheap to copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// A node's backward rule. Called as `rule(tape, y, g, grads)` with the
/// node's forward value `y` and output gradient `g`, it adds each parent's
/// gradient into `grads` through [`Tape::acc`].
pub(crate) type Rule = Box<dyn Fn(&Tape, &Tensor, &Tensor, &mut [Option<Tensor>]) + Send + Sync>;

/// Reverse-mode autodiff tape.
pub struct Tape {
    pub(crate) values: Vec<Tensor>,
    /// Each node's backward rule; `None` for a leaf.
    pub(crate) rules: Vec<Option<Rule>>,
    pub(crate) requires: Vec<bool>,
    /// External parameter-store ids, used to route gradients back to the
    /// optimizer after [`Tape::backward`](crate::backward).
    pub(crate) param_binding: Vec<Option<usize>>,
}

// A tape is plain data plus rules, and stays `Send + Sync`: so is every rule.
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<Tape>();
};

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
            rules: Vec::with_capacity(64),
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

    fn push(&mut self, value: Tensor, rule: Option<Rule>, requires: bool) -> Var {
        debug_assert!(
            value.all_finite() || !cfg!(debug_assertions),
            "non-finite forward value"
        );
        self.values.push(value);
        self.rules.push(rule);
        self.requires.push(requires);
        self.param_binding.push(None);
        Var(self.values.len() - 1)
    }

    /// Records an op's node: its forward `value` and backward `rule`. The
    /// node needs a gradient when any of its `parents` does.
    fn record(
        &mut self,
        value: Tensor,
        parents: &[Var],
        rule: impl Fn(&Tape, &Tensor, &Tensor, &mut [Option<Tensor>]) + Send + Sync + 'static,
    ) -> Var {
        let requires = parents.iter().any(|&p| self.req(p));
        self.push(value, Some(Box::new(rule)), requires)
    }

    fn req(&self, v: Var) -> bool {
        self.requires[v.0]
    }

    // ----- leaves ---------------------------------------------------------

    /// Records a constant input (no gradient).
    pub fn input(&mut self, value: Tensor) -> Var {
        self.push(value, None, false)
    }

    /// Records a differentiable parameter bound to external id `param_id`.
    ///
    /// After [`backward`](crate::backward) the gradient for this node can be
    /// routed back to the parameter store through
    /// [`Grads::into_param_grads`](crate::backward::Grads::into_param_grads).
    pub fn param(&mut self, value: Tensor, param_id: usize) -> Var {
        let v = self.push(value, None, true);
        self.param_binding[v.0] = Some(param_id);
        v
    }

    // ----- elementwise ----------------------------------------------------

    /// Elementwise sum; shapes must match.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let out = self.value(a).zip_map(self.value(b), |x, y| x + y);
        self.record(out, &[a, b], move |tape, _, g, grads| {
            tape.acc(grads, a, g.clone());
            tape.acc(grads, b, g.clone());
        })
    }

    /// Adds a rank-1 bias over the last dimension of `x`.
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let xs = self.shape(x);
        let bs = self.shape(bias);
        assert_eq!(bs.rank(), 1, "bias must be rank 1, got {bs}");
        assert_eq!(bs[0], xs.last(), "bias dim {bs} != last dim of {xs}");
        let mut out = self.value(x).clone();
        kernels::add_bias_rows(out.data_mut(), self.value(bias).data());
        self.record(out, &[x, bias], move |tape, _, g, grads| {
            tape.acc(grads, x, g.clone());
            if tape.req(bias) {
                let d = tape.value(bias).numel();
                let mut db = Tensor::zeros(Shape::d1(d));
                for row in g.data().chunks(d) {
                    for (o, &v) in db.data_mut().iter_mut().zip(row) {
                        *o += v;
                    }
                }
                tape.acc(grads, bias, db);
            }
        })
    }

    /// Elementwise difference; shapes must match.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let out = self.value(a).zip_map(self.value(b), |x, y| x - y);
        self.record(out, &[a, b], move |tape, _, g, grads| {
            tape.acc(grads, a, g.clone());
            tape.acc(grads, b, g.map(|v| -v));
        })
    }

    /// Hadamard product; shapes must match.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let out = self.value(a).zip_map(self.value(b), |x, y| x * y);
        self.record(out, &[a, b], move |tape, _, g, grads| {
            if tape.req(a) {
                tape.acc(grads, a, g.zip_map(tape.value(b), |x, y| x * y));
            }
            if tape.req(b) {
                tape.acc(grads, b, g.zip_map(tape.value(a), |x, y| x * y));
            }
        })
    }

    /// Multiplication by a constant scalar.
    pub fn scale(&mut self, x: Var, c: f32) -> Var {
        let out = self.value(x).map(|v| v * c);
        self.record(out, &[x], move |tape, _, g, grads| {
            tape.acc(grads, x, g.map(|v| v * c));
        })
    }

    // ----- linear algebra ---------------------------------------------------

    /// (Batched) matrix product with transpose flags; see
    /// [`kernels::matmul`] for the supported shape combinations.
    pub fn matmul(&mut self, a: Var, b: Var, ta: bool, tb: bool) -> Var {
        let out = matmul(self.value(a), self.value(b), ta, tb);
        self.record(out, &[a, b], move |tape, _, g, grads| {
            // With A_eff = ta?Aᵀ:A and B_eff = tb?Bᵀ:B and C = A_eff·B_eff:
            //   dA = ta ? B_eff·gᵀ : g·B_effᵀ   (expressed via transpose flags)
            //   dB = tb ? gᵀ·A_eff : A_effᵀ·g
            // `matmul_acc_into` also sums over the batch when the parent
            // is an unbatched (shared) operand.
            let (av, bv) = (tape.value(a), tape.value(b));
            if tape.req(a) {
                let mut da = Tensor::zeros(av.shape());
                if !ta {
                    matmul_acc_into(&mut da, g, bv, false, !tb);
                } else {
                    matmul_acc_into(&mut da, bv, g, tb, true);
                }
                tape.acc(grads, a, da);
            }
            if tape.req(b) {
                let mut db = Tensor::zeros(bv.shape());
                if !tb {
                    matmul_acc_into(&mut db, av, g, !ta, false);
                } else {
                    matmul_acc_into(&mut db, g, av, true, ta);
                }
                tape.acc(grads, b, db);
            }
        })
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
        self.record(out, &[a, b], move |tape, _, g, grads| {
            for (parent, other) in [(a, b), (b, a)] {
                if !tape.req(parent) {
                    continue;
                }
                let mut dp = Tensor::zeros(tape.shape(parent));
                for r in 0..rows {
                    let gv = g.data()[r];
                    let orow = &tape.value(other).data()[r * d..(r + 1) * d];
                    let prow = &mut dp.data_mut()[r * d..(r + 1) * d];
                    for (o, &v) in prow.iter_mut().zip(orow) {
                        *o += gv * v;
                    }
                }
                tape.acc(grads, parent, dp);
            }
        })
    }

    // ----- nonlinearities ----------------------------------------------------

    /// Numerically-stable softmax over the last dimension.
    pub fn softmax(&mut self, x: Var) -> Var {
        let xv = self.value(x);
        let mut out = Tensor::zeros(xv.shape());
        kernels::softmax_rows(xv.data(), xv.shape().last(), out.data_mut());
        self.record(out, &[x], move |tape, y, g, grads| {
            // dx = y ⊙ (g - <g, y>_row)
            let d = y.shape().last();
            let mut dx = Tensor::zeros(y.shape());
            for ((yr, gr), dr) in y
                .data()
                .chunks(d)
                .zip(g.data().chunks(d))
                .zip(dx.data_mut().chunks_mut(d))
            {
                let s = dot(yr, gr);
                for j in 0..d {
                    dr[j] = yr[j] * (gr[j] - s);
                }
            }
            tape.acc(grads, x, dx);
        })
    }

    /// ReLU.
    pub fn relu(&mut self, x: Var) -> Var {
        let out = self.value(x).map(|v| v.max(0.0));
        self.record(out, &[x], move |tape, _, g, grads| {
            let dx = g.zip_map(tape.value(x), |gv, xv| if xv > 0.0 { gv } else { 0.0 });
            tape.acc(grads, x, dx);
        })
    }

    /// Hyperbolic tangent.
    pub fn tanh_op(&mut self, x: Var) -> Var {
        let out = self.value(x).map(f32::tanh);
        self.record(out, &[x], move |tape, y, g, grads| {
            tape.acc(grads, x, g.zip_map(y, |gv, yv| gv * (1.0 - yv * yv)));
        })
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        let out = self.value(x).map(kernels::sigmoid);
        self.record(out, &[x], move |tape, y, g, grads| {
            tape.acc(grads, x, g.zip_map(y, |gv, yv| gv * yv * (1.0 - yv)));
        })
    }

    /// Elementwise absolute value.
    pub fn abs_op(&mut self, x: Var) -> Var {
        let out = self.value(x).map(f32::abs);
        self.record(out, &[x], move |tape, _, g, grads| {
            let dx = g.zip_map(tape.value(x), |gv, xv| {
                gv * xv.signum() * (xv != 0.0) as u8 as f32
            });
            tape.acc(grads, x, dx);
        })
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
        // Elements are `0` or `1/(1-p)`.
        let mut mask = Tensor::zeros(xv.shape());
        for m in mask.data_mut() {
            if rng.gen::<f32>() < keep {
                *m = inv;
            }
        }
        let out = xv.zip_map(&mask, |v, m| v * m);
        self.record(out, &[x], move |tape, _, g, grads| {
            tape.acc(grads, x, g.zip_map(&mask, |gv, m| gv * m));
        })
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
        self.record(out, &[x, gamma, beta], move |tape, _, g, grads| {
            let xd = tape.value(x).data();
            let gd = tape.value(gamma).data();
            let need_x = tape.req(x);
            let mut dx = Tensor::zeros(xs);
            let mut dgamma = Tensor::zeros(Shape::d1(d));
            let mut dbeta = Tensor::zeros(Shape::d1(d));
            for r in 0..rows {
                let mu = mean.data()[r];
                let rs = rstd.data()[r];
                let xr = &xd[r * d..(r + 1) * d];
                let gr = &g.data()[r * d..(r + 1) * d];
                // Accumulate affine-parameter grads.
                for j in 0..d {
                    let xhat = (xr[j] - mu) * rs;
                    dgamma.data_mut()[j] += gr[j] * xhat;
                    dbeta.data_mut()[j] += gr[j];
                }
                if need_x {
                    // dxhat = g ⊙ γ; dx = rs (dxhat - mean(dxhat) - x̂·mean(dxhat⊙x̂))
                    let mut m1 = 0.0;
                    let mut m2 = 0.0;
                    for j in 0..d {
                        let xhat = (xr[j] - mu) * rs;
                        let dxh = gr[j] * gd[j];
                        m1 += dxh;
                        m2 += dxh * xhat;
                    }
                    m1 /= d as f32;
                    m2 /= d as f32;
                    let dr = &mut dx.data_mut()[r * d..(r + 1) * d];
                    for j in 0..d {
                        let xhat = (xr[j] - mu) * rs;
                        let dxh = gr[j] * gd[j];
                        dr[j] = rs * (dxh - m1 - xhat * m2);
                    }
                }
            }
            if need_x {
                tape.acc(grads, x, dx);
            }
            tape.acc(grads, gamma, dgamma);
            tape.acc(grads, beta, dbeta);
        })
    }

    /// Scales each row of a rank-2 tensor to unit L2 norm.
    pub fn l2_normalize_rows(&mut self, x: Var) -> Var {
        let xv = self.value(x);
        let d = xv.shape().last();
        let rows = xv.shape().rows();
        let mut inv_norms = Tensor::zeros(Shape::d1(rows));
        let mut out = xv.clone();
        kernels::l2_normalize_rows(out.data_mut(), d, |i, inv| inv_norms.data_mut()[i] = inv);
        self.record(out, &[x], move |tape, y, g, grads| {
            // dx = (g - y (y·g)) / ||x||
            let mut dx = Tensor::zeros(y.shape());
            for r in 0..rows {
                let inv = inv_norms.data()[r];
                let yr = &y.data()[r * d..(r + 1) * d];
                let gr = &g.data()[r * d..(r + 1) * d];
                let proj = dot(yr, gr);
                let dr = &mut dx.data_mut()[r * d..(r + 1) * d];
                for j in 0..d {
                    dr[j] = (gr[j] - yr[j] * proj) * inv;
                }
            }
            tape.acc(grads, x, dx);
        })
    }

    // ----- shape plumbing ---------------------------------------------------

    /// Concatenates along the last dimension; leading dimensions must match.
    pub fn concat(&mut self, parts: &[Var]) -> Var {
        let values: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let out = kernels::concat(&values, Tensor::zeros);
        let owned = parts.to_vec();
        self.record(out, parts, move |tape, y, g, grads| {
            let widths: Vec<usize> = owned.iter().map(|&p| tape.shape(p).last()).collect();
            let total: usize = widths.iter().sum();
            let rows = y.shape().rows();
            let mut off = 0;
            for (&p, &w) in owned.iter().zip(&widths) {
                if tape.req(p) {
                    let mut dp = Tensor::zeros(tape.shape(p));
                    for r in 0..rows {
                        dp.data_mut()[r * w..(r + 1) * w]
                            .copy_from_slice(&g.data()[r * total + off..r * total + off + w]);
                    }
                    tape.acc(grads, p, dp);
                }
                off += w;
            }
        })
    }

    /// `(B, L, H*Dh) -> (B*H, L, Dh)` for multi-head attention.
    pub fn split_heads(&mut self, x: Var, heads: usize) -> Var {
        let out = regroup_heads(self.value(x), heads, false, Tensor::zeros);
        self.record(out, &[x], move |tape, _, g, grads| {
            let xs = tape.shape(x);
            let (b, l, d) = (xs[0], xs[1], xs[2]);
            let mut dx = Tensor::zeros(xs);
            split_heads_copy(g.data(), dx.data_mut(), b, l, heads, d / heads, true);
            tape.acc(grads, x, dx);
        })
    }

    /// `(B*H, L, Dh) -> (B, L, H*Dh)`, inverse of [`Tape::split_heads`].
    pub fn merge_heads(&mut self, x: Var, heads: usize) -> Var {
        let out = regroup_heads(self.value(x), heads, true, Tensor::zeros);
        self.record(out, &[x], move |tape, _, g, grads| {
            let xs = tape.shape(x);
            let (bh, l, dh) = (xs[0], xs[1], xs[2]);
            let mut dx = Tensor::zeros(xs);
            split_heads_copy(g.data(), dx.data_mut(), bh / heads, l, heads, dh, false);
            tape.acc(grads, x, dx);
        })
    }

    /// Reinterprets the value under a new shape (same element count).
    pub fn reshape(&mut self, x: Var, shape: Shape) -> Var {
        let out = self.value(x).clone().reshaped(shape);
        self.record(out, &[x], move |tape, _, g, grads| {
            tape.acc(grads, x, g.clone().reshaped(tape.shape(x)));
        })
    }

    /// `(B, L, D)` slice at time step `t`, producing `(B, D)`.
    pub fn select_time(&mut self, x: Var, t: usize) -> Var {
        let out = kernels::select_time(self.value(x), t, Tensor::zeros);
        self.record(out, &[x], move |tape, _, g, grads| {
            let xs = tape.shape(x);
            let (b, l, d) = (xs[0], xs[1], xs[2]);
            let mut dx = Tensor::zeros(xs);
            for bi in 0..b {
                dx.data_mut()[(bi * l + t) * d..(bi * l + t + 1) * d]
                    .copy_from_slice(&g.data()[bi * d..(bi + 1) * d]);
            }
            tape.acc(grads, x, dx);
        })
    }

    // ----- pooling / gathering ----------------------------------------------

    /// Masked mean over time: averages the first `lens[b]` positions of each
    /// sequence in a `(B, L, D)` tensor, producing `(B, D)`.
    pub fn mean_pool_masked(&mut self, x: Var, lens: &[usize]) -> Var {
        let out = kernels::mean_pool_masked(self.value(x), lens, Tensor::zeros);
        let lens = lens.to_vec();
        self.record(out, &[x], move |tape, _, g, grads| {
            let xs = tape.shape(x);
            let (l, d) = (xs[1], xs[2]);
            let mut dx = Tensor::zeros(xs);
            for (bi, &len) in lens.iter().enumerate() {
                let inv = 1.0 / len as f32;
                let gr = &g.data()[bi * d..(bi + 1) * d];
                for t in 0..len {
                    let dr = &mut dx.data_mut()[(bi * l + t) * d..(bi * l + t + 1) * d];
                    for (o, &v) in dr.iter_mut().zip(gr) {
                        *o += v * inv;
                    }
                }
            }
            tape.acc(grads, x, dx);
        })
    }

    /// Row gather from an embedding `table` of shape `(V, D)`:
    /// `out[i, :] = table[ids[i], :]`, producing `(N, D)`.
    pub fn embedding(&mut self, table: Var, ids: &[u32]) -> Var {
        let d = self.shape(table).last();
        let mut out = Tensor::zeros(Shape::d2(ids.len(), d));
        kernels::gather_rows(self.value(table), ids, out.data_mut());
        let ids = ids.to_vec();
        self.record(out, &[table], move |tape, _, g, grads| {
            let mut dt = Tensor::zeros(tape.shape(table));
            for (r, &id) in ids.iter().enumerate() {
                let gr = &g.data()[r * d..(r + 1) * d];
                let tr = &mut dt.data_mut()[id as usize * d..(id as usize + 1) * d];
                for (o, &v) in tr.iter_mut().zip(gr) {
                    *o += v;
                }
            }
            tape.acc(grads, table, dt);
        })
    }

    // ----- reductions / losses ------------------------------------------------

    /// Mean of all elements, producing a scalar node.
    pub fn mean_all(&mut self, x: Var) -> Var {
        let out = Tensor::scalar(self.value(x).mean());
        self.record(out, &[x], move |tape, _, g, grads| {
            let n = tape.value(x).numel() as f32;
            let gv = g.data()[0] / n;
            tape.acc(grads, x, Tensor::full(tape.shape(x), gv));
        })
    }

    /// Sum of all elements, producing a scalar node.
    pub fn sum_all(&mut self, x: Var) -> Var {
        let out = Tensor::scalar(self.value(x).sum());
        self.record(out, &[x], move |tape, _, g, grads| {
            tape.acc(grads, x, Tensor::full(tape.shape(x), g.data()[0]));
        })
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
        let targets = targets.to_vec();
        self.record(out, &[logits], move |tape, _, g, grads| {
            let scale = g.data()[0] / b as f32;
            let mut dl = probs.map(|p| p * scale);
            for (r, &t) in targets.iter().enumerate() {
                dl.data_mut()[r * c + t] -= scale;
            }
            tape.acc(grads, logits, dl);
        })
    }

    /// `x * s` with a learnable 1-element scale `s` (e.g. the γ fusion weight
    /// in DualMSM).
    pub fn mul_scalar_var(&mut self, x: Var, s: Var) -> Var {
        assert_eq!(self.shape(s).numel(), 1, "scale must be a single element");
        let sv = self.value(s).data()[0];
        let out = self.value(x).map(|v| v * sv);
        self.record(out, &[x, s], move |tape, _, g, grads| {
            if tape.req(x) {
                tape.acc(grads, x, g.map(|v| v * sv));
            }
            if tape.req(s) {
                let ds: f32 = g
                    .data()
                    .iter()
                    .zip(tape.value(x).data())
                    .map(|(&gv, &xv)| gv * xv)
                    .sum();
                tape.acc(grads, s, Tensor::scalar(ds));
            }
        })
    }

    /// [`kernels::unfold`]: the `k × k` windows of a `(B, H·width, C)`
    /// channels-last image batch as rows, `(B, OH·OW, k·k·C)`.
    pub fn unfold(&mut self, x: Var, width: usize, k: usize, stride: usize, pad: usize) -> Var {
        let out = kernels::unfold(self.value(x), width, k, stride, pad, Tensor::zeros);
        self.record(out, &[x], move |tape, _, g, grads| {
            let xs = tape.shape(x);
            let c = xs.last();
            let mut dx = Tensor::zeros(xs);
            let dxd = dx.data_mut();
            for_each_tap(xs, width, k, stride, pad, |slot, src| {
                let Some(p) = src else { return };
                let gs = &g.data()[slot * c..(slot + 1) * c];
                for (o, &v) in dxd[p * c..(p + 1) * c].iter_mut().zip(gs) {
                    *o += v;
                }
            });
            tape.acc(grads, x, dx);
        })
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
fn split_heads_copy(
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
