//! Reverse-mode gradient sweep over a [`Tape`].

use crate::kernels::{dot, for_each_tap, matmul_acc_into};
use crate::op::Op;
use crate::shape::Shape;
use crate::tape::{split_heads_copy, Tape, Var};
use crate::tensor::Tensor;

/// Gradients produced by [`Tape::backward`].
///
/// After the sweep only *leaf* nodes (inputs / parameters) retain their
/// gradients; interior gradients are consumed as the sweep propagates them.
pub struct Grads {
    grads: Vec<Option<Tensor>>,
}

impl Grads {
    /// The gradient of the loss w.r.t. leaf `v`, if it was reached.
    pub fn get(&self, v: Var) -> Option<&Tensor> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    /// Extracts `(param_id, grad)` pairs for every parameter leaf recorded
    /// with [`Tape::param`] that received a gradient.
    pub fn into_param_grads(mut self, tape: &Tape) -> Vec<(usize, Tensor)> {
        let mut out = Vec::new();
        for (i, binding) in tape.param_binding.iter().enumerate() {
            if let (Some(pid), Some(g)) = (binding, self.grads[i].take()) {
                out.push((*pid, g));
            }
        }
        out
    }
}

impl Tape {
    /// Runs reverse-mode differentiation from `loss` (seeded with ones) and
    /// returns the leaf gradients.
    ///
    /// `loss` is normally a scalar node; seeding a non-scalar node computes
    /// the gradient of its element sum.
    pub fn backward(&self, loss: Var) -> Grads {
        let mut grads: Vec<Option<Tensor>> = (0..self.len()).map(|_| None).collect();
        grads[loss.0] = Some(Tensor::ones(self.values[loss.0].shape()));

        for i in (0..=loss.0).rev() {
            if grads[i].is_none() || matches!(self.ops[i], Op::Leaf) {
                continue;
            }
            let g = grads[i].take().expect("checked above");
            self.backprop_node(i, &g, &mut grads);
        }
        Grads { grads }
    }

    fn backprop_node(&self, i: usize, g: &Tensor, grads: &mut [Option<Tensor>]) {
        let val = |v: Var| &self.values[v.0];
        match &self.ops[i] {
            Op::Leaf => {}
            Op::Add(a, b) => {
                self.acc(grads, *a, g.clone());
                self.acc(grads, *b, g.clone());
            }
            Op::AddBias(x, bias) => {
                self.acc(grads, *x, g.clone());
                if self.requires[bias.0] {
                    let d = self.values[bias.0].numel();
                    let mut db = Tensor::zeros(Shape::d1(d));
                    for row in g.data().chunks(d) {
                        for (o, &v) in db.data_mut().iter_mut().zip(row) {
                            *o += v;
                        }
                    }
                    self.acc(grads, *bias, db);
                }
            }
            Op::Sub(a, b) => {
                self.acc(grads, *a, g.clone());
                self.acc(grads, *b, g.map(|v| -v));
            }
            Op::Mul(a, b) => {
                if self.requires[a.0] {
                    self.acc(grads, *a, g.zip_map(val(*b), |x, y| x * y));
                }
                if self.requires[b.0] {
                    self.acc(grads, *b, g.zip_map(val(*a), |x, y| x * y));
                }
            }
            Op::Scale(x, c) => self.acc(grads, *x, g.map(|v| v * c)),
            Op::Matmul { a, b, ta, tb } => {
                // With A_eff = ta?Aᵀ:A and B_eff = tb?Bᵀ:B and C = A_eff·B_eff:
                //   dA = ta ? B_eff·gᵀ : g·B_effᵀ   (expressed via transpose flags)
                //   dB = tb ? gᵀ·A_eff : A_effᵀ·g
                // `matmul_acc_into` also sums over the batch when the parent
                // is an unbatched (shared) operand.
                if self.requires[a.0] {
                    let mut da = Tensor::zeros(val(*a).shape());
                    if !*ta {
                        matmul_acc_into(&mut da, g, val(*b), false, !*tb);
                    } else {
                        matmul_acc_into(&mut da, val(*b), g, *tb, true);
                    }
                    self.acc(grads, *a, da);
                }
                if self.requires[b.0] {
                    let mut db = Tensor::zeros(val(*b).shape());
                    if !*tb {
                        matmul_acc_into(&mut db, val(*a), g, !*ta, false);
                    } else {
                        matmul_acc_into(&mut db, g, val(*a), true, *ta);
                    }
                    self.acc(grads, *b, db);
                }
            }
            Op::Softmax(x) => {
                // dx = y ⊙ (g - <g, y>_row)
                let y = &self.values[i];
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
                self.acc(grads, *x, dx);
            }
            Op::CrossEntropy {
                logits,
                targets,
                probs,
            } => {
                let gs = g.data()[0];
                let (b, c) = (probs.shape()[0], probs.shape()[1]);
                let scale = gs / b as f32;
                let mut dl = probs.map(|p| p * scale);
                for (r, &t) in targets.iter().enumerate() {
                    dl.data_mut()[r * c + t] -= scale;
                }
                self.acc(grads, *logits, dl);
            }
            Op::LayerNorm {
                x,
                gamma,
                beta,
                mean,
                rstd,
            } => {
                let xs = val(*x).shape();
                let d = xs.last();
                let rows = xs.rows();
                let xd = val(*x).data();
                let gd = val(*gamma).data();
                let need_x = self.requires[x.0];
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
                    self.acc(grads, *x, dx);
                }
                self.acc(grads, *gamma, dgamma);
                self.acc(grads, *beta, dbeta);
            }
            Op::Relu(x) => {
                let dx = g.zip_map(val(*x), |gv, xv| if xv > 0.0 { gv } else { 0.0 });
                self.acc(grads, *x, dx);
            }
            Op::Tanh(x) => {
                let y = &self.values[i];
                let dx = g.zip_map(y, |gv, yv| gv * (1.0 - yv * yv));
                self.acc(grads, *x, dx);
            }
            Op::Sigmoid(x) => {
                let y = &self.values[i];
                let dx = g.zip_map(y, |gv, yv| gv * yv * (1.0 - yv));
                self.acc(grads, *x, dx);
            }
            Op::Abs(x) => {
                let dx = g.zip_map(val(*x), |gv, xv| {
                    gv * xv.signum() * (xv != 0.0) as u8 as f32
                });
                self.acc(grads, *x, dx);
            }
            Op::Dropout { x, mask } => {
                self.acc(grads, *x, g.zip_map(mask, |gv, m| gv * m));
            }
            Op::Concat { parts } => {
                let widths: Vec<usize> = parts
                    .iter()
                    .map(|&p| self.values[p.0].shape().last())
                    .collect();
                let total: usize = widths.iter().sum();
                let rows = self.values[i].shape().rows();
                let mut off = 0;
                for (&p, &w) in parts.iter().zip(&widths) {
                    if self.requires[p.0] {
                        let mut dp = Tensor::zeros(self.values[p.0].shape());
                        for r in 0..rows {
                            dp.data_mut()[r * w..(r + 1) * w]
                                .copy_from_slice(&g.data()[r * total + off..r * total + off + w]);
                        }
                        self.acc(grads, p, dp);
                    }
                    off += w;
                }
            }
            Op::SplitHeads { x, heads } => {
                let xs = val(*x).shape();
                let (b, l, d) = (xs[0], xs[1], xs[2]);
                let mut dx = Tensor::zeros(xs);
                split_heads_copy(g.data(), dx.data_mut(), b, l, *heads, d / *heads, true);
                self.acc(grads, *x, dx);
            }
            Op::MergeHeads { x, heads } => {
                let xs = val(*x).shape();
                let (bh, l, dh) = (xs[0], xs[1], xs[2]);
                let mut dx = Tensor::zeros(xs);
                split_heads_copy(g.data(), dx.data_mut(), bh / *heads, l, *heads, dh, false);
                self.acc(grads, *x, dx);
            }
            Op::Reshape(x) => {
                self.acc(grads, *x, g.clone().reshaped(val(*x).shape()));
            }
            Op::MeanPoolMasked { x, lens } => {
                let xs = val(*x).shape();
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
                self.acc(grads, *x, dx);
            }
            Op::Embedding { table, ids } => {
                let ts = val(*table).shape();
                let d = ts[1];
                let mut dt = Tensor::zeros(ts);
                for (r, &id) in ids.iter().enumerate() {
                    let gr = &g.data()[r * d..(r + 1) * d];
                    let tr = &mut dt.data_mut()[id as usize * d..(id as usize + 1) * d];
                    for (o, &v) in tr.iter_mut().zip(gr) {
                        *o += v;
                    }
                }
                self.acc(grads, *table, dt);
            }
            Op::RowDot(a, b) => {
                let d = val(*a).shape().last();
                let rows = val(*a).shape().rows();
                for (parent, other) in [(a, b), (b, a)] {
                    if !self.requires[parent.0] {
                        continue;
                    }
                    let mut dp = Tensor::zeros(val(*parent).shape());
                    for r in 0..rows {
                        let gv = g.data()[r];
                        let orow = &val(*other).data()[r * d..(r + 1) * d];
                        let prow = &mut dp.data_mut()[r * d..(r + 1) * d];
                        for (o, &v) in prow.iter_mut().zip(orow) {
                            *o += gv * v;
                        }
                    }
                    self.acc(grads, *parent, dp);
                }
            }
            Op::L2NormalizeRows { x, inv_norms } => {
                // dx = (g - y (y·g)) / ||x||
                let y = &self.values[i];
                let d = y.shape().last();
                let rows = y.shape().rows();
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
                self.acc(grads, *x, dx);
            }
            Op::MeanAll(x) => {
                let n = val(*x).numel() as f32;
                let gv = g.data()[0] / n;
                self.acc(grads, *x, Tensor::full(val(*x).shape(), gv));
            }
            Op::SumAll(x) => {
                self.acc(grads, *x, Tensor::full(val(*x).shape(), g.data()[0]));
            }
            Op::MulScalarVar { x, s } => {
                let sv = val(*s).data()[0];
                if self.requires[x.0] {
                    self.acc(grads, *x, g.map(|v| v * sv));
                }
                if self.requires[s.0] {
                    let ds: f32 = g
                        .data()
                        .iter()
                        .zip(val(*x).data())
                        .map(|(&gv, &xv)| gv * xv)
                        .sum();
                    self.acc(grads, *s, Tensor::scalar(ds));
                }
            }
            Op::SelectTime { x, t } => {
                let xs = val(*x).shape();
                let (b, l, d) = (xs[0], xs[1], xs[2]);
                let mut dx = Tensor::zeros(xs);
                for bi in 0..b {
                    dx.data_mut()[(bi * l + t) * d..(bi * l + t + 1) * d]
                        .copy_from_slice(&g.data()[bi * d..(bi + 1) * d]);
                }
                self.acc(grads, *x, dx);
            }
            Op::Unfold {
                x,
                width,
                k,
                stride,
                pad,
            } => {
                let xs = val(*x).shape();
                let c = xs.last();
                let mut dx = Tensor::zeros(xs);
                let dxd = dx.data_mut();
                for_each_tap(xs, *width, *k, *stride, *pad, |slot, src| {
                    let Some(p) = src else { return };
                    let gs = &g.data()[slot * c..(slot + 1) * c];
                    for (o, &v) in dxd[p * c..(p + 1) * c].iter_mut().zip(gs) {
                        *o += v;
                    }
                });
                self.acc(grads, *x, dx);
            }
        }
    }

    fn acc(&self, grads: &mut [Option<Tensor>], v: Var, t: Tensor) {
        if !self.requires[v.0] {
            return;
        }
        match &mut grads[v.0] {
            Some(existing) => existing.add_assign_scaled(&t, 1.0),
            slot => *slot = Some(t),
        }
    }
}
