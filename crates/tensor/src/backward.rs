//! Reverse-mode gradient sweep over a [`Tape`].
//!
//! The sweep knows no op: each node carries its own backward rule, recorded
//! by its constructor in [`crate::tape`]. Here are only the gradients, the
//! reverse iteration that calls each reached node's rule, and `Tape::acc`,
//! through which every rule hands its parents their gradients.

use crate::tape::{Tape, Var};
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
            // A leaf has no rule and keeps its gradient.
            let Some(rule) = &self.rules[i] else { continue };
            let Some(g) = grads[i].take() else { continue };
            rule(self, &self.values[i], &g, &mut grads);
        }
        Grads { grads }
    }

    /// Adds `t` into `v`'s gradient slot; a no-op when `v` needs none.
    pub(crate) fn acc(&self, grads: &mut [Option<Tensor>], v: Var, t: Tensor) {
        if !self.requires[v.0] {
            return;
        }
        match &mut grads[v.0] {
            Some(existing) => existing.add_assign_scaled(&t, 1.0),
            slot => *slot = Some(t),
        }
    }
}
