//! Persistent parameter storage shared across tapes.
//!
//! A [`ParamStore`] owns the model weights plus per-parameter optimizer
//! state. Tapes are rebuilt every step; modules *bind* their parameters into
//! the current tape through [`ParamStore::p`], and after the backward pass
//! gradients are routed back by parameter id with
//! [`ParamStore::accumulate`].

// A codec module (DESIGN.md §11.2): no cast in its non-test code may
// truncate, wrap, drop a sign or round.
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )
)]

use trajcl_tensor::{Param, Shape, Tensor};

/// Opaque handle to a parameter slot in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

#[derive(Clone)]
struct Slot {
    name: String,
    value: Tensor,
    grad: Tensor,
    /// Adam first moment.
    m: Tensor,
    /// Adam second moment.
    v: Tensor,
}

/// Owns model parameters, their gradients and optimizer state.
///
/// Cloning a store produces an independent copy with identical slot layout —
/// this is how the MoCo momentum encoder is created.
#[derive(Clone, Default)]
pub struct ParamStore {
    slots: Vec<Slot>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new parameter and returns its id.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let shape = value.shape();
        self.slots.push(Slot {
            name: name.into(),
            value,
            grad: Tensor::zeros(shape),
            m: Tensor::zeros(shape),
            v: Tensor::zeros(shape),
        });
        ParamId(self.slots.len() - 1)
    }

    /// Parameter `id` as executors take it (a tape executor binds it as a
    /// differentiable leaf, once per tape; the serving one just reads it).
    pub fn p(&self, id: ParamId) -> Param<'_> {
        Param {
            id: id.0,
            value: &self.slots[id.0].value,
        }
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.slots[id.0].value
    }

    /// Mutable access to a parameter value (used by optimizers and tests).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.slots[id.0].value
    }

    /// Current gradient accumulator of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.slots[id.0].grad
    }

    /// Registered name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.slots[id.0].name
    }

    /// Number of parameter slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total number of scalar parameters (for model-size reporting).
    pub fn num_scalars(&self) -> usize {
        self.slots.iter().map(|s| s.value.numel()).sum()
    }

    /// All parameter ids in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.slots.len()).map(ParamId)
    }

    /// Ids of parameters whose name satisfies `pred` (used by fine-tuning
    /// to select trainable subsets by name prefix).
    pub fn ids_where(&self, pred: impl Fn(&str) -> bool) -> Vec<ParamId> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| pred(&s.name))
            .map(|(i, _)| ParamId(i))
            .collect()
    }

    /// Zeroes the gradients of every parameter whose name does NOT satisfy
    /// `keep` — i.e. freezes everything else before the optimizer step.
    pub fn zero_grads_where_not(&mut self, keep: impl Fn(&str) -> bool) {
        for s in &mut self.slots {
            if !keep(&s.name) {
                s.grad.data_mut().fill(0.0);
            }
        }
    }

    /// Clears all gradient accumulators.
    pub fn zero_grads(&mut self) {
        for s in &mut self.slots {
            s.grad.data_mut().fill(0.0);
        }
    }

    /// Adds tape gradients (from `Grads::into_param_grads`) into the
    /// per-parameter accumulators. Repeated bindings of the same parameter
    /// sum naturally.
    pub fn accumulate(&mut self, grads: Vec<(usize, Tensor)>) {
        for (id, g) in grads {
            self.slots[id].grad.add_assign_scaled(&g, 1.0);
        }
    }

    /// Global L2 norm of all gradients.
    pub fn grad_norm(&self) -> f32 {
        self.slots
            .iter()
            .map(|s| s.grad.data().iter().map(|v| v * v).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Scales gradients so the global norm does not exceed `max_norm`.
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for s in &mut self.slots {
                s.grad.scale_in_place(scale);
            }
        }
    }

    /// MoCo momentum (EMA) update: `self = m*self + (1-m)*other`.
    ///
    /// # Panics
    /// Panics if the two stores have different slot layouts.
    pub fn ema_update_from(&mut self, other: &ParamStore, momentum: f32) {
        assert_eq!(self.slots.len(), other.slots.len(), "store layout mismatch");
        for (a, b) in self.slots.iter_mut().zip(&other.slots) {
            assert_eq!(a.value.shape(), b.value.shape(), "slot shape mismatch");
            for (x, &y) in a.value.data_mut().iter_mut().zip(b.value.data()) {
                *x = momentum * *x + (1.0 - momentum) * y;
            }
        }
    }

    /// Whether `other` has the same slot layout: identical count, names
    /// and per-slot shapes. A decoded store that merely *counts* the same
    /// is not enough — replacing a slot with a differently-shaped tensor
    /// poisons every downstream kernel (fuzz-found: a zero-element gamma
    /// indexed out of bounds in the attention forward).
    pub fn layout_matches(&self, other: &ParamStore) -> bool {
        self.slots.len() == other.slots.len()
            && self
                .slots
                .iter()
                .zip(&other.slots)
                .all(|(a, b)| a.name == b.name && a.value.shape() == b.value.shape())
    }

    /// Copies all parameter values (not optimizer state) from `other`.
    ///
    /// # Panics
    /// Panics if the two stores have different slot layouts (count, names
    /// or shapes); callers holding untrusted stores must gate on
    /// [`ParamStore::layout_matches`] first.
    pub fn copy_values_from(&mut self, other: &ParamStore) {
        assert!(self.layout_matches(other), "store layout mismatch");
        for (a, b) in self.slots.iter_mut().zip(&other.slots) {
            a.value = b.value.clone();
        }
    }

    pub(crate) fn adam_state_mut(
        &mut self,
        id: usize,
    ) -> (&mut Tensor, &Tensor, &mut Tensor, &mut Tensor) {
        let s = &mut self.slots[id];
        (&mut s.value, &s.grad, &mut s.m, &mut s.v)
    }

    /// Serializes parameter values (names + shapes + data) to bytes.
    ///
    /// Optimizer state is not saved; a deserialized store is ready for
    /// inference or fresh fine-tuning.
    pub fn to_bytes(&self) -> Vec<u8> {
        fn put_len(out: &mut Vec<u8>, n: usize) {
            #[expect(clippy::cast_possible_truncation, reason = "counts and dims fit u32")]
            out.extend_from_slice(&(n as u32).to_le_bytes());
        }
        let mut out = Vec::new();
        put_len(&mut out, self.slots.len());
        for s in &self.slots {
            put_len(&mut out, s.name.len());
            out.extend_from_slice(s.name.as_bytes());
            let shape = s.value.shape();
            #[expect(clippy::cast_possible_truncation, reason = "a rank is a handful")]
            out.push(shape.dims().len() as u8);
            for &d in shape.dims() {
                put_len(&mut out, d);
            }
            for &v in s.value.data() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Restores a store from [`ParamStore::to_bytes`] output.
    ///
    /// Returns `None` if the buffer is malformed.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        /// The next `n` bytes, or `None` when fewer remain — every
        /// length below is checked against the buffer before anything
        /// is allocated for it.
        fn take<'a>(r: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
            let (head, rest) = r.split_at_checked(n)?;
            *r = rest;
            Some(head)
        }
        fn len_of(r: &mut &[u8]) -> Option<usize> {
            Some(u32::from_le_bytes(take(r, 4)?.try_into().ok()?) as usize)
        }
        let mut r = bytes;
        let count = len_of(&mut r)?;
        let mut store = ParamStore::new();
        for _ in 0..count {
            let name_len = len_of(&mut r)?;
            let name = String::from_utf8(take(&mut r, name_len)?.to_vec()).ok()?;
            let rank = take(&mut r, 1)?[0] as usize;
            if rank == 0 || rank > 4 {
                return None;
            }
            let dims: Vec<usize> = (0..rank).map(|_| len_of(&mut r)).collect::<Option<_>>()?;
            // Element count and byte length with explicit overflow checks:
            // four u32 dims can overflow `usize` multiplication, which in a
            // hostile buffer would fake a tiny length past the size check.
            let n = dims.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d))?;
            let data = take(&mut r, n.checked_mul(4)?)?
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            store.add(name, Tensor::from_vec(data, Shape::from_slice(&dims)));
        }
        Some(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajcl_tensor::{Tape, Var};

    /// A fresh tape with parameter `id` bound on it.
    fn bound(store: &ParamStore, id: ParamId) -> (Tape, Var) {
        let mut tape = Tape::new();
        let p = store.p(id);
        let w = tape.param(p.value.clone(), p.id);
        (tape, w)
    }

    #[test]
    fn add_bind_and_accumulate() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(vec![1.0, 2.0], Shape::d1(2)));
        let (mut tape, w) = bound(&store, id);
        let loss = tape.sum_all(w);
        let grads = tape.backward(loss);
        store.accumulate(grads.into_param_grads(&tape));
        assert_eq!(store.grad(id).data(), &[1.0, 1.0]);
        // Accumulation is additive until cleared.
        let (mut tape, w) = bound(&store, id);
        let loss = tape.sum_all(w);
        let grads = tape.backward(loss);
        store.accumulate(grads.into_param_grads(&tape));
        assert_eq!(store.grad(id).data(), &[2.0, 2.0]);
        store.zero_grads();
        assert_eq!(store.grad(id).data(), &[0.0, 0.0]);
    }

    #[test]
    fn double_binding_sums_gradients() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::scalar(3.0));
        let (mut tape, w1) = bound(&store, id);
        let w2 = tape.param(store.value(id).clone(), id.0);
        let prod = tape.mul(w1, w2); // w^2 -> d/dw = 2w = 6
        let loss = tape.sum_all(prod);
        let grads = tape.backward(loss);
        store.accumulate(grads.into_param_grads(&tape));
        assert!((store.grad(id).data()[0] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn clip_grad_norm_scales_down_only() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::zeros(Shape::d1(2)));
        store.slots[id.0].grad = Tensor::from_vec(vec![3.0, 4.0], Shape::d1(2));
        store.clip_grad_norm(10.0);
        assert_eq!(store.grad(id).data(), &[3.0, 4.0]); // norm 5 <= 10
        store.clip_grad_norm(1.0);
        assert!((store.grad_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn ema_update_moves_towards_source() {
        let mut a = ParamStore::new();
        let ida = a.add("w", Tensor::scalar(0.0));
        let mut b = ParamStore::new();
        b.add("w", Tensor::scalar(10.0));
        a.ema_update_from(&b, 0.9);
        assert!((a.value(ida).data()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn serialization_round_trip() {
        let mut store = ParamStore::new();
        store.add(
            "layer.weight",
            Tensor::from_vec(vec![1.5, -2.0, 0.25, 9.0], Shape::d2(2, 2)),
        );
        store.add("layer.bias", Tensor::from_vec(vec![0.5], Shape::d1(1)));
        let bytes = store.to_bytes();
        let restored = ParamStore::from_bytes(&bytes).unwrap();
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.name(ParamId(0)), "layer.weight");
        assert_eq!(
            restored.value(ParamId(0)).data(),
            store.value(ParamId(0)).data()
        );
        assert_eq!(restored.value(ParamId(1)).shape(), Shape::d1(1));
    }

    // The bytes `to_bytes` wrote before the codec moved onto plain
    // `Vec<u8>` / `&[u8]` (captured at commit 03adfee): the TCL1 model
    // section of every saved engine is made of these.
    #[test]
    fn byte_layout_is_pinned() {
        const GOLDEN: &str = "020000000c0000006c617965722e776569676874020200000002000000\
            0000c03f000000c00000803e00001041010000006201010000000000003f";
        let golden: Vec<u8> = (0..GOLDEN.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&GOLDEN[i..i + 2], 16).unwrap())
            .collect();
        let mut store = ParamStore::new();
        store.add(
            "layer.weight",
            Tensor::from_vec(vec![1.5, -2.0, 0.25, 9.0], Shape::d2(2, 2)),
        );
        store.add("b", Tensor::from_vec(vec![0.5], Shape::d1(1)));
        assert_eq!(store.to_bytes(), golden);
        let restored = ParamStore::from_bytes(&golden).unwrap();
        assert!(restored.layout_matches(&store));
        assert_eq!(restored.to_bytes(), golden);
        // Every strict prefix is short somewhere and rejected.
        for cut in 0..golden.len() {
            assert!(
                ParamStore::from_bytes(&golden[..cut]).is_none(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(ParamStore::from_bytes(&[1, 2, 3]).is_none());
        let mut bytes = ParamStore::new().to_bytes();
        bytes[0] = 200; // claims 200 slots, provides none
        assert!(ParamStore::from_bytes(&bytes).is_none());
    }

    #[test]
    fn layout_matches_requires_names_and_shapes() {
        let mut a = ParamStore::new();
        a.add("w", Tensor::from_vec(vec![1.0, 2.0], Shape::d1(2)));
        let mut same = ParamStore::new();
        same.add("w", Tensor::from_vec(vec![9.0, 9.0], Shape::d1(2)));
        assert!(a.layout_matches(&same));
        // Same slot count, same element count, different shape: a decoded
        // store like this used to slip through a count-only check and
        // poison downstream kernels (fuzz-found).
        let mut reshaped = ParamStore::new();
        reshaped.add("w", Tensor::from_vec(vec![9.0, 9.0], Shape::d2(2, 1)));
        assert!(!a.layout_matches(&reshaped));
        let mut renamed = ParamStore::new();
        renamed.add("v", Tensor::from_vec(vec![9.0, 9.0], Shape::d1(2)));
        assert!(!a.layout_matches(&renamed));
        let mut empty_slot = ParamStore::new();
        empty_slot.add("w", Tensor::from_vec(Vec::new(), Shape::d1(0)));
        assert!(!a.layout_matches(&empty_slot));
    }

    #[test]
    fn from_bytes_rejects_overflowing_shape() {
        // One tensor whose four u32 dims multiply past usize::MAX: the
        // wrapped element count must not slip past the length check.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u32.to_le_bytes()); // one slot
        bytes.extend_from_slice(&1u32.to_le_bytes()); // name "x"
        bytes.push(b'x');
        bytes.push(4); // rank 4
        for _ in 0..4 {
            bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        }
        assert!(ParamStore::from_bytes(&bytes).is_none());
    }

    #[test]
    fn num_scalars_counts_everything() {
        let mut store = ParamStore::new();
        store.add("a", Tensor::zeros(Shape::d2(3, 4)));
        store.add("b", Tensor::zeros(Shape::d1(5)));
        assert_eq!(store.num_scalars(), 17);
    }
}
