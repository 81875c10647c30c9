//! # trajcl-tensor
//!
//! A minimal dense f32 tensor library with tape-based reverse-mode
//! autodifferentiation, built from scratch for the TrajCL (ICDE 2023)
//! reproduction. It provides exactly the operations the paper's models need:
//! batched matmul with transpose flags, masked softmax attention plumbing,
//! layer norm, dropout, embedding lookups, sequence pooling, RNN time-step
//! ops (for the baselines), and a window unfold (im2col) that turns a
//! convolution into one product on the GEMM (for the TrjSR baseline).
//!
//! ## Design
//! * [`Tensor`] is plain data (row-major `Vec<f32>` + [`Shape`], rank ≤ 4).
//! * [`Tape`] is a define-by-run autograd tape rebuilt per training step.
//!   Each op is one constructor in `tape.rs` that computes the forward
//!   value and records the op's own backward rule beside it; the sweep in
//!   `backward.rs` is a single reverse iteration calling those rules.
//! * [`Var`] is a copyable node index into the tape.
//! * Heavy kernels parallelise across rows on a shared persistent
//!   [`pool`] (no runtime dependency, `TRAJCL_THREADS` override), which
//!   is what lets the non-recurrent TrajCL encoder exploit hardware
//!   parallelism the way the paper's GPU runs do.
//! * The f32 hot loops ([`kernels::gemm`] under every linear layer and
//!   both attention products, the softmax rows) are written once over
//!   lane arrays and compiled for baseline x86-64 and for AVX2; [`cpu`]
//!   holds the process-wide dispatch level that picks between them
//!   (`TRAJCL_FORCE_SCALAR` override), and both copies return the same
//!   bits.
//! * [`Exec`] is the seam every layer of every model is written against,
//!   once: the [`TapeExec`] executor records the ops on a [`Tape`] for
//!   training, [`InferCtx`] runs them gradient-free with fused attention
//!   and scratch-buffer reuse for serving and bulk embedding (see
//!   [`exec`], [`infer`]). The tape keeps a few training-only primitives
//!   (losses, `row_dot`, `abs_op`, …) outside the seam.
//!
//! ## Example
//! ```
//! use trajcl_tensor::{Shape, Tape, Tensor};
//!
//! let mut tape = Tape::new();
//! let w = tape.param(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], Shape::d2(2, 2)), 0);
//! let x = tape.input(Tensor::from_vec(vec![1.0, -1.0], Shape::d2(1, 2)));
//! let y = tape.matmul(x, w, false, false);
//! let loss = tape.mean_all(y);
//! let grads = tape.backward(loss);
//! let dw = grads.get(w).unwrap();
//! assert_eq!(dw.shape(), Shape::d2(2, 2));
//! ```

pub mod backward;
pub mod cpu;
pub mod exec;
pub mod infer;
pub mod kernels;
pub mod pool;
pub mod shape;
pub mod tape;
pub mod tensor;

pub use backward::Grads;
pub use exec::{Exec, Param, TapeExec};
pub use infer::{CtxPool, InferCtx, PooledCtx};
pub use shape::Shape;
pub use tape::{Tape, Var};
pub use tensor::Tensor;

/// Finite-difference gradient checking utilities (used by tests across the
/// workspace to validate every layer against numeric gradients).
pub mod check {
    use super::*;

    /// Central-difference numeric gradient of `f` at `x`.
    ///
    /// `f` must be a deterministic scalar function of the tensor.
    pub fn finite_diff_grad(f: impl Fn(&Tensor) -> f32, x: &Tensor, eps: f32) -> Tensor {
        let mut grad = Tensor::zeros(x.shape());
        let mut probe = x.clone();
        for i in 0..x.numel() {
            let orig = probe.data()[i];
            probe.data_mut()[i] = orig + eps;
            let up = f(&probe);
            probe.data_mut()[i] = orig - eps;
            let down = f(&probe);
            probe.data_mut()[i] = orig;
            grad.data_mut()[i] = (up - down) / (2.0 * eps);
        }
        grad
    }

    /// Asserts that the tape gradient of `build` w.r.t. its parameter input
    /// matches the central-difference estimate.
    ///
    /// `build` receives a fresh tape plus the parameter node and must return
    /// the scalar loss node. Non-determinism (e.g. dropout) must be avoided
    /// inside `build`.
    pub fn assert_grad_matches(
        build: impl Fn(&mut Tape, Var) -> Var,
        x0: &Tensor,
        eps: f32,
        tol: f32,
    ) {
        let eval = |t: &Tensor| -> f32 {
            let mut tape = Tape::new();
            let x = tape.param(t.clone(), 0);
            let loss = build(&mut tape, x);
            assert_eq!(tape.value(loss).numel(), 1, "loss must be scalar");
            tape.value(loss).data()[0]
        };
        let numeric = finite_diff_grad(eval, x0, eps);

        let mut tape = Tape::new();
        let x = tape.param(x0.clone(), 0);
        let loss = build(&mut tape, x);
        let grads = tape.backward(loss);
        let analytic = grads.get(x).expect("parameter did not receive a gradient");

        for i in 0..x0.numel() {
            let (a, n) = (analytic.data()[i], numeric.data()[i]);
            let denom = 1.0f32.max(a.abs()).max(n.abs());
            assert!(
                (a - n).abs() / denom <= tol,
                "gradient mismatch at {i}: analytic={a}, numeric={n} (shape {})",
                x0.shape()
            );
        }
    }
}
