//! The operation record stored per tape node.
//!
//! Each variant stores the parent [`Var`]s plus whatever forward-pass context
//! the backward pass needs (dropout masks, layer-norm statistics, ...).
//! Keeping ops as a closed enum (rather than boxed closures) makes the
//! reverse sweep a plain `match`, easy to audit against the textbook
//! gradient formulas.

use crate::tape::Var;
use crate::tensor::Tensor;

#[derive(Debug)]
pub(crate) enum Op {
    /// Input or parameter; no parents.
    Leaf,
    /// Elementwise `a + b`, same shapes.
    Add(Var, Var),
    /// `x + bias` where `bias` has the shape of the last dimension of `x`.
    AddBias(Var, Var),
    /// Elementwise `a - b`.
    Sub(Var, Var),
    /// Elementwise (Hadamard) `a * b`.
    Mul(Var, Var),
    /// `x * c` for a compile-time constant scalar.
    Scale(Var, f32),
    /// `a_eff · b_eff` with per-operand transpose flags; batched.
    Matmul {
        a: Var,
        b: Var,
        ta: bool,
        tb: bool,
    },
    /// Softmax over the last dimension.
    Softmax(Var),
    /// Mean cross-entropy of `logits` rows against integer `targets`;
    /// stores the softmax probabilities for the backward pass.
    CrossEntropy {
        logits: Var,
        targets: Vec<usize>,
        probs: Tensor,
    },
    /// Layer normalisation over the last dimension with affine params.
    LayerNorm {
        x: Var,
        gamma: Var,
        beta: Var,
        mean: Tensor,
        rstd: Tensor,
    },
    Relu(Var),
    Tanh(Var),
    Sigmoid(Var),
    /// Elementwise absolute value.
    Abs(Var),
    /// Inverted-dropout; `mask` elements are `0` or `1/(1-p)`.
    Dropout {
        x: Var,
        mask: Tensor,
    },
    /// Concatenation along the last dimension.
    Concat {
        parts: Vec<Var>,
    },
    /// `(B, L, H*Dh) -> (B*H, L, Dh)` head split for multi-head attention.
    SplitHeads {
        x: Var,
        heads: usize,
    },
    /// Inverse of [`Op::SplitHeads`].
    MergeHeads {
        x: Var,
        heads: usize,
    },
    /// Shape reinterpretation; same element count.
    Reshape(Var),
    /// Mean over the time dimension of `(B, L, D)` restricted to the first
    /// `lens[b]` positions of each sequence.
    MeanPoolMasked {
        x: Var,
        lens: Vec<usize>,
    },
    /// Row gather: `out[i, :] = table[ids[i], :]`.
    Embedding {
        table: Var,
        ids: Vec<u32>,
    },
    /// Per-row dot product of two `(R, D)` tensors -> `(R, 1)`.
    RowDot(Var, Var),
    /// Rows scaled to unit L2 norm; stores `1/||row||`.
    L2NormalizeRows {
        x: Var,
        inv_norms: Tensor,
    },
    /// Mean of all elements -> scalar.
    MeanAll(Var),
    /// Sum of all elements -> scalar.
    SumAll(Var),
    /// `x * s` where `s` is a learnable 1-element tensor.
    MulScalarVar {
        x: Var,
        s: Var,
    },
    /// `(B, L, D) -> (B, D)` slice at time `t`.
    SelectTime {
        x: Var,
        t: usize,
    },
    /// Window unfold (im2col) of a `(B, H·width, C)` image batch.
    Unfold {
        x: Var,
        width: usize,
        k: usize,
        stride: usize,
        pad: usize,
    },
}
