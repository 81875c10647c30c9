//! Finite-difference validation of every differentiable tape operation.
//!
//! Each test builds a small scalar loss through one (or a few) ops and
//! compares the tape gradient against a central-difference estimate.

use rand::{rngs::StdRng, SeedableRng};
use trajcl_tensor::check::assert_grad_matches;
use trajcl_tensor::{Shape, Tape, Tensor, Var};

fn randt(shape: Shape, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::randn(shape, 0.0, 1.0, &mut rng)
}

/// Squash any tensor node to a scalar through a fixed random projection so
/// gradients of all elements are exercised (mean alone would hide sign bugs).
fn to_scalar(tape: &mut Tape, v: Var, seed: u64) -> Var {
    let shape = tape.shape(v);
    let w = tape.input(randt(shape, seed));
    let prod = tape.mul(v, w);
    tape.sum_all(prod)
}

const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

#[test]
fn grad_add_sub_mul() {
    let x0 = randt(Shape::d2(3, 4), 1);
    assert_grad_matches(
        |t, x| {
            let c = t.input(randt(Shape::d2(3, 4), 2));
            let a = t.add(x, c);
            let b = t.sub(a, x);
            let m = t.mul(b, x);
            to_scalar(t, m, 3)
        },
        &x0,
        EPS,
        TOL,
    );
}

#[test]
fn grad_scale() {
    let x0 = randt(Shape::d1(5), 4);
    assert_grad_matches(
        |t, x| {
            let y = t.scale(x, -2.5);
            to_scalar(t, y, 5)
        },
        &x0,
        EPS,
        TOL,
    );
}

#[test]
fn grad_add_bias_wrt_bias() {
    let b0 = randt(Shape::d1(4), 6);
    assert_grad_matches(
        |t, bias| {
            let x = t.input(randt(Shape::d2(3, 4), 7));
            let y = t.add_bias(x, bias);
            to_scalar(t, y, 8)
        },
        &b0,
        EPS,
        TOL,
    );
}

#[test]
fn grad_matmul_all_transpose_combos() {
    for (ta, tb, seed) in [
        (false, false, 10),
        (false, true, 11),
        (true, false, 12),
        (true, true, 13),
    ] {
        // x has shape so that x_eff is (3, 4); other operand fixed with b_eff (4, 2).
        let xs = if ta { Shape::d2(4, 3) } else { Shape::d2(3, 4) };
        let bs = if tb { Shape::d2(2, 4) } else { Shape::d2(4, 2) };
        let x0 = randt(xs, seed);
        assert_grad_matches(
            |t, x| {
                let b = t.input(randt(bs, seed + 100));
                let y = t.matmul(x, b, ta, tb);
                to_scalar(t, y, seed + 200)
            },
            &x0,
            EPS,
            TOL,
        );
        // And gradient w.r.t. the right operand.
        let b0 = randt(bs, seed + 300);
        assert_grad_matches(
            |t, b| {
                let a = t.input(randt(xs, seed + 400));
                let y = t.matmul(a, b, ta, tb);
                to_scalar(t, y, seed + 500)
            },
            &b0,
            EPS,
            TOL,
        );
    }
}

#[test]
fn grad_matmul_batched_shared_weight() {
    // (B, L, D) x (D, E) — the shared-weight reduction path.
    let w0 = randt(Shape::d2(4, 3), 20);
    assert_grad_matches(
        |t, w| {
            let x = t.input(randt(Shape::d3(2, 5, 4), 21));
            let y = t.matmul(x, w, false, false);
            to_scalar(t, y, 22)
        },
        &w0,
        EPS,
        TOL,
    );
    // Gradient w.r.t. the batched input.
    let x0 = randt(Shape::d3(2, 5, 4), 23);
    assert_grad_matches(
        |t, x| {
            let w = t.input(randt(Shape::d2(4, 3), 24));
            let y = t.matmul(x, w, false, false);
            to_scalar(t, y, 25)
        },
        &x0,
        EPS,
        TOL,
    );
}

#[test]
fn grad_batched_attention_shape_matmul() {
    // Q (B, L, Dh) x K^T (B, Dh, L) via transpose flag — the QK^T path.
    let q0 = randt(Shape::d3(2, 4, 3), 30);
    assert_grad_matches(
        |t, q| {
            let k = t.input(randt(Shape::d3(2, 4, 3), 31));
            let scores = t.matmul(q, k, false, true);
            to_scalar(t, scores, 32)
        },
        &q0,
        EPS,
        TOL,
    );
}

#[test]
fn grad_softmax() {
    let x0 = randt(Shape::d2(3, 5), 40);
    assert_grad_matches(
        |t, x| {
            let y = t.softmax(x);
            to_scalar(t, y, 41)
        },
        &x0,
        EPS,
        TOL,
    );
}

#[test]
fn grad_cross_entropy() {
    let x0 = randt(Shape::d2(4, 6), 42);
    assert_grad_matches(|t, x| t.cross_entropy(x, &[0, 3, 5, 2]), &x0, EPS, TOL);
}

#[test]
fn grad_layer_norm_wrt_input_gamma_beta() {
    let x0 = randt(Shape::d2(3, 6), 50);
    assert_grad_matches(
        |t, x| {
            let g = t.input(randt(Shape::d1(6), 51).map(|v| v * 0.2 + 1.0));
            let b = t.input(randt(Shape::d1(6), 52));
            let y = t.layer_norm(x, g, b, 1e-5);
            to_scalar(t, y, 53)
        },
        &x0,
        EPS,
        TOL,
    );
    let g0 = randt(Shape::d1(6), 54).map(|v| v * 0.2 + 1.0);
    assert_grad_matches(
        |t, g| {
            let x = t.input(randt(Shape::d2(3, 6), 55));
            let b = t.input(randt(Shape::d1(6), 56));
            let y = t.layer_norm(x, g, b, 1e-5);
            to_scalar(t, y, 57)
        },
        &g0,
        EPS,
        TOL,
    );
    let b0 = randt(Shape::d1(6), 58);
    assert_grad_matches(
        |t, b| {
            let x = t.input(randt(Shape::d2(3, 6), 59));
            let g = t.input(randt(Shape::d1(6), 60).map(|v| v * 0.2 + 1.0));
            let y = t.layer_norm(x, g, b, 1e-5);
            to_scalar(t, y, 61)
        },
        &b0,
        EPS,
        TOL,
    );
}

#[test]
fn grad_nonlinearities() {
    // Shift inputs away from the ReLU/abs kink so finite differences are valid.
    let x0 = randt(Shape::d2(3, 4), 70).map(|v| if v.abs() < 0.1 { v + 0.3 } else { v });
    assert_grad_matches(
        |t, x| {
            let y = t.relu(x);
            to_scalar(t, y, 71)
        },
        &x0,
        1e-3,
        TOL,
    );
    assert_grad_matches(
        |t, x| {
            let y = t.tanh_op(x);
            to_scalar(t, y, 73)
        },
        &x0,
        EPS,
        TOL,
    );
    assert_grad_matches(
        |t, x| {
            let y = t.sigmoid(x);
            to_scalar(t, y, 74)
        },
        &x0,
        EPS,
        TOL,
    );
    assert_grad_matches(
        |t, x| {
            let y = t.abs_op(x);
            to_scalar(t, y, 75)
        },
        &x0,
        1e-3,
        TOL,
    );
}

#[test]
fn grad_dropout_pass_through_in_eval_mode() {
    let x0 = randt(Shape::d2(2, 3), 80);
    let mut rng = StdRng::seed_from_u64(0);
    let mut tape = Tape::new();
    let x = tape.param(x0.clone(), 0);
    let y = tape.dropout(x, 0.5, false, &mut rng);
    let loss = tape.mean_all(y);
    let grads = tape.backward(loss);
    let g = grads.get(x).unwrap();
    assert!(g.data().iter().all(|&v| (v - 1.0 / 6.0).abs() < 1e-6));
}

#[test]
fn grad_dropout_training_mask_routes_gradient() {
    let x0 = Tensor::ones(Shape::d2(4, 8));
    let mut rng = StdRng::seed_from_u64(99);
    let mut tape = Tape::new();
    let x = tape.param(x0, 0);
    let y = tape.dropout(x, 0.5, true, &mut rng);
    let loss = tape.sum_all(y);
    let kept: usize = tape.value(y).data().iter().filter(|&&v| v != 0.0).count();
    assert!(kept > 0 && kept < 32, "mask should drop some but not all");
    let grads = tape.backward(loss);
    let g = grads.get(x).unwrap();
    let nonzero = g.data().iter().filter(|&&v| v != 0.0).count();
    assert_eq!(
        nonzero, kept,
        "gradient must flow only through kept elements"
    );
}

#[test]
fn grad_concat() {
    let x0 = randt(Shape::d2(3, 2), 90);
    assert_grad_matches(
        |t, x| {
            let other = t.input(randt(Shape::d2(3, 4), 91));
            let y = t.concat(&[x, other]);
            to_scalar(t, y, 92)
        },
        &x0,
        EPS,
        TOL,
    );
}

#[test]
fn grad_split_and_merge_heads_round_trip() {
    let x0 = randt(Shape::d3(2, 3, 8), 100);
    assert_grad_matches(
        |t, x| {
            let s = t.split_heads(x, 4);
            let m = t.merge_heads(s, 4);
            to_scalar(t, m, 101)
        },
        &x0,
        EPS,
        TOL,
    );
    // Forward round trip is exact identity.
    let mut tape = Tape::new();
    let x = tape.input(x0.clone());
    let s = tape.split_heads(x, 4);
    let m = tape.merge_heads(s, 4);
    assert!(tape.value(m).approx_eq(&x0, 0.0));
}

#[test]
fn grad_reshape_and_select_time() {
    let x0 = randt(Shape::d3(2, 4, 3), 110);
    assert_grad_matches(
        |t, x| {
            let a = t.select_time(x, 1);
            let b = t.select_time(x, 3);
            let s = t.concat(&[a, b]);
            let r = t.reshape(s, Shape::d3(2, 2, 3));
            to_scalar(t, r, 111)
        },
        &x0,
        EPS,
        TOL,
    );
}

#[test]
fn grad_mean_pool_masked() {
    let x0 = randt(Shape::d3(2, 4, 3), 120);
    assert_grad_matches(
        |t, x| {
            let p = t.mean_pool_masked(x, &[2, 4]);
            to_scalar(t, p, 121)
        },
        &x0,
        EPS,
        TOL,
    );
    // Padded positions must get exactly zero gradient.
    let mut tape = Tape::new();
    let x = tape.param(x0, 0);
    let p = tape.mean_pool_masked(x, &[2, 4]);
    let loss = tape.sum_all(p);
    let g = tape.backward(loss);
    let gx = g.get(x).unwrap();
    for t in 2..4 {
        for d in 0..3 {
            assert_eq!(gx.at3(0, t, d), 0.0, "padding leaked gradient");
        }
    }
}

#[test]
fn grad_embedding_accumulates_repeated_ids() {
    let table0 = randt(Shape::d2(5, 3), 130);
    assert_grad_matches(
        |t, table| {
            let e = t.embedding(table, &[1, 3, 1, 0]);
            to_scalar(t, e, 131)
        },
        &table0,
        EPS,
        TOL,
    );
}

#[test]
fn grad_row_dot_and_l2_normalize() {
    let x0 = randt(Shape::d2(3, 4), 140);
    assert_grad_matches(
        |t, x| {
            let other = t.input(randt(Shape::d2(3, 4), 141));
            let d = t.row_dot(x, other);
            to_scalar(t, d, 142)
        },
        &x0,
        EPS,
        TOL,
    );
    assert_grad_matches(
        |t, x| {
            let n = t.l2_normalize_rows(x);
            to_scalar(t, n, 143)
        },
        &x0,
        EPS,
        TOL,
    );
}

#[test]
fn grad_mul_scalar_var() {
    let s0 = Tensor::scalar(0.7);
    assert_grad_matches(
        |t, s| {
            let x = t.input(randt(Shape::d2(3, 3), 150));
            let y = t.mul_scalar_var(x, s);
            to_scalar(t, y, 151)
        },
        &s0,
        EPS,
        TOL,
    );
    let x0 = randt(Shape::d2(3, 3), 152);
    assert_grad_matches(
        |t, x| {
            let s = t.input(Tensor::scalar(-1.3));
            let y = t.mul_scalar_var(x, s);
            to_scalar(t, y, 153)
        },
        &x0,
        EPS,
        TOL,
    );
}

#[test]
fn grad_unfold_and_conv_product() {
    // Two 5x5 two-channel images, channels-last, through a 3x3 window at
    // each stride/padding pair, then a (3·3·2, 3) convolution weight.
    for (stride, pad, seed) in [(1, 1, 160), (2, 1, 163), (1, 0, 166)] {
        let x0 = randt(Shape::d3(2, 25, 2), seed);
        assert_grad_matches(
            |t, x| {
                let cols = t.unfold(x, 5, 3, stride, pad);
                let w = t.input(randt(Shape::d2(18, 3), seed + 1).map(|v| v * 0.3));
                let y = t.matmul(cols, w, false, false);
                to_scalar(t, y, seed + 2)
            },
            &x0,
            EPS,
            5e-2,
        );
    }
}

#[test]
fn grad_composite_transformer_block_shape() {
    // A miniature attention block end-to-end: checks op composition.
    let x0 = randt(Shape::d3(2, 3, 4), 190).map(|v| v * 0.5);
    assert_grad_matches(
        |t, x| {
            let wq = t.input(randt(Shape::d2(4, 4), 191).map(|v| v * 0.4));
            let wk = t.input(randt(Shape::d2(4, 4), 192).map(|v| v * 0.4));
            let wv = t.input(randt(Shape::d2(4, 4), 193).map(|v| v * 0.4));
            let q = t.matmul(x, wq, false, false);
            let k = t.matmul(x, wk, false, false);
            let v = t.matmul(x, wv, false, false);
            let qh = t.split_heads(q, 2);
            let kh = t.split_heads(k, 2);
            let vh = t.split_heads(v, 2);
            let scores = t.matmul(qh, kh, false, true);
            let scaled = t.scale(scores, 1.0 / (2.0f32).sqrt());
            let attn = t.softmax(scaled);
            let ctx = t.matmul(attn, vh, false, false);
            let merged = t.merge_heads(ctx, 2);
            let pooled = t.mean_pool_masked(merged, &[3, 2]);
            to_scalar(t, pooled, 194)
        },
        &x0,
        EPS,
        3e-2,
    );
}

#[test]
fn backward_multiple_uses_accumulates() {
    // y = x*x + x  => dy/dx = 2x + 1
    let x0 = Tensor::from_vec(vec![2.0, -3.0], Shape::d1(2));
    let mut tape = Tape::new();
    let x = tape.param(x0.clone(), 0);
    let sq = tape.mul(x, x);
    let y = tape.add(sq, x);
    let loss = tape.sum_all(y);
    let grads = tape.backward(loss);
    let g = grads.get(x).unwrap();
    assert!((g.data()[0] - 5.0).abs() < 1e-6);
    assert!((g.data()[1] - (-5.0)).abs() < 1e-6);
}

#[test]
fn into_param_grads_routes_by_binding() {
    let mut tape = Tape::new();
    let a = tape.param(Tensor::scalar(2.0), 7);
    let b = tape.param(Tensor::scalar(3.0), 9);
    let prod = tape.mul(a, b);
    let loss = tape.sum_all(prod);
    let grads = tape.backward(loss);
    let mut pairs = grads.into_param_grads(&tape);
    pairs.sort_by_key(|(id, _)| *id);
    assert_eq!(pairs.len(), 2);
    assert_eq!(pairs[0].0, 7);
    assert!((pairs[0].1.data()[0] - 3.0).abs() < 1e-6);
    assert_eq!(pairs[1].0, 9);
    assert!((pairs[1].1.data()[0] - 2.0).abs() < 1e-6);
}

#[test]
fn constants_do_not_accumulate_gradients() {
    let mut tape = Tape::new();
    let x = tape.param(Tensor::scalar(1.0), 0);
    let c = tape.input(Tensor::scalar(5.0));
    let y = tape.mul(x, c);
    let loss = tape.sum_all(y);
    let grads = tape.backward(loss);
    assert!(grads.get(c).is_none());
    assert!(grads.get(x).is_some());
}
