//! Edge-case and contract tests for the public tensor API: shape-mismatch
//! panics, degenerate sizes, and numerical boundaries not covered by the
//! gradient checks.

use rand::{rngs::StdRng, SeedableRng};
use trajcl_tensor::{kernels, Shape, Tape, Tensor};

#[test]
#[should_panic(expected = "matmul inner dims mismatch")]
fn matmul_rejects_inner_mismatch() {
    let a = Tensor::zeros(Shape::d2(2, 3));
    let b = Tensor::zeros(Shape::d2(4, 2));
    kernels::matmul(&a, &b, false, false);
}

#[test]
#[should_panic(expected = "matmul batch mismatch")]
fn matmul_rejects_batch_mismatch() {
    let a = Tensor::zeros(Shape::d3(2, 2, 3));
    let b = Tensor::zeros(Shape::d3(5, 3, 2));
    kernels::matmul(&a, &b, false, false);
}

#[test]
fn matmul_one_by_one() {
    let a = Tensor::from_vec(vec![3.0], Shape::d2(1, 1));
    let b = Tensor::from_vec(vec![-4.0], Shape::d2(1, 1));
    let c = kernels::matmul(&a, &b, false, false);
    assert_eq!(c.data(), &[-12.0]);
}

#[test]
fn concat_three_parts_and_gradients() {
    let mut tape = Tape::new();
    let a = tape.param(Tensor::from_vec(vec![1.0, 2.0], Shape::d2(1, 2)), 0);
    let b = tape.param(Tensor::from_vec(vec![3.0], Shape::d2(1, 1)), 1);
    let c = tape.param(Tensor::from_vec(vec![4.0, 5.0, 6.0], Shape::d2(1, 3)), 2);
    let cat = tape.concat(&[a, b, c]);
    assert_eq!(tape.shape(cat), Shape::d2(1, 6));
    assert_eq!(tape.value(cat).data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    let loss = tape.sum_all(cat);
    let grads = tape.backward(loss);
    for (v, len) in [(a, 2), (b, 1), (c, 3)] {
        assert_eq!(grads.get(v).unwrap().numel(), len);
    }
}

#[test]
#[should_panic(expected = "leading dims mismatch")]
fn concat_rejects_row_mismatch() {
    let mut tape = Tape::new();
    let a = tape.input(Tensor::zeros(Shape::d2(2, 2)));
    let b = tape.input(Tensor::zeros(Shape::d2(3, 2)));
    tape.concat(&[a, b]);
}

#[test]
fn softmax_single_column_is_one() {
    let mut tape = Tape::new();
    let x = tape.input(Tensor::from_vec(vec![5.0, -2.0, 0.1], Shape::d2(3, 1)));
    let y = tape.softmax(x);
    assert!(tape.value(y).data().iter().all(|&v| (v - 1.0).abs() < 1e-6));
}

#[test]
#[should_panic(expected = "embedding id")]
fn embedding_rejects_out_of_range_ids() {
    let mut tape = Tape::new();
    let table = tape.input(Tensor::zeros(Shape::d2(4, 2)));
    tape.embedding(table, &[0, 4]);
}

#[test]
#[should_panic(expected = "time index")]
fn select_time_rejects_out_of_range() {
    let mut tape = Tape::new();
    let x = tape.input(Tensor::zeros(Shape::d3(1, 3, 2)));
    tape.select_time(x, 3);
}

#[test]
fn dropout_extreme_keep_probability() {
    let mut rng = StdRng::seed_from_u64(0);
    let mut tape = Tape::new();
    let x = tape.param(Tensor::ones(Shape::d2(10, 10)), 0);
    let y = tape.dropout(x, 0.99, true, &mut rng);
    let kept = tape.value(y).data().iter().filter(|&&v| v != 0.0).count();
    assert!(
        kept < 20,
        "p=0.99 should drop almost everything, kept {kept}"
    );
    // Kept values carry the 1/(1-p) = 100x scale.
    for &v in tape.value(y).data() {
        assert!(v == 0.0 || (v - 100.0).abs() < 1.0);
    }
}

#[test]
fn layer_norm_constant_row_is_finite() {
    // Variance 0 + eps must not produce NaN.
    let mut tape = Tape::new();
    let x = tape.input(Tensor::full(Shape::d2(2, 4), 7.0));
    let g = tape.input(Tensor::ones(Shape::d1(4)));
    let b = tape.input(Tensor::zeros(Shape::d1(4)));
    let y = tape.layer_norm(x, g, b, 1e-5);
    assert!(tape.value(y).all_finite());
    assert!(
        tape.value(y).max_abs() < 1e-2,
        "constant row normalises to ~0"
    );
}

#[test]
fn mean_pool_masked_single_position() {
    let mut tape = Tape::new();
    let x = tape.input(Tensor::from_vec(
        vec![1.0, 2.0, 9.0, 9.0],
        Shape::d3(1, 2, 2),
    ));
    let p = tape.mean_pool_masked(x, &[1]);
    assert_eq!(tape.value(p).data(), &[1.0, 2.0]);
}

#[test]
fn reshape_requires_same_numel() {
    let t = Tensor::zeros(Shape::d2(2, 3));
    let r = std::panic::catch_unwind(|| t.clone().reshaped(Shape::d2(2, 4)));
    assert!(r.is_err());
}

#[test]
fn cross_entropy_perfect_prediction_near_zero_loss() {
    let mut tape = Tape::new();
    // Huge logit margin on the target class.
    let logits = tape.input(Tensor::from_vec(
        vec![50.0, 0.0, 0.0, 0.0, 50.0, 0.0],
        Shape::d2(2, 3),
    ));
    let loss = tape.cross_entropy(logits, &[0, 1]);
    assert!(tape.value(loss).data()[0] < 1e-5);
}

#[test]
fn cross_entropy_uniform_is_log_c() {
    let mut tape = Tape::new();
    let logits = tape.input(Tensor::zeros(Shape::d2(3, 4)));
    let loss = tape.cross_entropy(logits, &[0, 1, 2]);
    let expect = (4.0f32).ln();
    assert!((tape.value(loss).data()[0] - expect).abs() < 1e-5);
}

#[test]
fn backward_from_non_scalar_sums() {
    // Seeding backward at a vector node computes d(sum)/dx.
    let mut tape = Tape::new();
    let x = tape.param(Tensor::from_vec(vec![1.0, 2.0, 3.0], Shape::d1(3)), 0);
    let y = tape.scale(x, 2.0);
    let grads = tape.backward(y);
    assert_eq!(grads.get(x).unwrap().data(), &[2.0, 2.0, 2.0]);
}

#[test]
fn tape_len_tracks_nodes() {
    let mut tape = Tape::new();
    assert!(tape.is_empty());
    let a = tape.input(Tensor::scalar(1.0));
    let _ = tape.scale(a, 2.0);
    assert_eq!(tape.len(), 2);
}

#[test]
fn rank4_tensors_supported_through_conv_path() {
    // A (1, 6, 6, 1) channels-last image as (1, 36, 1) pixel rows: a 3x3
    // convolution is an unfold and one product, the global pool a mean.
    let mut rng = StdRng::seed_from_u64(1);
    let mut tape = Tape::new();
    let img = tape.input(Tensor::randn(Shape::d4(1, 6, 6, 1), 0.0, 1.0, &mut rng));
    let x = tape.reshape(img, Shape::d3(1, 36, 1));
    let cols = tape.unfold(x, 6, 3, 1, 0);
    assert_eq!(tape.shape(cols), Shape::d3(1, 16, 9));
    let w = tape.input(Tensor::randn(Shape::d2(9, 2), 0.0, 0.3, &mut rng));
    let y = tape.matmul(cols, w, false, false);
    assert_eq!(tape.shape(y), Shape::d3(1, 16, 2));
    let g = tape.mean_pool_masked(y, &[16]);
    assert_eq!(tape.shape(g), Shape::d2(1, 2));
}
