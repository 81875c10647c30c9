//! Dense row-major f32 tensors.

use crate::kernels;
use crate::shape::Shape;
use rand::Rng;
use rand_distr_normal::sample_standard_normal;
use std::fmt;

/// A dense, row-major, heap-allocated f32 tensor of rank 1–4.
///
/// All model math in this workspace runs on `Tensor`. The type is plain data:
/// differentiation lives in [`crate::Tape`], which stores `Tensor`s per node.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// A tensor of zeros.
    pub fn zeros(shape: Shape) -> Self {
        Tensor {
            data: vec![0.0; shape.numel()],
            shape,
        }
    }

    /// A tensor of ones.
    pub fn ones(shape: Shape) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: Shape, value: f32) -> Self {
        Tensor {
            data: vec![value; shape.numel()],
            shape,
        }
    }

    /// A rank-1 single-element tensor holding `value`.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            data: vec![value],
            shape: Shape::d1(1),
        }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != shape.numel()`.
    pub fn from_vec(data: Vec<f32>, shape: Shape) -> Self {
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Tensor { data, shape }
    }

    /// Uniform random tensor in `[lo, hi)`.
    pub fn rand_uniform(shape: Shape, lo: f32, hi: f32, rng: &mut impl Rng) -> Self {
        let data = (0..shape.numel()).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor { data, shape }
    }

    /// Gaussian random tensor with the given mean and standard deviation.
    pub fn randn(shape: Shape, mean: f32, std: f32, rng: &mut impl Rng) -> Self {
        let data = (0..shape.numel())
            .map(|_| mean + std * sample_standard_normal(rng))
            .collect();
        Tensor { data, shape }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the raw buffer (row-major).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the raw buffer (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the raw buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reinterprets the buffer under a new shape with the same element count.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshaped(mut self, shape: Shape) -> Self {
        assert_eq!(
            self.numel(),
            shape.numel(),
            "cannot reshape {} -> {shape}",
            self.shape
        );
        self.shape = shape;
        self
    }

    /// Element at a rank-2 index.
    #[inline]
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.shape.rank(), 2);
        self.data[i * self.shape[1] + j]
    }

    /// Element at a rank-3 index.
    #[inline]
    pub fn at3(&self, b: usize, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.shape.rank(), 3);
        self.data[(b * self.shape[1] + i) * self.shape[2] + j]
    }

    /// Contiguous row `i` of a rank-2 tensor.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        let w = self.shape.last();
        &self.data[i * w..(i + 1) * w]
    }

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape,
        }
    }

    /// Combines two same-shape tensors elementwise.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip_map shape mismatch");
        Tensor {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape,
        }
    }

    /// `self += alpha * other` (same shapes).
    pub fn add_assign_scaled(&mut self, other: &Tensor, alpha: f32) {
        assert_eq!(self.shape, other.shape, "add_assign_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scales every element in place.
    pub fn scale_in_place(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Materialized transpose of the last two dimensions.
    pub fn transpose_last2(&self) -> Tensor {
        let s = self.shape;
        assert!(s.rank() >= 2, "transpose needs rank >= 2");
        let (m, n) = (s[s.rank() - 2], s[s.rank() - 1]);
        let mut out = vec![0.0f32; s.numel()];
        for (src, dst) in self
            .data
            .chunks_exact(m * n)
            .zip(out.chunks_exact_mut(m * n))
        {
            kernels::transpose_into(src, m, n, dst);
        }
        Tensor {
            data: out,
            shape: s.transpose_last2(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.numel() as f32
    }

    /// Frobenius (L2) norm of the flattened buffer.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// True if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Approximate equality with absolute tolerance `tol`.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.numel() <= 16 {
            write!(f, "{:?}", self.data)
        } else {
            write!(
                f,
                "[{:?}, ... ({} elements)]",
                &self.data[..8],
                self.numel()
            )
        }
    }
}

/// Box–Muller standard normal sampling without pulling in `rand_distr`.
mod rand_distr_normal {
    use rand::Rng;

    /// One sample from N(0, 1).
    pub fn sample_standard_normal(rng: &mut impl Rng) -> f32 {
        // Box–Muller; reject u1 == 0 so ln is finite.
        loop {
            let u1: f32 = rng.gen();
            if u1 > f32::MIN_POSITIVE {
                let u2: f32 = rng.gen();
                let r = (-2.0 * u1.ln()).sqrt();
                return r * (2.0 * std::f32::consts::PI * u2).cos();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn zeros_ones_full() {
        let z = Tensor::zeros(Shape::d2(2, 3));
        assert_eq!(z.numel(), 6);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let o = Tensor::ones(Shape::d1(4));
        assert!(o.data().iter().all(|&x| x == 1.0));
        let f = Tensor::full(Shape::d1(3), 2.5);
        assert!(f.data().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn from_vec_checks_len() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], Shape::d2(2, 2));
        assert_eq!(t.at2(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_rejects_bad_len() {
        Tensor::from_vec(vec![1.0], Shape::d2(2, 2));
    }

    #[test]
    fn randn_statistics() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::randn(Shape::d1(20_000), 1.0, 2.0, &mut rng);
        let mean = t.mean();
        let var = t
            .data()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f32>()
            / t.numel() as f32;
        assert!((mean - 1.0).abs() < 0.05, "mean={mean}");
        assert!((var - 4.0).abs() < 0.15, "var={var}");
    }

    #[test]
    fn transpose_last2_rank2_and_rank3() {
        let t = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], Shape::d2(2, 3));
        let tt = t.transpose_last2();
        assert_eq!(tt.shape(), Shape::d2(3, 2));
        assert_eq!(tt.data(), &[1., 4., 2., 5., 3., 6.]);

        let b = Tensor::from_vec((0..12).map(|x| x as f32).collect(), Shape::d3(2, 2, 3));
        let bt = b.transpose_last2();
        assert_eq!(bt.shape(), Shape::d3(2, 3, 2));
        assert_eq!(bt.at3(1, 0, 1), b.at3(1, 1, 0));
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor::from_vec(vec![1., -2.], Shape::d1(2));
        let b = Tensor::from_vec(vec![3., 4.], Shape::d1(2));
        assert_eq!(a.map(|x| x.abs()).data(), &[1., 2.]);
        assert_eq!(a.zip_map(&b, |x, y| x * y).data(), &[3., -8.]);
    }

    #[test]
    fn add_assign_scaled_works() {
        let mut a = Tensor::from_vec(vec![1., 2.], Shape::d1(2));
        let b = Tensor::from_vec(vec![10., 20.], Shape::d1(2));
        a.add_assign_scaled(&b, 0.5);
        assert_eq!(a.data(), &[6., 12.]);
    }

    #[test]
    fn norms_and_reductions() {
        let t = Tensor::from_vec(vec![3., 4.], Shape::d1(2));
        assert_eq!(t.frobenius_norm(), 5.0);
        assert_eq!(t.sum(), 7.0);
        assert_eq!(t.mean(), 3.5);
        assert_eq!(t.max_abs(), 4.0);
        assert!(t.all_finite());
        let bad = Tensor::from_vec(vec![f32::NAN], Shape::d1(1));
        assert!(!bad.all_finite());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1., 2., 3., 4.], Shape::d2(2, 2));
        let r = t.clone().reshaped(Shape::d1(4));
        assert_eq!(r.data(), t.data());
        assert_eq!(r.shape(), Shape::d1(4));
    }
}
