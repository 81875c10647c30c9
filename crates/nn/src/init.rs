//! Weight initialisation schemes.

use rand::Rng;
use trajcl_tensor::{Shape, Tensor};

/// Xavier/Glorot uniform initialisation for a `(fan_in, fan_out)` matrix.
pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Tensor {
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    Tensor::rand_uniform(Shape::d2(fan_in, fan_out), -bound, bound, rng)
}

/// Xavier uniform for a conv kernel, drawn as `(out_ch, in_ch, k, k)` and
/// laid out as the `(k·k·in_ch, out_ch)` weight an unfolded image is
/// multiplied by: row `(di·k + dj)·in_ch + c`, column `o`.
pub fn conv_xavier(out_ch: usize, in_ch: usize, k: usize, rng: &mut impl Rng) -> Tensor {
    let fan_in = in_ch * k * k;
    let fan_out = out_ch * k * k;
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    let drawn = Tensor::rand_uniform(Shape::d4(out_ch, in_ch, k, k), -bound, bound, rng);
    let mut w = Tensor::zeros(Shape::d2(k * k * in_ch, out_ch));
    for (i, &v) in drawn.data().iter().enumerate() {
        let (o, c, tap) = (i / (in_ch * k * k), i / (k * k) % in_ch, i % (k * k));
        w.data_mut()[(tap * in_ch + c) * out_ch + o] = v;
    }
    w
}

/// Small-scale normal initialisation for embedding tables.
pub fn embedding_init(vocab: usize, dim: usize, rng: &mut impl Rng) -> Tensor {
    Tensor::randn(Shape::d2(vocab, dim), 0.0, 0.1, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn xavier_bound_respected() {
        let mut rng = StdRng::seed_from_u64(0);
        let w = xavier_uniform(64, 64, &mut rng);
        let bound = (6.0 / 128.0f32).sqrt();
        assert!(w.data().iter().all(|v| v.abs() <= bound));
        assert!(
            w.max_abs() > bound * 0.5,
            "values should spread near the bound"
        );
    }

    #[test]
    fn conv_kernel_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = conv_xavier(8, 3, 5, &mut rng);
        assert_eq!(w.shape(), Shape::d2(5 * 5 * 3, 8));
    }
}
