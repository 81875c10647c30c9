//! Bit pins for every tape op: forward values and leaf gradients.
//!
//! `grad_check.rs` compares gradients against finite differences within a
//! tolerance, so it cannot see a change that moves a gradient by one ulp —
//! a reordered accumulation, say. Each case here builds one seeded graph
//! around one op, squashes it to a scalar through a fixed random
//! projection, runs the backward sweep and digests every forward value and
//! every leaf gradient (FNV-1a over `f32::to_bits`, in `Var` order). The
//! digests are constants: any change to a forward or backward rule that is
//! not bit-neutral fails here.
//!
//! x86-64 only, because `tanh`, `ln` and `exp` come from the platform libm.
//! The kernels' scalar and AVX2 copies and every pool width return the same
//! bits, so the pins hold under `TRAJCL_FORCE_SCALAR=1` and
//! `TRAJCL_THREADS=1` too.
#![cfg(target_arch = "x86_64")]

use rand::{rngs::StdRng, SeedableRng};
use trajcl_tensor::{Shape, Tape, Tensor, Var};

/// One graph under construction: the tape, its seeded RNG and every node
/// recorded so far, in order.
struct Graph {
    tape: Tape,
    rng: StdRng,
    vars: Vec<Var>,
}

impl Graph {
    fn new(seed: u64) -> Self {
        Graph {
            tape: Tape::new(),
            rng: StdRng::seed_from_u64(seed),
            vars: Vec::new(),
        }
    }

    fn randn(&mut self, shape: Shape) -> Tensor {
        Tensor::randn(shape, 0.0, 1.0, &mut self.rng)
    }

    /// A differentiable leaf with standard-normal entries.
    fn param(&mut self, shape: Shape) -> Var {
        let value = self.randn(shape);
        let id = self.vars.len();
        let v = self.tape.param(value, id);
        self.node(v)
    }

    /// A constant leaf with standard-normal entries.
    fn input(&mut self, shape: Shape) -> Var {
        let value = self.randn(shape);
        let v = self.tape.input(value);
        self.node(v)
    }

    fn node(&mut self, v: Var) -> Var {
        self.vars.push(v);
        v
    }

    /// Projects `y` to a scalar, runs backward and digests every forward
    /// value, then every leaf gradient that was reached.
    fn digest(mut self, y: Var) -> u64 {
        let shape = self.tape.shape(y);
        let w = self.input(shape);
        let prod = self.tape.mul(y, w);
        self.node(prod);
        let loss = self.tape.sum_all(prod);
        self.node(loss);
        let grads = self.tape.backward(loss);
        let mut h = Fnv::new();
        for &v in &self.vars {
            h.tensor(self.tape.value(v));
        }
        for &v in &self.vars {
            if let Some(g) = grads.get(v) {
                h.tensor(g);
            }
        }
        h.0
    }
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn tensor(&mut self, t: &Tensor) {
        for &d in t.shape().dims() {
            self.bytes(&(d as u64).to_le_bytes());
        }
        for &v in t.data() {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

fn leaves(seed: u64) -> u64 {
    let mut g = Graph::new(seed);
    let a = g.param(Shape::d2(3, 5));
    let b = g.input(Shape::d2(3, 5));
    let y = g.tape.add(a, b);
    let y = g.node(y);
    g.digest(y)
}

fn add(seed: u64) -> u64 {
    let mut g = Graph::new(seed);
    let a = g.param(Shape::d2(4, 9));
    let b = g.param(Shape::d2(4, 9));
    let y = g.tape.add(a, b);
    let y = g.node(y);
    let y2 = g.tape.add(y, a);
    let y2 = g.node(y2);
    g.digest(y2)
}

fn add_bias(seed: u64) -> u64 {
    let mut g = Graph::new(seed);
    let x = g.param(Shape::d3(2, 3, 9));
    let bias = g.param(Shape::d1(9));
    let y = g.tape.add_bias(x, bias);
    let y = g.node(y);
    g.digest(y)
}

fn add_bias_constant(seed: u64) -> u64 {
    let mut g = Graph::new(seed);
    let x = g.param(Shape::d2(4, 9));
    let bias = g.input(Shape::d1(9));
    let y = g.tape.add_bias(x, bias);
    let y = g.node(y);
    g.digest(y)
}

fn sub(seed: u64) -> u64 {
    let mut g = Graph::new(seed);
    let a = g.param(Shape::d2(4, 9));
    let b = g.param(Shape::d2(4, 9));
    let y = g.tape.sub(a, b);
    let y = g.node(y);
    g.digest(y)
}

fn mul(seed: u64) -> u64 {
    let mut g = Graph::new(seed);
    let a = g.param(Shape::d2(4, 9));
    let b = g.param(Shape::d2(4, 9));
    let c = g.input(Shape::d2(4, 9));
    let y = g.tape.mul(a, b);
    let y = g.node(y);
    let y2 = g.tape.mul(y, c);
    let y2 = g.node(y2);
    let y3 = g.tape.mul(y2, a);
    let y3 = g.node(y3);
    g.digest(y3)
}

fn scale(seed: u64) -> u64 {
    let mut g = Graph::new(seed);
    let x = g.param(Shape::d2(3, 7));
    let y = g.tape.scale(x, -1.7);
    let y = g.node(y);
    g.digest(y)
}

fn matmul(seed: u64, ta: bool, tb: bool) -> u64 {
    let mut g = Graph::new(seed);
    let (m, k, n) = (5, 11, 9);
    let a = g.param(if ta { Shape::d2(k, m) } else { Shape::d2(m, k) });
    let b = g.param(if tb { Shape::d2(n, k) } else { Shape::d2(k, n) });
    let y = g.tape.matmul(a, b, ta, tb);
    let y = g.node(y);
    g.digest(y)
}

fn matmul_batched(seed: u64, ta: bool, tb: bool) -> u64 {
    let mut g = Graph::new(seed);
    let (bs, m, k, n) = (3, 4, 10, 9);
    let a = g.param(if ta {
        Shape::d3(bs, k, m)
    } else {
        Shape::d3(bs, m, k)
    });
    // A shared, unbatched right operand: its gradient sums over the batch.
    let b = g.param(if tb { Shape::d2(n, k) } else { Shape::d2(k, n) });
    let y = g.tape.matmul(a, b, ta, tb);
    let y = g.node(y);
    g.digest(y)
}

fn row_dot(seed: u64) -> u64 {
    let mut g = Graph::new(seed);
    let a = g.param(Shape::d2(5, 9));
    let b = g.param(Shape::d2(5, 9));
    let y = g.tape.row_dot(a, b);
    let y = g.node(y);
    let y2 = g.tape.row_dot(a, a);
    let y2 = g.node(y2);
    let s = g.tape.add(y, y2);
    let s = g.node(s);
    g.digest(s)
}

fn softmax(seed: u64) -> u64 {
    let mut g = Graph::new(seed);
    let x = g.param(Shape::d3(2, 3, 9));
    let y = g.tape.softmax(x);
    let y = g.node(y);
    g.digest(y)
}

fn relu(seed: u64) -> u64 {
    let mut g = Graph::new(seed);
    let mut value = g.randn(Shape::d2(4, 9));
    value.data_mut()[3] = 0.0;
    let x = g.tape.param(value, 0);
    let x = g.node(x);
    let y = g.tape.relu(x);
    let y = g.node(y);
    g.digest(y)
}

fn tanh(seed: u64) -> u64 {
    let mut g = Graph::new(seed);
    let x = g.param(Shape::d2(4, 9));
    let y = g.tape.tanh_op(x);
    let y = g.node(y);
    g.digest(y)
}

fn sigmoid(seed: u64) -> u64 {
    let mut g = Graph::new(seed);
    let x = g.param(Shape::d2(4, 9));
    let y = g.tape.sigmoid(x);
    let y = g.node(y);
    g.digest(y)
}

fn abs(seed: u64) -> u64 {
    let mut g = Graph::new(seed);
    let mut value = g.randn(Shape::d2(4, 9));
    value.data_mut()[5] = 0.0;
    let x = g.tape.param(value, 0);
    let x = g.node(x);
    let y = g.tape.abs_op(x);
    let y = g.node(y);
    g.digest(y)
}

fn dropout(seed: u64) -> u64 {
    let mut g = Graph::new(seed);
    let x = g.param(Shape::d3(2, 5, 9));
    let mut drop_rng = StdRng::seed_from_u64(seed ^ 0xd5);
    let y = g.tape.dropout(x, 0.3, true, &mut drop_rng);
    let y = g.node(y);
    g.digest(y)
}

fn layer_norm(seed: u64) -> u64 {
    let mut g = Graph::new(seed);
    let x = g.param(Shape::d3(2, 3, 9));
    let gamma = g.param(Shape::d1(9));
    let beta = g.param(Shape::d1(9));
    let y = g.tape.layer_norm(x, gamma, beta, 1e-5);
    let y = g.node(y);
    g.digest(y)
}

fn layer_norm_constant_input(seed: u64) -> u64 {
    let mut g = Graph::new(seed);
    let x = g.input(Shape::d2(4, 9));
    let gamma = g.param(Shape::d1(9));
    let beta = g.param(Shape::d1(9));
    let y = g.tape.layer_norm(x, gamma, beta, 1e-5);
    let y = g.node(y);
    g.digest(y)
}

fn l2_normalize_rows(seed: u64) -> u64 {
    let mut g = Graph::new(seed);
    let x = g.param(Shape::d2(5, 9));
    let y = g.tape.l2_normalize_rows(x);
    let y = g.node(y);
    g.digest(y)
}

fn concat(seed: u64) -> u64 {
    let mut g = Graph::new(seed);
    let a = g.param(Shape::d3(2, 3, 4));
    let b = g.input(Shape::d3(2, 3, 5));
    let c = g.param(Shape::d3(2, 3, 2));
    let y = g.tape.concat(&[a, b, c]);
    let y = g.node(y);
    let y2 = g.tape.concat(&[c, a, c]);
    let y2 = g.node(y2);
    let both = g.tape.concat(&[y, y2]);
    let both = g.node(both);
    g.digest(both)
}

fn split_heads(seed: u64) -> u64 {
    let mut g = Graph::new(seed);
    let x = g.param(Shape::d3(2, 3, 8));
    let y = g.tape.split_heads(x, 2);
    let y = g.node(y);
    g.digest(y)
}

fn merge_heads(seed: u64) -> u64 {
    let mut g = Graph::new(seed);
    let x = g.param(Shape::d3(4, 3, 4));
    let y = g.tape.merge_heads(x, 2);
    let y = g.node(y);
    g.digest(y)
}

fn reshape(seed: u64) -> u64 {
    let mut g = Graph::new(seed);
    let x = g.param(Shape::d3(2, 3, 6));
    let y = g.tape.reshape(x, Shape::d2(6, 6));
    let y = g.node(y);
    g.digest(y)
}

fn select_time(seed: u64) -> u64 {
    let mut g = Graph::new(seed);
    let x = g.param(Shape::d3(3, 4, 9));
    let y = g.tape.select_time(x, 2);
    let y = g.node(y);
    g.digest(y)
}

fn mean_pool_masked(seed: u64) -> u64 {
    let mut g = Graph::new(seed);
    let x = g.param(Shape::d3(3, 5, 9));
    let y = g.tape.mean_pool_masked(x, &[5, 1, 3]);
    let y = g.node(y);
    g.digest(y)
}

fn embedding(seed: u64) -> u64 {
    let mut g = Graph::new(seed);
    let table = g.param(Shape::d2(6, 9));
    let y = g.tape.embedding(table, &[2, 0, 2, 5, 2, 0]);
    let y = g.node(y);
    g.digest(y)
}

fn mean_all(seed: u64) -> u64 {
    let mut g = Graph::new(seed);
    let x = g.param(Shape::d2(4, 9));
    let y = g.tape.mean_all(x);
    let y = g.node(y);
    g.digest(y)
}

fn sum_all(seed: u64) -> u64 {
    let mut g = Graph::new(seed);
    let x = g.param(Shape::d2(4, 9));
    let y = g.tape.sum_all(x);
    let y = g.node(y);
    g.digest(y)
}

fn cross_entropy(seed: u64) -> u64 {
    let mut g = Graph::new(seed);
    let logits = g.param(Shape::d2(5, 9));
    let y = g.tape.cross_entropy(logits, &[0, 8, 3, 3, 7]);
    let y = g.node(y);
    g.digest(y)
}

fn mul_scalar_var(seed: u64) -> u64 {
    let mut g = Graph::new(seed);
    let x = g.param(Shape::d2(4, 9));
    let s = g.param(Shape::d1(1));
    let y = g.tape.mul_scalar_var(x, s);
    let y = g.node(y);
    g.digest(y)
}

fn unfold(seed: u64) -> u64 {
    let mut g = Graph::new(seed);
    // Two 4×5 images with 3 channels; 3×3 windows at stride 2, padding 1.
    let x = g.param(Shape::d3(2, 4 * 5, 3));
    let y = g.tape.unfold(x, 5, 3, 2, 1);
    let y = g.node(y);
    g.digest(y)
}

#[test]
fn every_op_keeps_its_forward_and_gradient_bits() {
    let cases: Vec<(&str, u64, u64)> = vec![
        ("input+param", leaves(1), 0xd8d6_f43c_199a_c4a7),
        ("add", add(2), 0xee18_2b65_215a_f3ab),
        ("add_bias", add_bias(3), 0x3ef9_fd54_8ace_65b1),
        (
            "add_bias constant bias",
            add_bias_constant(4),
            0x4150_790a_6417_1686,
        ),
        ("sub", sub(5), 0x85ba_7432_ac42_6891),
        ("mul", mul(6), 0x0e79_abb3_3465_5b04),
        ("scale", scale(7), 0xd11a_2550_6d49_1c41),
        ("matmul nn", matmul(8, false, false), 0x405c_2535_6b30_ab21),
        ("matmul nt", matmul(9, false, true), 0x2ff6_5aa0_b7fd_ab9b),
        ("matmul tn", matmul(10, true, false), 0x4821_b4e0_3fb2_5f2f),
        ("matmul tt", matmul(11, true, true), 0xa9c8_7715_3b3d_8aed),
        (
            "matmul batched nn",
            matmul_batched(12, false, false),
            0x9269_835b_1ab9_a181,
        ),
        (
            "matmul batched nt",
            matmul_batched(13, false, true),
            0x1872_8b1a_8bb4_8c58,
        ),
        (
            "matmul batched tn",
            matmul_batched(14, true, false),
            0x1962_ef97_ba98_8f24,
        ),
        (
            "matmul batched tt",
            matmul_batched(15, true, true),
            0x61af_3d24_2c35_5666,
        ),
        ("row_dot", row_dot(16), 0x79c6_4003_3151_6c4e),
        ("softmax", softmax(17), 0xb433_e345_68ea_9937),
        ("relu", relu(18), 0xee3f_766e_99b2_3a15),
        ("tanh", tanh(19), 0x9dbb_3922_e0e7_466a),
        ("sigmoid", sigmoid(20), 0x36b4_0cad_c880_97d7),
        ("abs", abs(21), 0x22ce_0cb0_cdc6_ab00),
        ("dropout", dropout(22), 0x362a_0a1b_adf0_1db5),
        ("layer_norm", layer_norm(23), 0x73bf_103e_5267_07d7),
        (
            "layer_norm constant input",
            layer_norm_constant_input(24),
            0x8d6b_108d_fc6c_26e1,
        ),
        (
            "l2_normalize_rows",
            l2_normalize_rows(25),
            0x0df7_fbce_ce23_a0ad,
        ),
        ("concat", concat(26), 0x5636_2faa_2738_73df),
        ("split_heads", split_heads(27), 0x79b9_1b59_9deb_086b),
        ("merge_heads", merge_heads(28), 0x6faa_7923_31c3_d92a),
        ("reshape", reshape(29), 0xd362_f749_c555_6954),
        ("select_time", select_time(30), 0xded5_6554_c2d1_c7e1),
        (
            "mean_pool_masked",
            mean_pool_masked(31),
            0x0439_8e75_1acf_82a8,
        ),
        ("embedding", embedding(32), 0xf45b_3e8d_4b51_60ba),
        ("mean_all", mean_all(33), 0x512d_301c_9711_1099),
        ("sum_all", sum_all(34), 0xb5a9_99d8_17d7_103a),
        ("cross_entropy", cross_entropy(35), 0xd916_eba3_5a3e_5c9e),
        ("mul_scalar_var", mul_scalar_var(36), 0x5dd8_a6d0_9483_653a),
        ("unfold", unfold(37), 0xd339_1705_95d0_da94),
    ];
    let moved: Vec<String> = cases
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, want)| format!("{name}: {got:#018x} (pinned {want:#018x})"))
        .collect();
    assert!(moved.is_empty(), "bits moved:\n{}", moved.join("\n"));
}
