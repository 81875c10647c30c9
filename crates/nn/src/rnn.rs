//! Recurrent cells (GRU / LSTM) for the t2vec, E2DTC, T3S and Traj2SimVec
//! baselines.
//!
//! Sequences are processed step-by-step on the tape; variable lengths are
//! handled with per-step update masks so the final hidden state of each
//! batch element is the state at its own last valid position (matching how
//! packed sequences behave in the original PyTorch baselines).

use crate::init;
use crate::modules::Fwd;
use crate::store::{ParamId, ParamStore};
use rand::Rng;
use trajcl_tensor::{Shape, TapeExec, Tensor, Var};

/// One gate's parameters `[W, U, b]`.
type Gate = [ParamId; 3];

/// Registers the parameters of `N` gates given as `(suffix, bias init)`:
/// `w{g}`, `u{g}` gate by gate, then `b{g}` gate by gate.
fn register_gates<const N: usize>(
    store: &mut ParamStore,
    name: &str,
    in_dim: usize,
    hidden: usize,
    gates: [(&str, f32); N],
    rng: &mut impl Rng,
) -> [Gate; N] {
    let wu = gates.map(|(g, _)| {
        let w = init::xavier_uniform(in_dim, hidden, &mut *rng);
        let u = init::xavier_uniform(hidden, hidden, &mut *rng);
        [
            store.add(format!("{name}.w{g}"), w),
            store.add(format!("{name}.u{g}"), u),
        ]
    });
    let b = gates.map(|(g, init)| {
        let bias = Tensor::full(Shape::d1(hidden), init);
        store.add(format!("{name}.b{g}"), bias)
    });
    std::array::from_fn(|i| [wu[i][0], wu[i][1], b[i]])
}

/// The pre-activation every gate shares: `x·W + h·U + b`.
fn gate(f: &mut Fwd<TapeExec>, [w, u, b]: Gate, x: Var, h: Var) -> Var {
    let [w, u, b] = [w, u, b].map(|id| f.exec.bind(f.p(id)));
    let tape = &mut f.exec.tape;
    let xs = tape.matmul(x, w, false, false);
    let hs = tape.matmul(h, u, false, false);
    let s = tape.add(xs, hs);
    tape.add_bias(s, b)
}

/// A gated recurrent unit cell.
#[derive(Debug, Clone)]
pub struct GruCell {
    z: Gate,
    r: Gate,
    h: Gate,
    /// Input dimension.
    pub in_dim: usize,
    /// Hidden dimension.
    pub hidden: usize,
}

impl GruCell {
    /// Registers GRU parameters.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let gates = [("z", 0.0), ("r", 0.0), ("h", 0.0)];
        let [z, r, h] = register_gates(store, name, in_dim, hidden, gates, rng);
        GruCell {
            z,
            r,
            h,
            in_dim,
            hidden,
        }
    }

    /// One step: `(x_t (B, in), h (B, hidden)) -> h' (B, hidden)`.
    pub fn step(&self, f: &mut Fwd<TapeExec>, x: Var, h: Var) -> Var {
        let z_pre = gate(f, self.z, x, h);
        let z = f.exec.tape.sigmoid(z_pre);
        let r_pre = gate(f, self.r, x, h);
        let r = f.exec.tape.sigmoid(r_pre);
        let rh = f.exec.tape.mul(r, h);
        let n_pre = gate(f, self.h, x, rh);
        let tape = &mut f.exec.tape;
        let n = tape.tanh_op(n_pre);
        // h' = (1 - z) ⊙ n + z ⊙ h
        let zh = tape.mul(z, h);
        let zn = tape.mul(z, n);
        let n_minus_zn = tape.sub(n, zn);
        tape.add(n_minus_zn, zh)
    }
}

/// An LSTM cell.
#[derive(Debug, Clone)]
pub struct LstmCell {
    i: Gate,
    f: Gate,
    o: Gate,
    g: Gate,
    /// Input dimension.
    pub in_dim: usize,
    /// Hidden dimension.
    pub hidden: usize,
}

impl LstmCell {
    /// Registers LSTM parameters (forget-gate bias initialised to 1).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let gates = [("i", 0.0), ("f", 1.0), ("o", 0.0), ("g", 0.0)];
        let [i, f, o, g] = register_gates(store, name, in_dim, hidden, gates, rng);
        LstmCell {
            i,
            f,
            o,
            g,
            in_dim,
            hidden,
        }
    }

    /// One step: returns `(h', c')`.
    pub fn step(&self, f: &mut Fwd<TapeExec>, x: Var, h: Var, c: Var) -> (Var, Var) {
        let i_pre = gate(f, self.i, x, h);
        let i = f.exec.tape.sigmoid(i_pre);
        let fg_pre = gate(f, self.f, x, h);
        let fg = f.exec.tape.sigmoid(fg_pre);
        let o_pre = gate(f, self.o, x, h);
        let o = f.exec.tape.sigmoid(o_pre);
        let g_pre = gate(f, self.g, x, h);
        let tape = &mut f.exec.tape;
        let g = tape.tanh_op(g_pre);
        let fc = tape.mul(fg, c);
        let ig = tape.mul(i, g);
        let c_new = tape.add(fc, ig);
        let tc = tape.tanh_op(c_new);
        let h_new = tape.mul(o, tc);
        (h_new, c_new)
    }
}

/// Runs an RNN cell over a `(B, L, in_dim)` sequence with per-element valid
/// lengths, freezing each element's state once its sequence ends.
///
/// Returns `(all_states (B, L, hidden), final_state (B, hidden))`.
pub fn run_gru(f: &mut Fwd<TapeExec>, cell: &GruCell, xs: Var, lens: &[usize]) -> (Var, Var) {
    let shape = f.exec.tape.shape(xs);
    assert_eq!(shape.rank(), 3, "run_gru expects (B, L, D)");
    let (b, l, _) = (shape[0], shape[1], shape[2]);
    assert_eq!(lens.len(), b);
    let mut h = f.exec.tape.input(Tensor::zeros(Shape::d2(b, cell.hidden)));
    let mut states = Vec::with_capacity(l);
    for t in 0..l {
        let x_t = f.exec.tape.select_time(xs, t);
        let h_new = cell.step(f, x_t, h);
        h = freeze_finished(f, h_new, h, lens, t, cell.hidden);
        states.push(h);
    }
    let all = f.exec.tape.stack_time(&states);
    (all, h)
}

/// Runs an LSTM over a sequence the same way as [`run_gru`].
pub fn run_lstm(f: &mut Fwd<TapeExec>, cell: &LstmCell, xs: Var, lens: &[usize]) -> (Var, Var) {
    let shape = f.exec.tape.shape(xs);
    assert_eq!(shape.rank(), 3, "run_lstm expects (B, L, D)");
    let (b, l, _) = (shape[0], shape[1], shape[2]);
    assert_eq!(lens.len(), b);
    let mut h = f.exec.tape.input(Tensor::zeros(Shape::d2(b, cell.hidden)));
    let mut c = f.exec.tape.input(Tensor::zeros(Shape::d2(b, cell.hidden)));
    let mut states = Vec::with_capacity(l);
    for t in 0..l {
        let x_t = f.exec.tape.select_time(xs, t);
        let (h_new, c_new) = cell.step(f, x_t, h, c);
        h = freeze_finished(f, h_new, h, lens, t, cell.hidden);
        c = freeze_finished(f, c_new, c, lens, t, cell.hidden);
        states.push(h);
    }
    let all = f.exec.tape.stack_time(&states);
    (all, h)
}

/// `new` where `t < len[b]`, otherwise `old` (keeps finished sequences
/// frozen at their last valid state).
fn freeze_finished(
    f: &mut Fwd<TapeExec>,
    new: Var,
    old: Var,
    lens: &[usize],
    t: usize,
    hidden: usize,
) -> Var {
    if lens.iter().all(|&len| t < len) {
        return new;
    }
    let b = lens.len();
    let mut mask = Tensor::zeros(Shape::d2(b, hidden));
    for (bi, &len) in lens.iter().enumerate() {
        if t < len {
            mask.data_mut()[bi * hidden..(bi + 1) * hidden].fill(1.0);
        }
    }
    let inv_mask = mask.map(|v| 1.0 - v);
    let m = f.exec.tape.input(mask);
    let im = f.exec.tape.input(inv_mask);
    let keep_new = f.exec.tape.mul(new, m);
    let keep_old = f.exec.tape.mul(old, im);
    f.exec.tape.add(keep_new, keep_old)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn gru_step_shape_and_bounded() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let cell = GruCell::new(&mut store, "gru", 4, 6, &mut rng);
        let mut exec = TapeExec::new(&mut rng, false);
        let mut f = Fwd::new(&mut exec, &store);
        let x = f.exec.tape.input(Tensor::randn(
            Shape::d2(3, 4),
            0.0,
            1.0,
            &mut StdRng::seed_from_u64(1),
        ));
        let h = f.exec.tape.input(Tensor::zeros(Shape::d2(3, 6)));
        let h2 = cell.step(&mut f, x, h);
        assert_eq!(exec.tape.shape(h2), Shape::d2(3, 6));
        // GRU state from zero init is a convex-ish mix of tanh outputs: bounded.
        assert!(exec.tape.value(h2).max_abs() <= 1.0 + 1e-5);
    }

    #[test]
    fn gate_parameters_keep_their_names_and_registration_order() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        GruCell::new(&mut store, "g", 2, 3, &mut rng);
        LstmCell::new(&mut store, "l", 2, 3, &mut rng);
        let names: Vec<&str> = store.ids().map(|id| store.name(id)).collect();
        let want = "g.wz g.uz g.wr g.ur g.wh g.uh g.bz g.br g.bh \
                    l.wi l.ui l.wf l.uf l.wo l.uo l.wg l.ug l.bi l.bf l.bo l.bg";
        assert_eq!(names, want.split_whitespace().collect::<Vec<_>>());
        // Only the LSTM forget gate starts open.
        for id in store
            .ids()
            .filter(|&id| store.name(id)[2..].starts_with('b'))
        {
            let init = if store.name(id) == "l.bf" { 1.0 } else { 0.0 };
            assert!(store.value(id).data().iter().all(|&v| v == init));
        }
    }

    #[test]
    fn lstm_step_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "lstm", 4, 5, &mut rng);
        let mut exec = TapeExec::new(&mut rng, false);
        let mut f = Fwd::new(&mut exec, &store);
        let x = f.exec.tape.input(Tensor::randn(
            Shape::d2(2, 4),
            0.0,
            1.0,
            &mut StdRng::seed_from_u64(3),
        ));
        let h = f.exec.tape.input(Tensor::zeros(Shape::d2(2, 5)));
        let c = f.exec.tape.input(Tensor::zeros(Shape::d2(2, 5)));
        let (h2, c2) = cell.step(&mut f, x, h, c);
        assert_eq!(exec.tape.shape(h2), Shape::d2(2, 5));
        assert_eq!(exec.tape.shape(c2), Shape::d2(2, 5));
    }

    #[test]
    fn run_gru_freezes_short_sequences() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let cell = GruCell::new(&mut store, "gru", 3, 4, &mut rng);
        let mut exec = TapeExec::new(&mut rng, false);
        let mut f = Fwd::new(&mut exec, &store);
        let xs = f.exec.tape.input(Tensor::randn(
            Shape::d3(2, 5, 3),
            0.0,
            1.0,
            &mut StdRng::seed_from_u64(5),
        ));
        let (all, fin) = run_gru(&mut f, &cell, xs, &[2, 5]);
        assert_eq!(exec.tape.shape(all), Shape::d3(2, 5, 4));
        assert_eq!(exec.tape.shape(fin), Shape::d2(2, 4));
        // Element 0 (len 2): states at t >= 1 must all equal the state at t=1.
        let a = exec.tape.value(all);
        for t in 2..5 {
            for d in 0..4 {
                assert!(
                    (a.at3(0, t, d) - a.at3(0, 1, d)).abs() < 1e-6,
                    "finished sequence state changed at t={t}"
                );
            }
        }
        // Final state equals last row of all-states.
        let fv = exec.tape.value(fin);
        for d in 0..4 {
            assert!((fv.at2(0, d) - a.at3(0, 1, d)).abs() < 1e-6);
            assert!((fv.at2(1, d) - a.at3(1, 4, d)).abs() < 1e-6);
        }
    }

    #[test]
    fn rnn_gradients_flow_through_time() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let cell = GruCell::new(&mut store, "gru", 3, 4, &mut rng);
        let mut exec = TapeExec::new(&mut rng, true);
        let mut f = Fwd::new(&mut exec, &store);
        let xs = f.exec.tape.input(Tensor::randn(
            Shape::d3(2, 4, 3),
            0.0,
            1.0,
            &mut StdRng::seed_from_u64(7),
        ));
        let (_, fin) = run_gru(&mut f, &cell, xs, &[4, 4]);
        let loss = exec.tape.mean_all(fin);
        let grads = exec.tape.backward(loss);
        store.accumulate(grads.into_param_grads(&exec.tape));
        assert!(store.grad_norm() > 0.0);
    }
}
