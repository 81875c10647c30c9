//! Recurrent cells (GRU / LSTM) for the t2vec, E2DTC, T3S and Traj2SimVec
//! baselines.
//!
//! Sequences are processed step by step on any [`Exec`]; variable lengths
//! are handled with per-step update masks so the final hidden state of each
//! batch element is the state at its own last valid position (matching how
//! packed sequences behave in the original PyTorch baselines).

use crate::init;
use crate::modules::Fwd;
use crate::store::{ParamId, ParamStore};
use rand::Rng;
use trajcl_tensor::{Exec, Shape, Tensor};

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

/// One gate, `act(x·W + h·U + b)`, with `act` one of [`Exec::sigmoid`]
/// and [`Exec::tanh`].
fn gate<E: Exec>(
    f: &mut Fwd<E>,
    [w, u, b]: Gate,
    x: &E::Act,
    h: &E::Act,
    act: fn(&mut E, &E::Act) -> E::Act,
) -> E::Act {
    let xs = f.exec.linear(x, f.p(w), None);
    let hs = f.exec.linear(h, f.p(u), None);
    let s = f.exec.add(xs, &hs);
    f.exec.release(hs);
    let pre = f.exec.add_bias(s, f.p(b));
    let out = act(f.exec, &pre);
    f.exec.release(pre);
    out
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
    pub fn forward<E: Exec>(&self, f: &mut Fwd<E>, x: &E::Act, h: &E::Act) -> E::Act {
        let z = gate(f, self.z, x, h, E::sigmoid);
        let r = gate(f, self.r, x, h, E::sigmoid);
        let rh = f.exec.mul(&r, h);
        f.exec.release(r);
        let n = gate(f, self.h, x, &rh, E::tanh);
        f.exec.release(rh);
        // h' = (1 - z) ⊙ n + z ⊙ h
        let zh = f.exec.mul(&z, h);
        let zn = f.exec.mul(&z, &n);
        f.exec.release(z);
        let n_minus_zn = f.exec.sub(n, &zn);
        f.exec.release(zn);
        let out = f.exec.add(n_minus_zn, &zh);
        f.exec.release(zh);
        out
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
    pub fn forward<E: Exec>(
        &self,
        f: &mut Fwd<E>,
        x: &E::Act,
        h: &E::Act,
        c: &E::Act,
    ) -> (E::Act, E::Act) {
        let i = gate(f, self.i, x, h, E::sigmoid);
        let fg = gate(f, self.f, x, h, E::sigmoid);
        let o = gate(f, self.o, x, h, E::sigmoid);
        let g = gate(f, self.g, x, h, E::tanh);
        let fc = f.exec.mul(&fg, c);
        let ig = f.exec.mul(&i, &g);
        let c_new = f.exec.add(fc, &ig);
        let tc = f.exec.tanh(&c_new);
        let h_new = f.exec.mul(&o, &tc);
        for t in [i, fg, o, g, ig, tc] {
            f.exec.release(t);
        }
        (h_new, c_new)
    }
}

/// Runs a GRU over a `(B, L, in_dim)` sequence with per-element valid
/// lengths (`L` the longest), freezing each element's state once its
/// sequence ends; returns the final states `(B, hidden)`.
pub fn run_gru<E: Exec>(f: &mut Fwd<E>, cell: &GruCell, xs: &E::Act, lens: &[usize]) -> E::Act {
    let mut h = f
        .exec
        .input(&Tensor::zeros(Shape::d2(lens.len(), cell.hidden)));
    for t in 0..lens.iter().copied().max().unwrap_or(0) {
        let x_t = f.exec.select_time(xs, t);
        let h_new = cell.forward(f, &x_t, &h);
        f.exec.release(x_t);
        h = freeze_finished(f, h_new, h, lens, t, cell.hidden);
    }
    h
}

/// Runs an LSTM over a sequence the same way as [`run_gru`].
pub fn run_lstm<E: Exec>(f: &mut Fwd<E>, cell: &LstmCell, xs: &E::Act, lens: &[usize]) -> E::Act {
    let zeros = Tensor::zeros(Shape::d2(lens.len(), cell.hidden));
    let (mut h, mut c) = (f.exec.input(&zeros), f.exec.input(&zeros));
    for t in 0..lens.iter().copied().max().unwrap_or(0) {
        let x_t = f.exec.select_time(xs, t);
        let (h_new, c_new) = cell.forward(f, &x_t, &h, &c);
        f.exec.release(x_t);
        h = freeze_finished(f, h_new, h, lens, t, cell.hidden);
        c = freeze_finished(f, c_new, c, lens, t, cell.hidden);
    }
    f.exec.release(c);
    h
}

/// `new` where `t < len[b]`, otherwise `old` (keeps finished sequences
/// frozen at their last valid state).
fn freeze_finished<E: Exec>(
    f: &mut Fwd<E>,
    new: E::Act,
    old: E::Act,
    lens: &[usize],
    t: usize,
    hidden: usize,
) -> E::Act {
    if lens.iter().all(|&len| t < len) {
        f.exec.release(old);
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
    let m = f.exec.input(&mask);
    let im = f.exec.input(&inv_mask);
    let keep_new = f.exec.mul(&new, &m);
    let keep_old = f.exec.mul(&old, &im);
    let out = f.exec.add(keep_new, &keep_old);
    for t in [new, old, m, im, keep_old] {
        f.exec.release(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use trajcl_tensor::TapeExec;

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
        let h2 = cell.forward(&mut f, &x, &h);
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
        let (h2, c2) = cell.forward(&mut f, &x, &h, &c);
        assert_eq!(exec.tape.shape(h2), Shape::d2(2, 5));
        assert_eq!(exec.tape.shape(c2), Shape::d2(2, 5));
    }

    #[test]
    fn run_gru_freezes_short_sequences() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let cell = GruCell::new(&mut store, "gru", 3, 4, &mut rng);
        let xs = Tensor::randn(Shape::d3(2, 5, 3), 0.0, 1.0, &mut StdRng::seed_from_u64(5));
        let row0 = Tensor::from_vec(xs.data()[..15].to_vec(), Shape::d3(1, 5, 3));
        let mut exec = TapeExec::new(&mut rng, false);
        let mut f = Fwd::new(&mut exec, &store);
        let batch = f.exec.tape.input(xs);
        let fin = run_gru(&mut f, &cell, &batch, &[2, 5]);
        // Element 0 (len 2) stops where a run over that row alone stops.
        let alone = f.exec.tape.input(row0);
        let alone = run_gru(&mut f, &cell, &alone, &[2]);
        assert_eq!(exec.tape.shape(fin), Shape::d2(2, 4));
        let (fv, av) = (exec.tape.value(fin), exec.tape.value(alone));
        for d in 0..4 {
            assert!(
                (fv.at2(0, d) - av.at2(0, d)).abs() < 1e-6,
                "finished sequence state changed after its end"
            );
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
        let fin = run_gru(&mut f, &cell, &xs, &[4, 4]);
        let loss = exec.tape.mean_all(fin);
        let grads = exec.tape.backward(loss);
        store.accumulate(grads.into_param_grads(&exec.tape));
        assert!(store.grad_norm() > 0.0);
    }
}
