//! Optimizers and learning-rate schedules.

use crate::store::ParamStore;

/// Plain stochastic gradient descent.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// New SGD optimizer.
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }

    /// Applies one descent step using the store's accumulated gradients,
    /// then clears them.
    pub fn step(&mut self, store: &mut ParamStore) {
        for id in 0..store.len() {
            let lr = self.lr;
            let (value, grad, _, _) = store.adam_state_mut(id);
            let g = grad.clone();
            value.add_assign_scaled(&g, -lr);
        }
        store.zero_grads();
    }
}

/// Adam (Kingma & Ba) with bias correction — the optimizer TrajCL trains
/// with (§V-A).
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u32,
}

impl Adam {
    /// Adam with the standard betas `(0.9, 0.999)`.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
        }
    }

    /// Applies one Adam step using the store's accumulated gradients, then
    /// clears them.
    pub fn step(&mut self, store: &mut ParamStore) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for id in 0..store.len() {
            let (value, grad, m, v) = store.adam_state_mut(id);
            let (b1, b2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);
            let gd = grad.data();
            let md = m.data_mut();
            let vd = v.data_mut();
            let wd = value.data_mut();
            for i in 0..gd.len() {
                let g = gd[i];
                md[i] = b1 * md[i] + (1.0 - b1) * g;
                vd[i] = b2 * vd[i] + (1.0 - b2) * g * g;
                let mhat = md[i] / bc1;
                let vhat = vd[i] / bc2;
                wd[i] -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
        store.zero_grads();
    }
}

/// Step-decay schedule: the paper halves the learning rate every 5 epochs
/// from an initial 1e-3.
#[derive(Debug, Clone)]
pub struct StepDecay {
    initial: f32,
    every: u32,
    factor: f32,
}

impl StepDecay {
    /// `factor`-decay every `every` epochs starting from `initial`.
    pub fn new(initial: f32, every: u32, factor: f32) -> Self {
        assert!(every > 0, "decay interval must be positive");
        StepDecay {
            initial,
            every,
            factor,
        }
    }

    /// TrajCL's published schedule: 1e-3 halved every 5 epochs.
    pub fn trajcl_default() -> Self {
        StepDecay::new(1e-3, 5, 0.5)
    }

    /// Learning rate for a zero-based `epoch`.
    pub fn lr_at(&self, epoch: u32) -> f32 {
        self.initial * self.factor.powi((epoch / self.every) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajcl_tensor::{Shape, Tape, Tensor};

    /// Minimise ||w - target||^2 and check convergence.
    fn train_quadratic(optimizer: &mut dyn FnMut(&mut ParamStore)) -> f32 {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(vec![5.0, -3.0], Shape::d1(2)));
        let target = Tensor::from_vec(vec![1.0, 2.0], Shape::d1(2));
        for _ in 0..400 {
            let mut tape = Tape::new();
            let w = tape.param(store.value(id).clone(), 0);
            let t = tape.input(target.clone());
            let diff = tape.sub(w, t);
            let sq = tape.mul(diff, diff);
            let loss = tape.mean_all(sq);
            let grads = tape.backward(loss);
            store.accumulate(grads.into_param_grads(&tape));
            optimizer(&mut store);
        }
        let w = store.value(id);
        let d0 = w.data()[0] - 1.0;
        let d1 = w.data()[1] - 2.0;
        (d0 * d0 + d1 * d1).sqrt()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut sgd = Sgd::new(0.1);
        let err = train_quadratic(&mut |s| sgd.step(s));
        assert!(err < 1e-3, "SGD failed to converge: err={err}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(0.05);
        let err = train_quadratic(&mut |s| adam.step(s));
        assert!(err < 1e-2, "Adam failed to converge: err={err}");
    }

    #[test]
    fn adam_clears_grads_after_step() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::scalar(1.0));
        let mut tape = Tape::new();
        let w = tape.param(store.value(id).clone(), 0);
        let loss = tape.sum_all(w);
        let grads = tape.backward(loss);
        store.accumulate(grads.into_param_grads(&tape));
        let mut adam = Adam::new(0.01);
        adam.step(&mut store);
        assert_eq!(store.grad(id).data()[0], 0.0);
    }

    #[test]
    fn step_decay_schedule_matches_paper() {
        let s = StepDecay::trajcl_default();
        assert!((s.lr_at(0) - 1e-3).abs() < 1e-9);
        assert!((s.lr_at(4) - 1e-3).abs() < 1e-9);
        assert!((s.lr_at(5) - 5e-4).abs() < 1e-9);
        assert!((s.lr_at(10) - 2.5e-4).abs() < 1e-9);
    }
}
