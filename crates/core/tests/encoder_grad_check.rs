//! Finite-difference check of the wiring of the one encoder `forward` as
//! the tape executor records it: every parameter of every variant —
//! DualMSM's fusion weight γ included — on a padded batch at tiny
//! dimensions. `tensor/tests/grad_check.rs` validates each tape op alone;
//! this validates the graph the executor assembles from them.

use rand::rngs::StdRng;
use rand::SeedableRng;
use trajcl_core::{BatchInputs, DualStbEncoder, EncoderVariant, Featurizer};
use trajcl_geo::{Bbox, Grid, Point, SpatialNorm, Trajectory};
use trajcl_nn::{Fwd, ParamStore};
use trajcl_tensor::{Shape, TapeExec, Tensor};

const DIM: usize = 8;
/// Smaller than the per-op checks' step: two stacked layers of softmax and
/// width-8 layer norm curve hard enough that a 1e-2 central difference is
/// off by several percent (it converges on the tape gradient as the step
/// shrinks).
const EPS: f32 = 5e-4;
const TOL: f32 = 2e-2;

fn padded_batch(rng: &mut StdRng) -> BatchInputs {
    let region = Bbox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
    let grid = Grid::new(region, 100.0);
    let table = Tensor::randn(Shape::d2(grid.num_cells(), DIM), 0.0, 0.5, rng);
    let feat = Featurizer::new(grid, table, SpatialNorm::new(region, 100.0), 16);
    let traj = |n: usize, y: f64| -> Trajectory {
        (0..n)
            .map(|i| Point::new(40.0 + i as f64 * 130.0, y + (i % 3) as f64 * 60.0))
            .collect()
    };
    feat.featurize(&[traj(3, 150.0), traj(6, 700.0)])
        .expect("featurize")
}

/// Scalar loss `Σ h ⊙ R` through a fixed random projection, so no
/// embedding coordinate's gradient can hide behind another's. Returns the
/// executor too, for the backward sweep.
fn loss<'r>(
    enc: &DualStbEncoder,
    store: &ParamStore,
    batch: &BatchInputs,
    proj: &Tensor,
    rng: &'r mut StdRng,
) -> (TapeExec<'r>, trajcl_tensor::Var) {
    let mut exec = TapeExec::new(rng, false);
    let h = enc.forward(&mut Fwd::new(&mut exec, store), batch);
    let w = exec.tape.input(proj.clone());
    let prod = exec.tape.mul(h, w);
    let loss = exec.tape.sum_all(prod);
    (exec, loss)
}

#[test]
fn tape_gradients_match_finite_differences_for_every_variant() {
    for variant in [
        EncoderVariant::Dual,
        EncoderVariant::VanillaMsm,
        EncoderVariant::Concat,
    ] {
        let mut rng = StdRng::seed_from_u64(11);
        let batch = padded_batch(&mut rng);
        assert_ne!(batch.lens[0], batch.lens[1], "batch must be padded");
        let mut store = ParamStore::new();
        let enc = DualStbEncoder::new(&mut store, "enc", variant, DIM, 2, 2, 16, 0.0, &mut rng);
        let proj = Tensor::randn(Shape::d2(2, DIM), 0.0, 1.0, &mut rng);

        let (exec, l) = loss(&enc, &store, &batch, &proj, &mut rng);
        let grads = exec.tape.backward(l);
        store.accumulate(grads.into_param_grads(&exec.tape));

        let eval = |store: &ParamStore, rng: &mut StdRng| -> f32 {
            let (exec, l) = loss(&enc, store, &batch, &proj, rng);
            exec.tape.value(l).data()[0]
        };
        let mut probe = store.clone();
        let mut gamma_checked = false;
        for id in store.ids() {
            let name = store.name(id).to_string();
            for i in 0..store.value(id).numel() {
                let orig = store.value(id).data()[i];
                probe.value_mut(id).data_mut()[i] = orig + EPS;
                let up = eval(&probe, &mut rng);
                probe.value_mut(id).data_mut()[i] = orig - EPS;
                let down = eval(&probe, &mut rng);
                probe.value_mut(id).data_mut()[i] = orig;
                let numeric = (up - down) / (2.0 * EPS);
                let analytic = store.grad(id).data()[i];
                let denom = 1.0f32.max(analytic.abs()).max(numeric.abs());
                assert!(
                    (analytic - numeric).abs() / denom <= TOL,
                    "{}: {name}[{i}] analytic={analytic}, numeric={numeric}",
                    variant.name()
                );
                if name.ends_with(".gamma") && !name.contains(".ln") {
                    assert!(analytic != 0.0, "γ must receive gradient");
                    gamma_checked = true;
                }
            }
        }
        assert_eq!(gamma_checked, variant == EncoderVariant::Dual);
    }
}
