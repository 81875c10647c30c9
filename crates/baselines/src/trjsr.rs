//! TrjSR \[12\]: trajectory similarity via single-image super-resolution.
//!
//! TrjSR rasterises each trajectory into an image and trains a CNN with a
//! super-resolution objective; the CNN features become the embedding. We
//! reproduce the pipeline with a same-resolution variant of the SR task:
//! the input image is rendered from a *down-sampled* view of the
//! trajectory (sparse dots) and the CNN must reconstruct the *full*
//! trajectory's rasterisation (the dense path) — i.e. recover fine detail
//! the sparse image lost, which is exactly the super-resolution signal the
//! original exploits (DESIGN.md §4 records this substitution).

use crate::common::TrajectoryEncoder;
use rand::Rng;
use trajcl_data::downsample;
use trajcl_geo::{Bbox, Trajectory};
use trajcl_nn::{Adam, Conv2d, Fwd, Linear, ParamStore};
use trajcl_tensor::{Shape, TapeExec, Tensor, Var};

/// Rasterises trajectories into single-channel `res × res` images over a
/// fixed region.
#[derive(Debug, Clone)]
pub struct Rasterizer {
    region: Bbox,
    /// Image side length in pixels.
    pub res: usize,
}

impl Rasterizer {
    /// New rasterizer for `region` at `res × res` pixels.
    pub fn new(region: Bbox, res: usize) -> Self {
        assert!(res >= 4, "resolution too small");
        Rasterizer { region, res }
    }

    /// Renders one trajectory: each point brightens its pixel; segments
    /// are densified so the path is continuous at the image scale.
    pub fn render(&self, traj: &Trajectory) -> Vec<f32> {
        let mut img = vec![0.0f32; self.res * self.res];
        let (w, h) = (
            self.region.width().max(1e-9),
            self.region.height().max(1e-9),
        );
        let mut plot = |x: f64, y: f64| {
            let px = (((x - self.region.min.x) / w) * self.res as f64)
                .clamp(0.0, self.res as f64 - 1.0) as usize;
            let py = (((y - self.region.min.y) / h) * self.res as f64)
                .clamp(0.0, self.res as f64 - 1.0) as usize;
            img[py * self.res + px] = 1.0;
        };
        for p in traj.points() {
            plot(p.x, p.y);
        }
        // Densify long segments so the rendered path is connected.
        let pix_w = w / self.res as f64;
        for (a, b) in traj.segments() {
            let steps = (a.dist(&b) / pix_w).ceil() as usize;
            for s in 1..steps {
                let t = s as f64 / steps as f64;
                let p = a.lerp(&b, t);
                plot(p.x, p.y);
            }
        }
        img
    }

    /// Renders a batch into an NCHW tensor `(B, 1, res, res)`.
    pub fn render_batch(&self, trajs: &[Trajectory]) -> Tensor {
        let mut data = Vec::with_capacity(trajs.len() * self.res * self.res);
        for t in trajs {
            data.extend(self.render(t));
        }
        Tensor::from_vec(data, Shape::d4(trajs.len(), 1, self.res, self.res))
    }
}

/// TrjSR model: encoder CNN (embedding) + reconstruction CNN (training
/// signal only).
pub struct TrjSr {
    store: ParamStore,
    conv1: Conv2d,
    conv2: Conv2d,
    conv3: Conv2d,
    recon: Conv2d,
    emb_proj: Linear,
    raster: Rasterizer,
    dim: usize,
    channels: usize,
}

/// TrjSR training configuration.
#[derive(Debug, Clone)]
pub struct TrjSrConfig {
    /// Embedding width.
    pub dim: usize,
    /// Image resolution.
    pub res: usize,
    /// Epochs.
    pub epochs: usize,
    /// Batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Down-sampling rate producing the degraded input view.
    pub corrupt_rate: f64,
}

impl Default for TrjSrConfig {
    fn default() -> Self {
        TrjSrConfig {
            dim: 32,
            res: 24,
            epochs: 3,
            batch_size: 16,
            lr: 1e-3,
            corrupt_rate: 0.5,
        }
    }
}

impl TrjSr {
    /// Builds an untrained TrjSR over `region`.
    pub fn new(region: Bbox, cfg: &TrjSrConfig, rng: &mut impl Rng) -> Self {
        let mut store = ParamStore::new();
        let ch = 8;
        let conv1 = Conv2d::new(&mut store, "trjsr.conv1", 1, ch, 3, 1, 1, rng);
        let conv2 = Conv2d::new(&mut store, "trjsr.conv2", ch, ch, 3, 1, 1, rng);
        let conv3 = Conv2d::new(&mut store, "trjsr.conv3", ch, ch, 3, 1, 1, rng);
        let recon = Conv2d::new(&mut store, "trjsr.recon", ch, 1, 3, 1, 1, rng);
        let emb_proj = Linear::new(&mut store, "trjsr.emb", ch, cfg.dim, rng);
        TrjSr {
            store,
            conv1,
            conv2,
            conv3,
            recon,
            emb_proj,
            raster: Rasterizer::new(region, cfg.res),
            dim: cfg.dim,
            channels: ch,
        }
    }

    /// The rasterizer in use.
    pub fn rasterizer(&self) -> &Rasterizer {
        &self.raster
    }

    fn features(&self, f: &mut Fwd<TapeExec>, images: Tensor) -> Var {
        let x = f.exec.tape.input(images);
        let c1 = self.conv1.forward(f, x);
        let c1 = f.exec.tape.relu(c1);
        let c2 = self.conv2.forward(f, c1);
        let c2 = f.exec.tape.relu(c2);
        let c3 = self.conv3.forward(f, c2);
        f.exec.tape.relu(c3)
    }

    /// One SR-style training step; returns the reconstruction MSE.
    pub fn train_step(
        &mut self,
        trajs: &[Trajectory],
        opt: &mut Adam,
        cfg: &TrjSrConfig,
        rng: &mut impl Rng,
    ) -> f32 {
        let degraded: Vec<Trajectory> = trajs
            .iter()
            .map(|t| downsample(t, cfg.corrupt_rate, rng))
            .collect();
        let input = self.raster.render_batch(&degraded);
        let target = self.raster.render_batch(trajs);
        let mut exec = TapeExec::new(rng, true);
        let loss_val;
        {
            let mut f = Fwd::new(&mut exec, &self.store);
            let feats = self.features(&mut f, input);
            let pred = self.recon.forward(&mut f, feats);
            let tgt = f.exec.tape.input(target);
            let diff = f.exec.tape.sub(pred, tgt);
            let sq = f.exec.tape.mul(diff, diff);
            let loss = f.exec.tape.mean_all(sq);
            loss_val = f.exec.tape.value(loss).data()[0];
            let grads = f.exec.tape.backward(loss);
            self.store.accumulate(grads.into_param_grads(&f.exec.tape));
        }
        self.store.clip_grad_norm(5.0);
        opt.step(&mut self.store);
        loss_val
    }

    /// Trains for `cfg.epochs`; returns per-epoch mean losses.
    pub fn train(
        &mut self,
        pool: &[Trajectory],
        cfg: &TrjSrConfig,
        rng: &mut impl Rng,
    ) -> Vec<f32> {
        let mut opt = Adam::new(cfg.lr);
        let mut losses = Vec::new();
        for _ in 0..cfg.epochs {
            let mut total = 0.0;
            let mut n = 0;
            for chunk in pool.chunks(cfg.batch_size) {
                if chunk.is_empty() {
                    continue;
                }
                total += self.train_step(chunk, &mut opt, cfg, rng);
                n += 1;
            }
            losses.push(total / n.max(1) as f32);
        }
        losses
    }
}

impl TrajectoryEncoder for TrjSr {
    fn name(&self) -> &'static str {
        "TrjSR"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn batch_size(&self) -> usize {
        16
    }

    fn encode_on_tape(&self, f: &mut Fwd<TapeExec>, trajs: &[Trajectory]) -> Var {
        let images = self.raster.render_batch(trajs);
        let feats = self.features(f, images);
        let pooled = f.exec.tape.avg_pool2d_global(feats); // (B, ch)
        debug_assert_eq!(f.exec.tape.shape(pooled).last(), self.channels);
        self.emb_proj.forward(f, &pooled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use trajcl_geo::Point;

    fn setup() -> (TrjSr, Vec<Trajectory>, StdRng) {
        let mut rng = StdRng::seed_from_u64(2);
        let region = Bbox::new(Point::new(0.0, 0.0), Point::new(2000.0, 2000.0));
        let cfg = TrjSrConfig {
            dim: 16,
            res: 16,
            ..Default::default()
        };
        let model = TrjSr::new(region, &cfg, &mut rng);
        use rand::Rng as _;
        let pool: Vec<Trajectory> = (0..10)
            .map(|_| {
                let y = rng.gen_range(100.0..1900.0);
                (0..15).map(|i| Point::new(i as f64 * 130.0, y)).collect()
            })
            .collect();
        (model, pool, rng)
    }

    #[test]
    fn rasterizer_marks_path_pixels() {
        let region = Bbox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        let r = Rasterizer::new(region, 10);
        let t: Trajectory = vec![Point::new(5.0, 5.0), Point::new(95.0, 5.0)]
            .into_iter()
            .collect();
        let img = r.render(&t);
        // The bottom row should be fully lit (densified segment).
        let lit: usize = img[..10].iter().filter(|&&v| v > 0.0).count();
        assert!(lit == 10, "expected a continuous line, lit {lit}/10");
        // Upper rows untouched.
        assert!(img[50..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn training_reduces_sr_loss() {
        let (mut model, pool, mut rng) = setup();
        let cfg = TrjSrConfig {
            dim: 16,
            res: 16,
            epochs: 3,
            batch_size: 5,
            ..Default::default()
        };
        let losses = model.train(&pool, &cfg, &mut rng);
        assert!(losses.iter().all(|l| l.is_finite()));
        assert!(losses[2] < losses[0], "SR loss should drop: {losses:?}");
    }

    #[test]
    fn embedding_shape() {
        let (model, pool, mut rng) = setup();
        let e = model.embed(&pool[..3], &mut rng);
        assert_eq!(e.shape(), Shape::d2(3, 16));
        assert!(e.all_finite());
    }
}
