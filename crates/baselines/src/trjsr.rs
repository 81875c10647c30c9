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

use crate::common::{epoch_mean, TrajectoryEncoder};
use rand::Rng;
use trajcl_data::downsample;
use trajcl_geo::{Bbox, Trajectory};
use trajcl_nn::{Adam, Conv2d, Fwd, Linear, ParamStore};
use trajcl_tensor::{Exec, Shape, TapeExec, Tensor};

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

    /// Renders a batch as one-channel pixel rows `(B, res·res, 1)`, each
    /// image row-major (the layout [`Conv2d`] reads).
    pub fn render_batch(&self, trajs: &[Trajectory]) -> Tensor {
        let mut data = Vec::with_capacity(trajs.len() * self.res * self.res);
        for t in trajs {
            data.extend(self.render(t));
        }
        Tensor::from_vec(data, Shape::d3(trajs.len(), self.res * self.res, 1))
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
        }
    }

    /// The rasterizer in use.
    pub fn rasterizer(&self) -> &Rasterizer {
        &self.raster
    }

    /// The encoder CNN over rendered images: three ReLU convolutions,
    /// `(B, res·res, channels)`.
    fn features<E: Exec>(&self, f: &mut Fwd<E>, images: &Tensor) -> E::Act {
        let res = self.raster.res;
        let mut x = f.exec.input(images);
        for conv in [&self.conv1, &self.conv2, &self.conv3] {
            let y = conv.forward(f, &x, res);
            f.exec.release(x);
            x = f.exec.relu(y);
        }
        x
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
            let feats = self.features(&mut f, &input);
            let pred = self.recon.forward(&mut f, &feats, self.raster.res);
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
        (0..cfg.epochs)
            .map(|_| {
                epoch_mean(pool, cfg.batch_size, 1, |chunk| {
                    self.train_step(chunk, &mut opt, cfg, rng)
                })
            })
            .collect()
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

    fn encode<E: Exec>(&self, f: &mut Fwd<E>, trajs: &[Trajectory]) -> E::Act {
        let feats = self.features(f, &self.raster.render_batch(trajs));
        // Global average pool over every pixel: (B, channels).
        let pixels = vec![self.raster.res * self.raster.res; trajs.len()];
        let pooled = f.exec.mean_pool_masked(&feats, &pixels);
        f.exec.release(feats);
        let out = self.emb_proj.forward(f, &pooled);
        f.exec.release(pooled);
        out
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
        let (model, pool, _) = setup();
        let e = model.embed(&pool[..3]);
        assert_eq!(e.shape(), Shape::d2(3, 16));
        assert!(e.all_finite());
    }
}
