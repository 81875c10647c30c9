//! Model persistence: save a trained TrajCL encoder together with its
//! featurizer (grid geometry + node2vec cell table) so it can be reloaded
//! for inference, fine-tuning or serving without retraining.
//!
//! Format (little-endian, versioned):
//! `magic "TCL1" | config | region | cell side | max len | cell table |
//!  ParamStore bytes` — everything needed to rebuild
//! `(TrajClModel, Featurizer)` exactly.

// A codec module (DESIGN.md §11.2): no cast in its non-test code may
// truncate, wrap, drop a sign or round.
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )
)]

use crate::config::TrajClConfig;
use crate::encoder::EncoderVariant;
use crate::featurizer::Featurizer;
use crate::model::TrajClModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use trajcl_geo::{Bbox, Grid, Point, SpatialNorm};
use trajcl_nn::ParamStore;
use trajcl_tensor::{Shape, Tensor};

const MAGIC: &[u8; 4] = b"TCL1";

/// Errors from loading a persisted model.
#[derive(Debug, PartialEq, Eq)]
pub enum PersistError {
    /// Buffer too short or structurally invalid.
    Truncated,
    /// Magic/version mismatch.
    BadMagic,
    /// Parameter store failed to decode.
    BadStore,
    /// A decoded field is out of the range a valid save can produce
    /// (hostile or bit-rotted bytes; the payload names the field).
    Invalid(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Truncated => write!(f, "model file truncated or corrupt"),
            PersistError::BadMagic => write!(f, "not a TrajCL model file"),
            PersistError::BadStore => write!(f, "parameter store failed to decode"),
            PersistError::Invalid(field) => write!(f, "model file field out of range: {field}"),
        }
    }
}

impl std::error::Error for PersistError {}

struct Writer(Vec<u8>);

impl Writer {
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
}

struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], PersistError> {
        if self.0.len() < n {
            return Err(PersistError::Truncated);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }
    fn u32(&mut self) -> Result<u32, PersistError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn f32(&mut self) -> Result<f32, PersistError> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn f64(&mut self) -> Result<f64, PersistError> {
        let b = self.take(8)?;
        Ok(f64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

fn variant_code(v: EncoderVariant) -> u32 {
    match v {
        EncoderVariant::Dual => 0,
        EncoderVariant::VanillaMsm => 1,
        EncoderVariant::Concat => 2,
    }
}

fn variant_from(code: u32) -> Result<EncoderVariant, PersistError> {
    match code {
        0 => Ok(EncoderVariant::Dual),
        1 => Ok(EncoderVariant::VanillaMsm),
        2 => Ok(EncoderVariant::Concat),
        _ => Err(PersistError::Invalid("encoder variant")),
    }
}

/// Serialises a trained model plus its featurizer.
pub fn save_model(model: &TrajClModel, featurizer: &Featurizer, cell_side: f64) -> Vec<u8> {
    let mut w = Writer(Vec::new());
    w.0.extend_from_slice(MAGIC);
    // Config.
    let c = &model.cfg;
    for v in [
        c.dim,
        c.heads,
        c.layers,
        c.ffn_hidden,
        c.proj_dim,
        c.max_len,
        c.queue_size,
        c.batch_size,
        c.max_epochs,
        c.patience,
    ] {
        #[expect(clippy::cast_possible_truncation, reason = "config fields are small")]
        w.u32(v as u32);
    }
    w.f32(c.dropout);
    w.f32(c.temperature);
    w.f32(c.momentum);
    w.u32(variant_code(model.encoder.variant()));
    // Featurizer geometry: grid origin is the region min; region extent is
    // recoverable from the grid dims.
    let grid = featurizer.grid();
    let origin = grid.center(0);
    let min = Point::new(origin.x - cell_side / 2.0, origin.y - cell_side / 2.0);
    w.f64(min.x);
    w.f64(min.y);
    w.f64(cell_side);
    #[expect(clippy::cast_possible_truncation, reason = "a grid side fits u32")]
    w.u32(grid.cols() as u32);
    #[expect(clippy::cast_possible_truncation, reason = "a grid side fits u32")]
    w.u32(grid.rows() as u32);
    #[expect(clippy::cast_possible_truncation, reason = "a config field is small")]
    w.u32(featurizer.max_len() as u32);
    // Cell-embedding table.
    let table = featurizer.cell_table();
    #[expect(clippy::cast_possible_truncation, reason = "one row per grid cell")]
    w.u32(table.shape()[0] as u32);
    #[expect(clippy::cast_possible_truncation, reason = "the width is the dim")]
    w.u32(table.shape()[1] as u32);
    for &v in table.data() {
        w.f32(v);
    }
    // Parameters.
    let store_bytes = model.store.to_bytes();
    #[expect(clippy::cast_possible_truncation, reason = "a store is < 4 GiB")]
    w.u32(store_bytes.len() as u32);
    w.0.extend_from_slice(&store_bytes);
    w.0
}

/// Largest value any architecture/featurizer count field may carry; far
/// above anything a real training run produces, low enough that a single
/// corrupt field cannot drive a pathological allocation or loop.
const MAX_CFG_FIELD: usize = 1 << 24;

/// Largest accepted grid (`cols * rows`); the biggest shipped dataset
/// profile is a few million cells.
const MAX_GRID_CELLS: usize = 1 << 26;

/// Upper bound on the parameter count of the encoder+projection skeleton
/// a config describes (every term dominates the corresponding module's
/// real parameter count). Loading compares this against the serialized
/// store length — which IS bounded by the file's actual size — so a
/// corrupt config cannot make [`TrajClModel::new`] allocate orders of
/// magnitude more memory than the file plausibly carries.
fn skeleton_param_bound(cfg: &TrajClConfig) -> u128 {
    let d = cfg.dim as u128;
    let ffn = cfg.ffn_hidden as u128;
    let p = cfg.proj_dim as u128;
    let layers = cfg.layers as u128;
    // Dual layer: 4 temporal weights (4d²) + γ + a full vanilla layer
    // (attention 4d²+4d, two layer-norms 4d, FFN 2·d·ffn+ffn+d).
    let per_layer = 8 * d * d + 2 * d * ffn + ffn + 16 * d + 16;
    // Projections: spatial lift, optional concat fusion, MLP head.
    layers * per_layer + 4 * d * d + d * p + p + 16 * d + 64
}

/// Restores a model/featurizer pair from [`save_model`] output.
///
/// The bytes are untrusted (they arrive from disk or from an embedded
/// `TCE1` engine file): every decoded field is validated before it sizes
/// an allocation or reaches a constructor that asserts, so corrupt input
/// yields `Err`, never a panic.
pub fn load_model(bytes: &[u8]) -> Result<(TrajClModel, Featurizer), PersistError> {
    let mut r = Reader(bytes);
    if r.take(4)? != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let mut cfg = TrajClConfig::paper_default();
    cfg.dim = r.u32()? as usize;
    cfg.heads = r.u32()? as usize;
    cfg.layers = r.u32()? as usize;
    cfg.ffn_hidden = r.u32()? as usize;
    cfg.proj_dim = r.u32()? as usize;
    cfg.max_len = r.u32()? as usize;
    cfg.queue_size = r.u32()? as usize;
    cfg.batch_size = r.u32()? as usize;
    cfg.max_epochs = r.u32()? as usize;
    cfg.patience = r.u32()? as usize;
    cfg.dropout = r.f32()?;
    cfg.temperature = r.f32()?;
    cfg.momentum = r.f32()?;
    for (field, v) in [
        ("dim", cfg.dim),
        ("heads", cfg.heads),
        ("layers", cfg.layers),
        ("ffn_hidden", cfg.ffn_hidden),
        ("proj_dim", cfg.proj_dim),
        ("max_len", cfg.max_len),
        ("queue_size", cfg.queue_size),
        ("batch_size", cfg.batch_size),
        ("max_epochs", cfg.max_epochs),
        ("patience", cfg.patience),
    ] {
        if v > MAX_CFG_FIELD {
            return Err(PersistError::Invalid(field));
        }
    }
    if cfg.dim == 0 || cfg.heads == 0 || !cfg.dim.is_multiple_of(cfg.heads) {
        return Err(PersistError::Invalid("dim/heads"));
    }
    if !(cfg.dropout.is_finite() && cfg.temperature.is_finite() && cfg.momentum.is_finite()) {
        return Err(PersistError::Invalid("float config"));
    }
    let variant = variant_from(r.u32()?)?;
    let min_x = r.f64()?;
    let min_y = r.f64()?;
    let cell_side = r.f64()?;
    let cols = r.u32()?;
    let rows = r.u32()?;
    let max_len = r.u32()? as usize;
    // Grid geometry: `Grid::new` asserts on non-positive cell sides and
    // unbounded boxes, so reject those here instead of panicking.
    if !(cell_side.is_finite() && cell_side > 0.0) {
        return Err(PersistError::Invalid("cell side"));
    }
    if !(min_x.is_finite() && min_y.is_finite()) {
        return Err(PersistError::Invalid("grid origin"));
    }
    let cells = (cols as usize)
        .checked_mul(rows as usize)
        .ok_or(PersistError::Invalid("grid dims"))?;
    if cols == 0 || rows == 0 || cells > MAX_GRID_CELLS || max_len > MAX_CFG_FIELD {
        return Err(PersistError::Invalid("grid dims"));
    }
    let extent_x = f64::from(cols) * cell_side;
    let extent_y = f64::from(rows) * cell_side;
    if !((min_x + extent_x).is_finite() && (min_y + extent_y).is_finite()) {
        return Err(PersistError::Invalid("grid extent"));
    }
    let vocab = r.u32()? as usize;
    let dim = r.u32()? as usize;
    // The encoder consumes the featurizer's structural embeddings
    // directly, so the cell table's width must be the model width; a
    // mismatch would reach the first matmul as a shape panic.
    if dim != cfg.dim {
        return Err(PersistError::Invalid("cell table dim"));
    }
    let n = vocab.checked_mul(dim).ok_or(PersistError::Truncated)?;
    let n_bytes = n.checked_mul(4).ok_or(PersistError::Truncated)?;
    let raw = r.take(n_bytes)?;
    let mut data = Vec::with_capacity(n);
    for chunk in raw.chunks_exact(4) {
        data.push(f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
    }
    let table = Tensor::from_vec(data, Shape::d2(vocab, dim));
    let store_len = r.u32()? as usize;
    let store_bytes = r.take(store_len)?;
    // A valid store carries ≥ 4 bytes per parameter, so a config whose
    // skeleton outweighs the store describes a model this file cannot
    // hold — reject it BEFORE building the (potentially huge) skeleton.
    if skeleton_param_bound(&cfg) > store_len as u128 {
        return Err(PersistError::Invalid("architecture vs store size"));
    }
    let store = ParamStore::from_bytes(store_bytes).ok_or(PersistError::BadStore)?;

    let region = Bbox::new(
        Point::new(min_x, min_y),
        Point::new(min_x + extent_x, min_y + extent_y),
    );
    let grid = Grid::new(region, cell_side);
    // `Featurizer::new` asserts coverage; check it as a decode error.
    if vocab < grid.num_cells() {
        return Err(PersistError::Invalid("cell table vs grid"));
    }
    let norm = SpatialNorm::new(region, cell_side);
    let featurizer = Featurizer::new(grid, table, norm, max_len);

    // Rebuild the model skeleton (weights come from the decoded store —
    // the RNG only shapes throwaway initial values).
    let mut rng = StdRng::seed_from_u64(0);
    let mut model = TrajClModel::new(&cfg, variant, &mut rng);
    // The decoded store must match the skeleton slot for slot — names AND
    // shapes, not just count: a corrupt store with the right slot count
    // but resized tensors would otherwise poison every forward-pass
    // kernel (fuzz-found as OOB indexing and shape-assert panics).
    if !model.store.layout_matches(&store) {
        return Err(PersistError::BadStore);
    }
    model.store.copy_values_from(&store);
    Ok((model, featurizer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajcl_geo::Trajectory;

    fn setup() -> (TrajClModel, Featurizer, Vec<Trajectory>) {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = TrajClConfig::test_default();
        let region = Bbox::new(Point::new(0.0, 0.0), Point::new(1000.0, 800.0));
        let grid = Grid::new(region, 100.0);
        let table = Tensor::randn(Shape::d2(grid.num_cells(), cfg.dim), 0.0, 0.5, &mut rng);
        let feat = Featurizer::new(grid, table, SpatialNorm::new(region, 100.0), cfg.max_len);
        let model = TrajClModel::new(&cfg, EncoderVariant::Dual, &mut rng);
        let trajs: Vec<Trajectory> = (0..4)
            .map(|i| {
                (0..10)
                    .map(|j| Point::new(50.0 + j as f64 * 80.0, 100.0 + i as f64 * 150.0))
                    .collect()
            })
            .collect();
        (model, feat, trajs)
    }

    #[test]
    fn round_trip_preserves_embeddings() {
        let (model, feat, trajs) = setup();
        let before = model.embed(&feat, &trajs);
        let bytes = save_model(&model, &feat, 100.0);
        let (loaded, loaded_feat) = load_model(&bytes).expect("round trip");
        let after = loaded.embed(&loaded_feat, &trajs);
        assert!(
            before.approx_eq(&after, 1e-6),
            "persisted model produced different embeddings"
        );
    }

    #[test]
    fn round_trip_preserves_config_and_variant() {
        let (model, feat, _) = setup();
        let bytes = save_model(&model, &feat, 100.0);
        let (loaded, loaded_feat) = load_model(&bytes).unwrap();
        assert_eq!(loaded.cfg.dim, model.cfg.dim);
        assert_eq!(loaded.cfg.heads, model.cfg.heads);
        assert_eq!(loaded.cfg.layers, model.cfg.layers);
        assert_eq!(loaded.encoder.variant(), EncoderVariant::Dual);
        assert_eq!(loaded_feat.max_len(), feat.max_len());
        assert_eq!(loaded_feat.dim(), feat.dim());
        assert_eq!(loaded_feat.grid().num_cells(), feat.grid().num_cells());
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(load_model(b"nope").err(), Some(PersistError::BadMagic));
        assert_eq!(load_model(b"TC").err(), Some(PersistError::Truncated));
        let (model, feat, _) = setup();
        let mut bytes = save_model(&model, &feat, 100.0);
        bytes.truncate(bytes.len() / 2);
        assert!(load_model(&bytes).is_err());
    }

    /// Overwrites the 4 bytes at `at` and asserts the load fails cleanly
    /// (fuzz-found panic paths, kept as regressions).
    fn assert_rejects(bytes: &[u8], at: usize, field: [u8; 4]) {
        let mut corrupt = bytes.to_vec();
        corrupt[at..at + 4].copy_from_slice(&field);
        assert!(load_model(&corrupt).is_err(), "field at {at} accepted");
    }

    #[test]
    fn rejects_hostile_config_fields() {
        let (model, feat, _) = setup();
        let bytes = save_model(&model, &feat, 100.0);
        // Offsets follow the format comment: magic(4) then 10 u32 config
        // fields, 3 f32s, variant, grid f64s at 60/68/76, dims at 84.
        assert_rejects(&bytes, 4, u32::MAX.to_le_bytes()); // dim: cap
        assert_rejects(&bytes, 8, 0u32.to_le_bytes()); // heads = 0
        assert_rejects(&bytes, 8, 3u32.to_le_bytes()); // dim % heads != 0
        assert_rejects(&bytes, 12, (1u32 << 20).to_le_bytes()); // layers vs store
        assert_rejects(&bytes, 84, 0u32.to_le_bytes()); // cols = 0
        assert_rejects(&bytes, 84, u32::MAX.to_le_bytes()); // grid too big
        let mut corrupt = bytes.clone();
        corrupt[56..60].copy_from_slice(&7u32.to_le_bytes()); // no such variant
        assert_eq!(
            load_model(&corrupt).err(),
            Some(PersistError::Invalid("encoder variant"))
        );
        // A negative cell side would trip Grid::new's assert.
        let mut corrupt = bytes.clone();
        corrupt[76..84].copy_from_slice(&(-100.0f64).to_le_bytes());
        assert!(load_model(&corrupt).is_err());
        // A non-finite origin would build an unbounded box.
        let mut corrupt = bytes.clone();
        corrupt[60..68].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(load_model(&corrupt).is_err());
        // The untouched original still loads.
        assert!(load_model(&bytes).is_ok());
    }

    /// Fuzz regressions: fields that disagree about the model's width
    /// must be rejected, not carried into the forward pass. A mutated
    /// `dim` keeps `dim % heads == 0` and the same slot COUNT (layer
    /// structure is unchanged), so before the cell-table cross-check and
    /// `ParamStore::layout_matches` it reached inference and panicked on
    /// a PE shape assert.
    #[test]
    fn rejects_config_vs_store_shape_mismatch() {
        let (model, feat, _) = setup();
        let bytes = save_model(&model, &feat, 100.0);
        // cfg.dim (offset 4) no longer matches the featurizer table dim.
        assert_rejects(&bytes, 4, 18u32.to_le_bytes());
        // The table dim field (offset 100) no longer matches cfg.dim.
        assert_rejects(&bytes, 100, 8u32.to_le_bytes());
    }
}
