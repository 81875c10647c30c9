//! The benchmark's own seeded input generator.
//!
//! Every trajectory is a function of `(seed, stream, index)` alone, so a
//! workload can ask for its `i`-th cold query without materialising the
//! ones before it and two runs with one `--seed` see identical inputs.
//! The generator is self-contained (splitmix64 + xoshiro256**) on
//! purpose: the inputs must not change when the workspace's `rand` shim
//! does.

use trajcl_geo::{Point, Trajectory};

/// Side of the square region every trajectory stays inside, in metres
/// (the region the model's grid covers).
pub const REGION_M: f64 = 10_000.0;
/// Shortest generated trajectory, in points.
pub const MIN_POINTS: usize = 32;
/// Longest generated trajectory, in points (below the model's
/// `max_len` of 128, so nothing is truncated).
pub const MAX_POINTS: usize = 96;

/// Independent input streams of one seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stream {
    /// Database rows.
    Db,
    /// The hot query pool.
    Hot,
    /// Never-repeating cold queries.
    Cold,
    /// The trajectory pool behind the upsert stream.
    Write,
}

impl Stream {
    fn salt(self) -> u64 {
        match self {
            Stream::Db => 0x6462_0000_0000_0001,
            Stream::Hot => 0x686f_7400_0000_0002,
            Stream::Cold => 0x636f_6c64_0000_0003,
            Stream::Write => 0x7772_6974_6500_0004,
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256** seeded through splitmix64.
pub struct Prng {
    s: [u64; 4],
}

impl Prng {
    /// A generator for one `(seed, stream, index)` triple.
    pub fn new(seed: u64, stream: Stream, index: u64) -> Prng {
        let mut sm = seed ^ stream.salt() ^ index.wrapping_mul(0xD134_2543_DE82_EF95);
        Prng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// Coordinates carry centimetres, like a GPS fix: the JSON a client sends
/// is then a few digits per number, and `parse(format(x)) == x` exactly,
/// so the in-process oracle and the wire see the same trajectory.
fn to_cm(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// Trajectory `index` of `stream`: a random walk of 32–96 points with a
/// slowly turning heading and 20–120 m steps, reflected at the region's
/// border. Start, heading, speed and length are all random, so two
/// distinct `(stream, index)` pairs give distinct point sequences.
pub fn trajectory(seed: u64, stream: Stream, index: u64) -> Trajectory {
    let mut rng = Prng::new(seed, stream, index);
    let len = MIN_POINTS + (rng.next_u64() % (MAX_POINTS - MIN_POINTS + 1) as u64) as usize;
    let margin = 200.0;
    let (lo, hi) = (margin, REGION_M - margin);
    let mut x = rng.range(lo, hi);
    let mut y = rng.range(lo, hi);
    let mut heading = rng.range(0.0, std::f64::consts::TAU);
    let step = rng.range(20.0, 120.0);
    let mut points = Vec::with_capacity(len);
    for _ in 0..len {
        points.push(Point::new(to_cm(x), to_cm(y)));
        heading += rng.range(-0.35, 0.35);
        let stride = step * rng.range(0.6, 1.4);
        x += stride * heading.cos();
        y += stride * heading.sin();
        if x < lo || x > hi {
            heading = std::f64::consts::PI - heading;
            x = x.clamp(lo, hi);
        }
        if y < lo || y > hi {
            heading = -heading;
            y = y.clamp(lo, hi);
        }
    }
    Trajectory::new(points)
}

/// The first `n` trajectories of `stream`.
pub fn trajectories(seed: u64, stream: Stream, n: usize) -> Vec<Trajectory> {
    (0..n as u64).map(|i| trajectory(seed, stream, i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn key(t: &Trajectory) -> Vec<(u64, u64)> {
        t.points()
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = trajectories(7, Stream::Db, 16);
        let b = trajectories(7, Stream::Db, 16);
        let c = trajectories(8, Stream::Db, 16);
        assert_eq!(
            a.iter().map(key).collect::<Vec<_>>(),
            b.iter().map(key).collect::<Vec<_>>()
        );
        assert_ne!(key(&a[0]), key(&c[0]));
        // Random access agrees with the prefix.
        assert_eq!(key(&trajectory(7, Stream::Db, 9)), key(&a[9]));
    }

    #[test]
    fn trajectories_are_distinct_bounded_and_inside_the_region() {
        let mut seen = HashSet::new();
        for stream in [Stream::Db, Stream::Hot, Stream::Cold, Stream::Write] {
            for t in trajectories(3, stream, 256) {
                assert!((MIN_POINTS..=MAX_POINTS).contains(&t.len()));
                for p in t.points() {
                    assert!((0.0..=REGION_M).contains(&p.x) && (0.0..=REGION_M).contains(&p.y));
                }
                assert!(seen.insert(key(&t)), "duplicate trajectory");
            }
        }
    }

    #[test]
    fn coordinates_survive_the_wire_format_exactly() {
        for t in trajectories(11, Stream::Cold, 32) {
            for p in t.points() {
                let back: f64 = format!("{}", p.x).parse().unwrap();
                assert_eq!(back.to_bits(), p.x.to_bits());
                assert!(
                    format!("{}", p.x).len() <= 8,
                    "more than centimetres: {}",
                    p.x
                );
            }
        }
    }
}
