//! Dataset profiles mimicking the paper's four datasets (Table II), scaled
//! to laptop-class sizes.
//!
//! | paper dataset | #traj (paper) | avg pts | avg len | region character |
//! |---------------|---------------|---------|---------|------------------|
//! | Porto         | 1.37 M        | 48      | 6.4 km  | mid-density city |
//! | Chengdu       | 4.48 M        | 105     | 3.5 km  | dense, small     |
//! | Xi'an         | 0.90 M        | 118     | 3.3 km  | dense, small     |
//! | Germany       | 0.14 M        | 72      | 252 km  | country-wide     |
//!
//! The profiles reproduce the *relative* characteristics (points per
//! trajectory, sample spacing, region extent, density) that drive the
//! experimental trends; absolute counts are scaled down via
//! [`DatasetProfile::default_train_size`] and friends.

use crate::city::CityConfig;

/// A named dataset profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetProfile {
    /// Porto taxi (mid-density, medium trips).
    Porto,
    /// Chengdu ride-hailing (dense, long point sequences, small region).
    Chengdu,
    /// Xi'an ride-hailing (dense, longest point sequences).
    Xian,
    /// Germany country-wide user-submitted routes (sparse, huge region).
    Germany,
}

impl DatasetProfile {
    /// Porto profile.
    pub fn porto() -> Self {
        DatasetProfile::Porto
    }

    /// Chengdu profile.
    pub fn chengdu() -> Self {
        DatasetProfile::Chengdu
    }

    /// Xi'an profile.
    pub fn xian() -> Self {
        DatasetProfile::Xian
    }

    /// Germany profile.
    pub fn germany() -> Self {
        DatasetProfile::Germany
    }

    /// All four profiles in the paper's table order.
    pub fn all() -> [DatasetProfile; 4] {
        [
            DatasetProfile::Porto,
            DatasetProfile::Chengdu,
            DatasetProfile::Xian,
            DatasetProfile::Germany,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetProfile::Porto => "Porto",
            DatasetProfile::Chengdu => "Chengdu",
            DatasetProfile::Xian => "Xi'an",
            DatasetProfile::Germany => "Germany",
        }
    }

    /// Deterministic seed per dataset (so every experiment sees the same
    /// city layout).
    pub fn seed(&self) -> u64 {
        match self {
            DatasetProfile::Porto => 0x504F_5254,
            DatasetProfile::Chengdu => 0x4348_454E,
            DatasetProfile::Xian => 0x5849_414E,
            DatasetProfile::Germany => 0x4745_524D,
        }
    }

    /// Simulator parameters reproducing the dataset's character.
    ///
    /// Spacing is chosen so `mean_points × step_mean` matches the paper's
    /// average trajectory length (e.g. Porto: 48 pts × ~133 m ≈ 6.4 km).
    pub fn city_config(&self) -> CityConfig {
        match self {
            DatasetProfile::Porto => CityConfig {
                width: 12_000.0,
                height: 10_000.0,
                min_points: 20,
                max_points: 200,
                mean_points: 48.0,
                step_mean: 133.0,
                step_jitter: 0.25,
                noise_sigma: 12.0,
                turn_prob: 0.15,
                axis_bias: 0.55,
                hotspots: 5,
                hotspot_prob: 0.6,
            },
            DatasetProfile::Chengdu => CityConfig {
                width: 6_000.0,
                height: 6_000.0,
                min_points: 20,
                max_points: 200,
                mean_points: 105.0,
                step_mean: 33.0,
                step_jitter: 0.2,
                noise_sigma: 8.0,
                turn_prob: 0.1,
                axis_bias: 0.8,
                hotspots: 4,
                hotspot_prob: 0.7,
            },
            DatasetProfile::Xian => CityConfig {
                width: 6_500.0,
                height: 6_500.0,
                min_points: 20,
                max_points: 200,
                mean_points: 118.0,
                step_mean: 28.0,
                step_jitter: 0.2,
                noise_sigma: 8.0,
                turn_prob: 0.1,
                axis_bias: 0.85,
                hotspots: 4,
                hotspot_prob: 0.7,
            },
            DatasetProfile::Germany => CityConfig {
                width: 600_000.0,
                height: 700_000.0,
                min_points: 20,
                max_points: 200,
                mean_points: 72.0,
                step_mean: 3_500.0,
                step_jitter: 0.5,
                noise_sigma: 60.0,
                turn_prob: 0.25,
                axis_bias: 0.1,
                hotspots: 12,
                hotspot_prob: 0.5,
            },
        }
    }

    /// Grid cell side in meters (paper default: 100 m city-scale; Germany
    /// needs coarser cells to keep the vocabulary tractable, mirroring the
    /// paper's observation that its grid space is the largest).
    pub fn cell_side(&self) -> f64 {
        match self {
            DatasetProfile::Germany => 10_000.0,
            _ => 100.0,
        }
    }

    /// Scaled default training-set size (paper: 200k city / 30k Germany).
    pub fn default_train_size(&self) -> usize {
        match self {
            DatasetProfile::Germany => 600,
            _ => 2_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_have_distinct_names_and_seeds() {
        let all = DatasetProfile::all();
        for i in 0..4 {
            for j in i + 1..4 {
                assert_ne!(all[i].name(), all[j].name());
                assert_ne!(all[i].seed(), all[j].seed());
            }
        }
    }

    #[test]
    fn mean_trip_length_tracks_paper() {
        // mean_points × step_mean should approximate the paper's average
        // trajectory lengths: 6.37 km, 3.47 km, 3.25 km, 252 km.
        let expect_km = [6.37, 3.47, 3.25, 252.0];
        for (profile, expect) in DatasetProfile::all().iter().zip(expect_km) {
            let cfg = profile.city_config();
            let approx_km = cfg.mean_points * cfg.step_mean / 1000.0;
            let ratio = approx_km / expect;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{}: {approx_km:.1} km vs paper {expect} km",
                profile.name()
            );
        }
    }

    #[test]
    fn dense_cities_have_smaller_steps() {
        let porto = DatasetProfile::porto().city_config();
        let chengdu = DatasetProfile::chengdu().city_config();
        let xian = DatasetProfile::xian().city_config();
        assert!(chengdu.step_mean < porto.step_mean);
        assert!(xian.step_mean < porto.step_mean);
        assert!(chengdu.mean_points > porto.mean_points);
    }

    #[test]
    fn germany_is_the_outlier() {
        let g = DatasetProfile::germany().city_config();
        assert!(g.width > 100_000.0);
        assert!(DatasetProfile::germany().cell_side() > DatasetProfile::porto().cell_side());
        assert!(
            DatasetProfile::germany().default_train_size()
                < DatasetProfile::porto().default_train_size()
        );
    }
}
