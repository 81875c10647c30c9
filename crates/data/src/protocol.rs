//! The §V-B evaluation protocol and ranking metrics.
//!
//! Ground truth: for a sampled trajectory `T_q`, the odd-indexed points form
//! the query `T_q^a` and the even-indexed points form `T_q^b`, which is
//! planted in the database as the known most-similar trajectory. The metric
//! is the mean rank of `T_q^b` when the database is sorted by predicted
//! similarity to `T_q^a` (1 is perfect).

use rand::seq::SliceRandom;
use rand::Rng;
use trajcl_geo::Trajectory;

/// A query workload with planted ground truth.
#[derive(Debug, Clone)]
pub struct QueryProtocol {
    /// Query trajectories (`T_q^a`).
    pub queries: Vec<Trajectory>,
    /// Database (`T_q^b` ground truths + random fillers).
    pub database: Vec<Trajectory>,
    /// `ground_truth[qi]` = database index of query `qi`'s true match.
    pub ground_truth: Vec<usize>,
}

impl QueryProtocol {
    /// Builds the protocol from a test pool: samples `n_queries`
    /// trajectories for the odd/even split and fills the database with
    /// distinct trajectories from the pool up to `db_size`.
    ///
    /// # Panics
    /// Panics if the pool is smaller than `n_queries + (db_size - n_queries)`
    /// or if `db_size < n_queries`.
    pub fn build(
        pool: &[Trajectory],
        n_queries: usize,
        db_size: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(db_size >= n_queries, "database must hold all ground truths");
        assert!(
            pool.len() >= db_size,
            "pool too small: {} < {db_size}",
            pool.len()
        );
        let mut indices: Vec<usize> = (0..pool.len()).collect();
        indices.shuffle(rng);
        let query_src = &indices[..n_queries];
        let filler_src = &indices[n_queries..db_size];

        let mut queries = Vec::with_capacity(n_queries);
        let mut database = Vec::with_capacity(db_size);
        let mut ground_truth = Vec::with_capacity(n_queries);
        for &i in query_src {
            queries.push(pool[i].odd_points());
            ground_truth.push(database.len());
            database.push(pool[i].even_points());
        }
        for &i in filler_src {
            database.push(pool[i].clone());
        }
        QueryProtocol {
            queries,
            database,
            ground_truth,
        }
    }

    /// Applies a degradation to every query and database trajectory
    /// (down-sampling / distortion experiments degrade *both* sides).
    pub fn degrade(&self, mut f: impl FnMut(&Trajectory) -> Trajectory) -> QueryProtocol {
        QueryProtocol {
            queries: self.queries.iter().map(&mut f).collect(),
            database: self.database.iter().map(&mut f).collect(),
            ground_truth: self.ground_truth.clone(),
        }
    }
}

/// Mean rank of the ground-truth match given the full distance matrix
/// (row-major `queries × database`, smaller = more similar).
pub fn mean_rank(dists: &[f64], db_size: usize, ground_truth: &[usize]) -> f64 {
    assert_eq!(
        dists.len(),
        ground_truth.len() * db_size,
        "matrix shape mismatch"
    );
    let mut total = 0.0;
    for (qi, &gt) in ground_truth.iter().enumerate() {
        let row = &dists[qi * db_size..(qi + 1) * db_size];
        let t = row[gt];
        let rank = 1 + row.iter().filter(|&&d| d < t).count();
        total += rank as f64;
    }
    total / ground_truth.len() as f64
}

/// Indices of the `k` smallest values (ties broken by index).
pub fn top_k(dists: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..dists.len()).collect();
    idx.sort_by(|&a, &b| {
        dists[a]
            .partial_cmp(&dists[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    idx.truncate(k);
    idx
}

/// HR@k: fraction of the true top-`k` found in the predicted top-`k`
/// (Table X).
pub fn hit_ratio(true_dists: &[f64], pred_dists: &[f64], k: usize) -> f64 {
    let truth = top_k(true_dists, k);
    let pred = top_k(pred_dists, k);
    let hits = truth.iter().filter(|i| pred.contains(i)).count();
    hits as f64 / k as f64
}

/// Rk@m (e.g. R5@20): recall of the true top-`k` within the predicted
/// top-`m` (Table X).
pub fn recall_k_at_m(true_dists: &[f64], pred_dists: &[f64], k: usize, m: usize) -> f64 {
    let truth = top_k(true_dists, k);
    let pred = top_k(pred_dists, m);
    let hits = truth.iter().filter(|i| pred.contains(i)).count();
    hits as f64 / k as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use trajcl_geo::Point;

    fn pool(n: usize) -> Vec<Trajectory> {
        (0..n)
            .map(|i| {
                (0..24)
                    .map(|j| Point::new(j as f64 * 10.0, i as f64 * 100.0))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn build_plants_ground_truth_first() {
        let p = pool(50);
        let mut rng = StdRng::seed_from_u64(0);
        let proto = QueryProtocol::build(&p, 5, 30, &mut rng);
        assert_eq!(proto.queries.len(), 5);
        assert_eq!(proto.database.len(), 30);
        assert_eq!(proto.ground_truth, vec![0, 1, 2, 3, 4]);
        // Query and its ground truth partition the source trajectory.
        for qi in 0..5 {
            let q = &proto.queries[qi];
            let g = &proto.database[proto.ground_truth[qi]];
            assert_eq!(q.len() + g.len(), 24);
        }
    }

    #[test]
    fn mean_rank_perfect_and_worst() {
        // 2 queries, db of 3; distances place gt first for q0, last for q1.
        let dists = vec![0.1, 5.0, 9.0, /* q1: gt idx 1 */ 0.5, 7.0, 0.2];
        assert_eq!(mean_rank(&dists, 3, &[0, 1]), (1.0 + 3.0) / 2.0);
    }

    #[test]
    fn hit_ratio_and_recall() {
        let truth = vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let pred_perfect = truth.clone();
        assert_eq!(hit_ratio(&truth, &pred_perfect, 3), 1.0);
        // Prediction reverses everything: top-3 true = {0,1,2}, predicted
        // top-3 = {5,4,3} -> 0 hits.
        let pred_rev: Vec<f64> = truth.iter().rev().copied().collect();
        assert_eq!(hit_ratio(&truth, &pred_rev, 3), 0.0);
        // But recall@6 recovers everything.
        assert_eq!(recall_k_at_m(&truth, &pred_rev, 3, 6), 1.0);
    }

    #[test]
    fn degrade_applies_everywhere() {
        let p = pool(40);
        let mut rng = StdRng::seed_from_u64(2);
        let proto = QueryProtocol::build(&p, 3, 20, &mut rng);
        let degraded =
            proto.degrade(|t| Trajectory::new(t.points().iter().take(5).copied().collect()));
        assert!(degraded.queries.iter().all(|t| t.len() <= 5));
        assert!(degraded.database.iter().all(|t| t.len() <= 5));
        assert_eq!(degraded.ground_truth, proto.ground_truth);
    }
}
