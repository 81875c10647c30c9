//! An LRU cache from trajectory content hashes to embeddings.
//!
//! Consulted *before* any forward pass: a hot query (same geometry, any
//! caller) costs one hash + one map lookup instead of a model forward.
//! The map is a classic O(1) LRU — a `HashMap` into a slab of
//! doubly-linked nodes — so steady-state hits do no allocation.

use std::collections::HashMap;

use trajcl_geo::Trajectory;

/// Sentinel for "no node" in the intrusive list.
const NIL: usize = usize::MAX;

/// FNV-1a over the trajectory's point coordinates (bit-exact: two
/// trajectories hash equal iff their point sequences are identical floats).
pub fn content_hash(traj: &Trajectory) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bits: u64| {
        for b in bits.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for p in traj.points() {
        eat(p.x.to_bits());
        eat(p.y.to_bits());
    }
    h
}

struct Node {
    key: u64,
    /// The exact trajectory this entry was computed from: verified on
    /// every hit, so a 64-bit hash collision degrades to a miss instead
    /// of silently serving another trajectory's embedding.
    traj: Trajectory,
    emb: Vec<f32>,
    prev: usize,
    next: usize,
}

/// Fixed-capacity LRU map from trajectory content hashes to embeddings,
/// with the full trajectory stored per entry for collision-proof hits.
pub struct LruCache {
    map: HashMap<u64, usize>,
    nodes: Vec<Node>,
    head: usize,
    tail: usize,
    cap: usize,
}

impl LruCache {
    /// A cache holding at most `cap` entries (`cap >= 1`).
    pub fn new(cap: usize) -> LruCache {
        assert!(cap >= 1, "LruCache capacity must be at least 1");
        LruCache {
            map: HashMap::with_capacity(cap),
            nodes: Vec::with_capacity(cap),
            head: NIL,
            tail: NIL,
            cap,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Unlinks node `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next].prev = prev;
        }
    }

    /// Links node `i` at the head (most recently used).
    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// The embedding cached for `traj` under `key`, marking the entry
    /// most recently used. A key whose stored trajectory differs (hash
    /// collision) is a miss.
    pub fn get(&mut self, key: u64, traj: &Trajectory) -> Option<&[f32]> {
        let i = *self.map.get(&key)?;
        if self.nodes[i].traj != *traj {
            return None;
        }
        if i != self.head {
            self.unlink(i);
            self.push_front(i);
        }
        Some(&self.nodes[i].emb)
    }

    /// Inserts (or refreshes) `key`, evicting the least recently used
    /// entry when the cache is full. A colliding key's previous entry is
    /// replaced.
    pub fn put(&mut self, key: u64, traj: Trajectory, emb: Vec<f32>) {
        if let Some(&i) = self.map.get(&key) {
            self.nodes[i].traj = traj;
            self.nodes[i].emb = emb;
            if i != self.head {
                self.unlink(i);
                self.push_front(i);
            }
            return;
        }
        // Entries only leave by eviction (which reuses the slot in
        // place), so the slab never has holes: either evict or append.
        let i = if self.map.len() >= self.cap {
            // Evict the tail and reuse its slot.
            let lru = self.tail;
            self.unlink(lru);
            self.map.remove(&self.nodes[lru].key);
            self.nodes[lru].key = key;
            self.nodes[lru].traj = traj;
            self.nodes[lru].emb = emb;
            lru
        } else {
            self.nodes.push(Node {
                key,
                traj,
                emb,
                prev: NIL,
                next: NIL,
            });
            self.nodes.len() - 1
        };
        self.map.insert(key, i);
        self.push_front(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajcl_geo::Point;

    fn traj(pts: &[(f64, f64)]) -> Trajectory {
        pts.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn content_hash_is_bit_exact() {
        let a = traj(&[(1.0, 2.0), (3.0, 4.0)]);
        let b = traj(&[(1.0, 2.0), (3.0, 4.0)]);
        let c = traj(&[(1.0, 2.0), (3.0, 4.0 + 1e-12)]);
        assert_eq!(content_hash(&a), content_hash(&b));
        assert_ne!(content_hash(&a), content_hash(&c));
        assert_ne!(content_hash(&a), content_hash(&traj(&[(1.0, 2.0)])));
    }

    /// A distinct marker trajectory per key (for exercising the map).
    fn t(k: u64) -> Trajectory {
        traj(&[(k as f64, 0.0)])
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = LruCache::new(2);
        cache.put(1, t(1), vec![1.0]);
        cache.put(2, t(2), vec![2.0]);
        assert_eq!(cache.get(1, &t(1)), Some(&[1.0f32][..])); // 2 is now LRU
        cache.put(3, t(3), vec![3.0]);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(2, &t(2)).is_none(), "LRU entry must be evicted");
        assert!(cache.get(1, &t(1)).is_some());
        assert!(cache.get(3, &t(3)).is_some());
    }

    #[test]
    fn put_refreshes_existing_key() {
        let mut cache = LruCache::new(2);
        cache.put(1, t(1), vec![1.0]);
        cache.put(2, t(2), vec![2.0]);
        cache.put(1, t(1), vec![10.0]); // refresh: 2 becomes LRU
        cache.put(3, t(3), vec![3.0]);
        assert_eq!(cache.get(1, &t(1)), Some(&[10.0f32][..]));
        assert!(cache.get(2, &t(2)).is_none());
    }

    #[test]
    fn colliding_key_is_a_miss_not_a_wrong_hit() {
        let mut cache = LruCache::new(4);
        // Same key, different geometry: simulates a 64-bit hash collision.
        cache.put(7, t(1), vec![1.0]);
        assert!(cache.get(7, &t(2)).is_none(), "collision must miss");
        assert_eq!(cache.get(7, &t(1)), Some(&[1.0f32][..]));
        // The colliding trajectory replaces the entry on put.
        cache.put(7, t(2), vec![2.0]);
        assert!(cache.get(7, &t(1)).is_none());
        assert_eq!(cache.get(7, &t(2)), Some(&[2.0f32][..]));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn heavy_churn_stays_bounded() {
        let mut cache = LruCache::new(8);
        for k in 0..1000u64 {
            cache.put(k, t(k), vec![k as f32]);
            assert!(cache.len() <= 8);
        }
        for k in 992..1000u64 {
            assert_eq!(cache.get(k, &t(k)), Some(&[k as f32][..]));
        }
    }
}
