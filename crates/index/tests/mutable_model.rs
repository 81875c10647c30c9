//! The write buffer's contract, checked against the algorithm it
//! replaced.
//!
//! `MutableIndex` stores its write buffer in copy-on-write chunks and
//! lets the buffer contribute its own top-k to a search. Neither may
//! change one answer, so the reference here is the storage and the read
//! the index had before: a plain `Vec` of rows per shard (`push`, write in
//! place, `swap_remove`), and a search that scores **every** buffered row
//! with [`Metric::dist`], adds the sealed part's answer, sorts the lot by
//! `(distance, id)` and truncates (`reference_shard_knn`).
//!
//! * `search_and_slot_order_match_the_reference` drives random op
//!   sequences — every kind of upsert and remove, and compactions — over
//!   vectors wide enough that a chunk holds its minimum of 8 rows, so a
//!   few dozen rows cross several chunk boundaries, and compares ids,
//!   distance bits and `live_entries()` order after every op.
//!   Each step also asks a query from outside the pool, whose distances
//!   are non-zero and rarely tie.
//! * `a_ragged_chunk_capacity_matches_the_reference` does the same at
//!   d = 33, where a chunk's 124 rows are not a whole number of the scan's
//!   8-row blocks, and grows the buffers past a chunk edge.
//! * `every_held_snapshot_is_one_prefix_of_the_log` is the first slice of
//!   the history checker (ROADMAP item 2): one writer, four readers, and
//!   every snapshot a reader ever held must equal the model at exactly
//!   its generation — the test that fails if a chunk a snapshot shares is
//!   ever written in place.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trajcl_index::{shard_for, IndexOptions, IndexSnapshot, Metric, MutableIndex, ShardedIndex};

/// One shard as the index stored it before chunking: sealed rows with a
/// dead flag, then the buffer as a plain `Vec` in slot order.
#[derive(Default)]
struct Model {
    sealed: Vec<(u64, Vec<f32>, bool)>,
    buffer: Vec<(u64, Vec<f32>)>,
}

impl Model {
    fn buffered(&self, id: u64) -> Option<usize> {
        self.buffer.iter().position(|(b, _)| *b == id)
    }

    fn sealed_live(&mut self, id: u64) -> Option<&mut (u64, Vec<f32>, bool)> {
        self.sealed.iter_mut().find(|r| r.0 == id && !r.2)
    }

    fn upsert(&mut self, id: u64, v: Vec<f32>) {
        if let Some(slot) = self.buffered(id) {
            self.buffer[slot].1 = v;
            return;
        }
        if let Some(row) = self.sealed_live(id) {
            row.2 = true;
        }
        self.buffer.push((id, v));
    }

    /// Returns whether the id was live (a remove of an absent id
    /// publishes nothing).
    fn remove(&mut self, id: u64) -> bool {
        if let Some(slot) = self.buffered(id) {
            self.buffer.swap_remove(slot);
            true
        } else if let Some(row) = self.sealed_live(id) {
            row.2 = true;
            true
        } else {
            false
        }
    }

    fn compact(&mut self) {
        self.sealed = self
            .live_entries()
            .into_iter()
            .map(|(id, v)| (id, v, false))
            .collect();
        self.buffer.clear();
    }

    /// Sealed survivors in sealed order, then the buffer in slot order.
    fn live_entries(&self) -> Vec<(u64, Vec<f32>)> {
        let sealed = self.sealed.iter().filter(|r| !r.2);
        sealed
            .map(|(id, v, _)| (*id, v.clone()))
            .chain(self.buffer.iter().cloned())
            .collect()
    }
}

/// The reference read of one shard, as the index performed it before the
/// buffer kept its own top-k: the sealed part answers its best
/// `k + dead` rows (ties on sealed *position*, tombstones filtered
/// afterwards — the half this change leaves alone), **every** buffered
/// row is scored with [`Metric::dist`], and the lot is fully sorted by
/// `(distance, id)` and truncated.
fn reference_shard_knn(model: &Model, metric: Metric, query: &[f32], k: usize) -> Vec<(u64, f64)> {
    let dead = model.sealed.iter().filter(|r| r.2).count();
    let k = k.min(model.sealed.len() - dead + model.buffer.len());
    let mut sealed: Vec<(usize, f64)> = model
        .sealed
        .iter()
        .enumerate()
        .map(|(pos, r)| (pos, metric.dist(query, &r.1)))
        .collect();
    sealed.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    sealed.truncate(k + dead);
    let mut hits: Vec<(u64, f64)> = sealed
        .into_iter()
        .filter(|(pos, _)| !model.sealed[*pos].2)
        .map(|(pos, d)| (model.sealed[pos].0, d))
        .collect();
    for (id, v) in &model.buffer {
        hits.push((*id, metric.dist(query, v)));
    }
    hits.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    hits.truncate(k);
    hits
}

/// The reference read across shards — per-shard answers, fully sorted by
/// `(distance, id)`, truncated — as `(id, f64 bits)`.
fn reference_knn(models: &[Model], metric: Metric, query: &[f32], k: usize) -> Vec<(u64, u64)> {
    let mut hits: Vec<(u64, f64)> = models
        .iter()
        .flat_map(|m| reference_shard_knn(m, metric, query, k))
        .collect();
    hits.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    hits.truncate(k);
    hit_bits(hits)
}

fn hit_bits(hits: Vec<(u64, f64)>) -> Vec<(u64, u64)> {
    hits.into_iter().map(|(id, d)| (id, d.to_bits())).collect()
}

fn entry_bits(entries: Vec<(u64, Vec<f32>)>) -> Vec<(u64, Vec<u32>)> {
    entries
        .into_iter()
        .map(|(id, v)| (id, v.iter().map(|x| x.to_bits()).collect()))
        .collect()
}

/// A pool of `n` distinct `dim`-wide vectors. Many ids share few vectors
/// (the benchmark's 8192-ids-over-64-trajectories shape), so equal
/// distances — and therefore the id tie-break — decide most answers.
fn vector_pool(n: usize, dim: usize, rng: &mut StdRng) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect()
}

/// Picks a random element, or `None` from an empty slice.
fn pick(ids: &[u64], rng: &mut StdRng) -> Option<u64> {
    (!ids.is_empty()).then(|| ids[rng.gen_range(0..ids.len())])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn search_and_slot_order_match_the_reference(
        seed in 0u64..1_000_000,
        ragged in 0u8..2,
        nlist_raw in 0usize..4,
        sharded in 0u8..2,
        pool_size in 3usize..40,
    ) {
        // 4096 / dim < 8 on both: a chunk holds 8 rows. 523 is not a
        // multiple of the kernels' 8 lanes.
        let dim = if ragged == 1 { 523 } else { 520 };
        let metric = Metric::L1;
        let nshards = if sharded == 1 { 3 } else { 1 };
        let opts = IndexOptions {
            nlist: (nlist_raw > 0).then_some(nlist_raw),
            seed,
            ..IndexOptions::default()
        };
        let index = ShardedIndex::with_options(dim, metric, opts, nshards);
        let mut models: Vec<Model> = (0..nshards).map(|_| Model::default()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = vector_pool(pool_size, dim, &mut rng);
        // Queries from outside the pool draw on a stream of their own, so
        // the op sequence above stays what it was without them.
        let mut outside = StdRng::seed_from_u64(!seed);

        for step in 0..120 {
            let buffered: Vec<u64> =
                models.iter().flat_map(|m| m.buffer.iter().map(|(id, _)| *id)).collect();
            let sealed: Vec<u64> = models
                .iter()
                .flat_map(|m| m.sealed.iter().filter(|r| !r.2).map(|r| r.0))
                .collect();
            // Rolls 0-2 replace (buffered, buffered, sealed), 3-5 remove
            // (same split), 6 compacts now and then; the rest — and any
            // roll whose kind of id does not exist yet — upsert an id
            // drawn from a range wide enough to be mostly new, so the
            // buffers keep growing across chunk boundaries.
            let roll = rng.gen_range(0u32..10);
            let target = match roll {
                0 | 1 | 3 | 4 => pick(&buffered, &mut rng),
                2 | 5 => pick(&sealed, &mut rng),
                _ => None,
            };
            if roll == 6 && step % 3 == 0 {
                index.compact();
                models.iter_mut().for_each(Model::compact);
            } else if let (Some(id), 3..=5) = (target, roll) {
                prop_assert!(index.remove(id));
                prop_assert!(models[shard_for(id, nshards)].remove(id));
            } else {
                let id = target.unwrap_or_else(|| rng.gen_range(0u64..400));
                let v = pool[rng.gen_range(0..pool.len())].clone();
                index.upsert(id, v.clone());
                models[shard_for(id, nshards)].upsert(id, v);
            }

            let snap = index.snapshot();
            for (view, model) in snap.shard_views().iter().zip(&models) {
                prop_assert_eq!(
                    entry_bits(view.live_entries()),
                    entry_bits(model.live_entries()),
                    "slot order diverged at step {}", step
                );
            }
            let len = snap.len();
            let query = &pool[rng.gen_range(0..pool.len())];
            for k in [0, 1, 5, len, len + 3] {
                prop_assert_eq!(
                    hit_bits(snap.search(query, k, usize::MAX)),
                    reference_knn(&models, metric, query, k),
                    "k = {} at step {}", k, step
                );
            }
            let query = &vector_pool(1, dim, &mut outside)[0];
            for k in [1, 5, len] {
                prop_assert_eq!(
                    hit_bits(snap.search(query, k, usize::MAX)),
                    reference_knn(&models, metric, query, k),
                    "outside query, k = {} at step {}", k, step
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // d = 33: a chunk holds 124 rows (16 KiB over 132-byte rows), not a
    // multiple of the scan's 8-row blocks, so its columns are 128 long and
    // the last block of every full chunk is half empty. Mostly-new ids
    // push each shard's buffer across that chunk edge, and every step is
    // checked with a pool query (ties at 0) and one from outside the pool
    // (non-zero distances).
    #[test]
    fn a_ragged_chunk_capacity_matches_the_reference(
        seed in 0u64..1_000_000,
        nlist_raw in 0usize..3,
        sharded in 0u8..2,
    ) {
        const DIM: usize = 33;
        let metric = Metric::L1;
        let nshards = if sharded == 1 { 2 } else { 1 };
        let opts = IndexOptions {
            nlist: (nlist_raw > 0).then_some(nlist_raw),
            seed,
            ..IndexOptions::default()
        };
        let index = ShardedIndex::with_options(DIM, metric, opts, nshards);
        let mut models: Vec<Model> = (0..nshards).map(|_| Model::default()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = vector_pool(12, DIM, &mut rng);

        for step in 0..560u64 {
            let buffered: Vec<u64> =
                models.iter().flat_map(|m| m.buffer.iter().map(|(id, _)| *id)).collect();
            // One compaction early seals a part beside the buffer; after
            // it, rolls 0 and 1 replace and remove a buffered id and the
            // rest append a new one.
            let roll = rng.gen_range(0u32..8);
            if step == 40 {
                index.compact();
                models.iter_mut().for_each(Model::compact);
            } else if let (1, Some(id)) = (roll, pick(&buffered, &mut rng)) {
                prop_assert!(index.remove(id));
                prop_assert!(models[shard_for(id, nshards)].remove(id));
            } else {
                let id = match roll {
                    0 => pick(&buffered, &mut rng).unwrap_or(step),
                    _ => step,
                };
                let v = pool[rng.gen_range(0..pool.len())].clone();
                index.upsert(id, v.clone());
                models[shard_for(id, nshards)].upsert(id, v);
            }

            let snap = index.snapshot();
            for (view, model) in snap.shard_views().iter().zip(&models) {
                prop_assert_eq!(
                    entry_bits(view.live_entries()),
                    entry_bits(model.live_entries()),
                    "slot order diverged at step {}", step
                );
            }
            let len = snap.len();
            let queries = [
                pool[rng.gen_range(0..pool.len())].clone(),
                vector_pool(1, DIM, &mut rng).remove(0),
            ];
            for query in &queries {
                for k in [1, 5, 40, len, len + 3] {
                    prop_assert_eq!(
                        hit_bits(snap.search(query, k, usize::MAX)),
                        reference_knn(&models, metric, query, k),
                        "k = {} at step {}", k, step
                    );
                }
            }
        }
        let longest = models.iter().map(|m| m.buffer.len()).max().unwrap_or(0);
        prop_assert!(longest > 124, "no buffer crossed a chunk edge: {}", longest);
    }
}

/// FNV-1a over a snapshot's `live_entries()`: ids and vector bits, in
/// slot order.
fn digest(entries: &[(u64, Vec<f32>)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    for (id, v) in entries {
        eat(*id);
        v.iter().for_each(|x| eat(u64::from(x.to_bits())));
    }
    h
}

/// What one snapshot looks like from outside: its slot-order digest and
/// one kNN answer.
type Observation = (u64, Vec<(u64, u64)>);

fn observe(snap: &IndexSnapshot, query: &[f32]) -> Observation {
    (
        digest(&snap.live_entries()),
        hit_bits(snap.search(query, 5, usize::MAX)),
    )
}

#[test]
fn every_held_snapshot_is_one_prefix_of_the_log() {
    const DIM: usize = 520; // 8 rows per chunk
    const READERS: usize = 4;
    const OPS: usize = 600;
    let metric = Metric::L1;
    let index = Arc::new(MutableIndex::new(DIM, metric, Some(2), 5));
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let pool = vector_pool(6, DIM, &mut rng);
    let query = pool[0].clone();

    let barrier = Arc::new(Barrier::new(READERS + 1));
    let done = Arc::new(AtomicBool::new(false));
    // The newest generation any reader has taken a snapshot of. The writer
    // waits on it every few ops, so readers provably hold snapshots across
    // the writes that follow — no sleeps, no reliance on scheduling luck.
    let seen = Arc::new(AtomicU64::new(0));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let (index, barrier, done, seen, query) = (
                Arc::clone(&index),
                Arc::clone(&barrier),
                Arc::clone(&done),
                Arc::clone(&seen),
                query.clone(),
            );
            std::thread::spawn(move || {
                let mut observed: Vec<(u64, Observation)> = Vec::new();
                barrier.wait();
                let mut held = index.snapshot();
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let next = index.snapshot();
                    seen.fetch_max(next.generation(), Ordering::AcqRel);
                    if next.generation() != held.generation() || finished {
                        // `held` is read only now, after later generations
                        // were published on top of the chunks it shares.
                        observed.push((held.generation(), observe(&held, &query)));
                        held = next;
                    }
                    if finished {
                        observed.push((held.generation(), observe(&held, &query)));
                        return observed;
                    }
                }
            })
        })
        .collect();

    // The writer: a seeded op list, the model recorded after every
    // published generation (`log[g]` is the state at generation `g`).
    let mut model = [Model::default()];
    let mut log: Vec<Observation> = vec![(digest(&[]), Vec::new())];
    barrier.wait();
    for step in 0..OPS {
        let id = rng.gen_range(0u64..48);
        let published = match rng.gen_range(0u32..12) {
            0..=2 => {
                let removed = index.remove(id);
                assert_eq!(removed, model[0].remove(id));
                removed
            }
            3 if step % 5 == 0 => {
                index.compact();
                model[0].compact();
                true
            }
            _ => {
                let v = pool[rng.gen_range(0..pool.len())].clone();
                index.upsert(id, v.clone());
                model[0].upsert(id, v);
                true
            }
        };
        if published {
            log.push((
                digest(&model[0].live_entries()),
                reference_knn(&model, metric, &query, 5),
            ));
        }
        let generation = index.snapshot().generation();
        assert_eq!(
            generation as usize,
            log.len() - 1,
            "one generation per published mutation"
        );
        if step % 8 == 7 {
            while seen.load(Ordering::Acquire) < generation {
                std::thread::yield_now();
            }
        }
    }
    done.store(true, Ordering::Release);

    let mut distinct = std::collections::BTreeSet::new();
    for reader in readers {
        for (generation, observation) in reader.join().expect("reader thread") {
            assert_eq!(
                observation, log[generation as usize],
                "a snapshot of generation {generation} is not the log's prefix of that length"
            );
            distinct.insert(generation);
        }
    }
    assert!(
        distinct.len() >= OPS / 10,
        "readers held only {} distinct generations",
        distinct.len()
    );
}
