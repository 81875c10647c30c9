//! The dynamic micro-batcher: a bounded MPSC queue of embed requests
//! drained by worker threads into fused forward passes.
//!
//! Callers submit small embed jobs (one or two trajectories each) and
//! block on a per-job response channel. A worker dequeues the first
//! pending job, then keeps harvesting — instantly while the queue is
//! non-empty, and for at most `max_wait` while it is — until the fused
//! batch reaches `max_batch` trajectories. The whole batch runs as ONE
//! tape-free forward ([`Engine::embed_all`], which workers call side by
//! side), so concurrent callers share a forward instead of paying one
//! each.
//!
//! A lone request has nobody to share with, and the queue would only
//! charge it a channel hop and a worker wake-up. So a caller first asks
//! `BatchStats::try_inline`: when nothing is queued and fewer than
//! `workers` forwards are running it takes one of those forward slots
//! and calls [`Engine::embed_all`] on its own thread; otherwise — a
//! burst — it enqueues as above and fuses.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use trajcl_engine::{Engine, EngineError};
use trajcl_geo::Trajectory;

/// One embed request: a few trajectories plus the channel carrying their
/// embedding rows back to the blocked caller.
pub(crate) struct EmbedJob {
    pub trajs: Vec<Trajectory>,
    pub resp: SyncSender<Result<Vec<Vec<f32>>, EngineError>>,
}

/// Batching knobs (see [`crate::ServeConfig`] for the user-facing copy).
#[derive(Clone, Copy, Debug)]
pub(crate) struct BatchPolicy {
    pub max_batch: usize,
    pub max_wait: Duration,
}

/// Shared batching counters (exported through `Server::stats`).
#[derive(Default)]
pub(crate) struct BatchStats {
    /// Forward passes run for cache misses, on a worker or on the caller.
    pub batches: AtomicU64,
    /// Jobs served across all batches.
    pub jobs: AtomicU64,
    /// Trajectories embedded across all batches.
    pub trajs: AtomicU64,
    /// Forward passes running right now: every worker holds one slot
    /// while it embeds, and so does every caller embedding inline.
    in_flight: AtomicUsize,
    /// Jobs submitted but not yet claimed by a worker's batch. When this
    /// hits zero mid-collection there is no straggler to wait for — every
    /// client is blocked on a response — so the worker dispatches
    /// immediately instead of idling out `max_wait` (which would stall
    /// closed-loop callers for nothing).
    pub pending: AtomicUsize,
}

impl BatchStats {
    /// Claims a forward slot for a caller that wants to embed `trajs`
    /// trajectories on its own thread, counted as a batch of that size:
    /// granted only when no submission is waiting to be fused with and
    /// fewer than `workers` forwards are running — the load at which the
    /// batcher would have run this job alone anyway. The slot is given
    /// back when the returned guard drops.
    pub fn try_inline(&self, workers: usize, trajs: usize) -> Option<ForwardSlot<'_>> {
        if self.pending.load(Ordering::Acquire) != 0 {
            return None;
        }
        // The counter publishes no data (every forward reads only the
        // immutable engine), so Relaxed is enough for the claim itself.
        let claim = |n| (n < workers).then_some(n + 1);
        self.in_flight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, claim)
            .ok()?;
        Some(self.count_forward(1, trajs))
    }

    /// A worker's slot for one fused forward over `jobs` jobs; workers
    /// are `workers` many, so theirs is never refused.
    fn begin_forward(&self, jobs: usize, trajs: usize) -> ForwardSlot<'_> {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        self.count_forward(jobs, trajs)
    }

    fn count_forward(&self, jobs: usize, trajs: usize) -> ForwardSlot<'_> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.jobs.fetch_add(jobs as u64, Ordering::Relaxed);
        self.trajs.fetch_add(trajs as u64, Ordering::Relaxed);
        ForwardSlot(self)
    }
}

/// One running forward pass, counted in [`BatchStats`] until dropped.
pub(crate) struct ForwardSlot<'a>(&'a BatchStats);

impl Drop for ForwardSlot<'_> {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Worker threads draining a shared receiver into fused forwards.
pub(crate) struct Batcher {
    tx: SyncSender<EmbedJob>,
    workers: Vec<JoinHandle<()>>,
}

impl Batcher {
    /// Spawns `workers` threads over a bounded queue of `queue_cap` jobs.
    ///
    /// # Errors
    /// Propagates the OS error when a worker thread cannot be spawned
    /// (resource exhaustion); threads spawned before the failure are
    /// joined through the dropped sender before the error returns.
    pub fn spawn(
        engine: Arc<Engine>,
        workers: usize,
        queue_cap: usize,
        policy: BatchPolicy,
        stats: Arc<BatchStats>,
    ) -> std::io::Result<Batcher> {
        let workers = workers.max(1);
        let (tx, rx) = mpsc::sync_channel::<EmbedJob>(queue_cap.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let engine = Arc::clone(&engine);
            let rx = Arc::clone(&rx);
            let stats = Arc::clone(&stats);
            let spawned = std::thread::Builder::new()
                .name(format!("trajcl-serve-{i}"))
                .spawn(move || worker_loop(&engine, &rx, policy, &stats));
            match spawned {
                Ok(h) => handles.push(h),
                Err(e) => {
                    // Closing the queue lets the already-running workers
                    // drain and exit before the constructor fails.
                    drop(tx);
                    for h in handles {
                        let _ = h.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok(Batcher {
            tx,
            workers: handles,
        })
    }

    /// A submission handle (cloned per caller; all clones feed one queue).
    pub fn sender(&self) -> SyncSender<EmbedJob> {
        self.tx.clone()
    }

    /// Closes the queue and joins every worker. Jobs already queued are
    /// still served before the workers exit.
    pub fn shutdown(self) {
        drop(self.tx);
        for h in self.workers {
            let _ = h.join();
        }
    }
}

/// Collects one batch from the queue: the first job blocks indefinitely,
/// companions are harvested until `max_batch` trajectories or the
/// `max_wait` deadline — but the timed wait is skipped whenever no
/// submission is in flight (see [`BatchStats::pending`]). Returns `None`
/// when the queue closed with nothing pending.
fn collect_batch(
    rx: &Receiver<EmbedJob>,
    policy: BatchPolicy,
    stats: &BatchStats,
) -> Option<Vec<EmbedJob>> {
    let first = rx.recv().ok()?;
    stats.pending.fetch_sub(1, Ordering::AcqRel);
    let mut total = first.trajs.len();
    let mut jobs = vec![first];
    let deadline = Instant::now() + policy.max_wait;
    while total < policy.max_batch {
        match rx.try_recv() {
            Ok(job) => {
                stats.pending.fetch_sub(1, Ordering::AcqRel);
                total += job.trajs.len();
                jobs.push(job);
            }
            Err(TryRecvError::Disconnected) => break,
            Err(TryRecvError::Empty) => {
                if stats.pending.load(Ordering::Acquire) == 0 {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                match rx.recv_timeout(deadline - now) {
                    Ok(job) => {
                        stats.pending.fetch_sub(1, Ordering::AcqRel);
                        total += job.trajs.len();
                        jobs.push(job);
                    }
                    Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        }
    }
    Some(jobs)
}

fn worker_loop(
    engine: &Engine,
    rx: &Mutex<Receiver<EmbedJob>>,
    policy: BatchPolicy,
    stats: &BatchStats,
) {
    loop {
        // Hold the receiver lock across the whole collection window: a
        // second idle worker grabbing stragglers would only shrink the
        // fused batch (busy workers are already off running forwards).
        let jobs = {
            let rx = rx.lock().unwrap_or_else(|p| p.into_inner());
            collect_batch(&rx, policy, stats)
        };
        let Some(jobs) = jobs else { return };
        let all: Vec<Trajectory> = jobs.iter().flat_map(|j| j.trajs.iter().cloned()).collect();
        let slot = stats.begin_forward(jobs.len(), all.len());
        let embedded = engine.embed_all(&all);
        drop(slot);
        match embedded {
            Ok(emb) => {
                let d = emb.shape().last();
                let mut row = 0usize;
                for job in jobs {
                    let rows: Vec<Vec<f32>> = (0..job.trajs.len())
                        .map(|i| emb.data()[(row + i) * d..(row + i + 1) * d].to_vec())
                        .collect();
                    row += job.trajs.len();
                    let _ = job.resp.send(Ok(rows));
                }
            }
            Err(e) => {
                // Jobs are validated at submission, so a batch failure is
                // systemic; every waiter learns the same cause.
                let msg = format!("batched embed failed: {e}");
                for job in jobs {
                    let _ = job.resp.send(Err(EngineError::InvalidInput(msg.clone())));
                }
            }
        }
    }
}
