//! A persistent, shared thread pool for data-parallel kernels.
//!
//! Every heavy kernel in the workspace used to open a fresh
//! `std::thread::scope` per call, paying ~10µs of spawn/join cost each
//! time. This module keeps one process-wide pool of workers alive instead;
//! a parallel region enqueues chunk tasks, the calling thread helps drain
//! the queue, and a latch blocks the caller until its last chunk finishes —
//! the same blocking contract as `thread::scope`, without the spawns.
//!
//! Sizing: `TRAJCL_THREADS` (when set to a positive integer) overrides the
//! default of `std::thread::available_parallelism()`. The value counts the
//! calling thread, so `TRAJCL_THREADS=1` runs every region serially with no
//! worker threads at all.

// This module owns the workspace's only `unsafe` (raw-pointer task
// trampolines and `SendPtr`); every unsafe operation must be written as an
// explicit block with its own `// SAFETY:` justification, even inside
// `unsafe fn` — enforced here by the lint and in CI by `trajcl audit`.
#![deny(unsafe_op_in_unsafe_fn)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// One chunk of a parallel region: `call(ctx, index)` with `ctx` pointing
/// at the region's closure, kept alive by the blocked caller.
struct Task {
    call: unsafe fn(*const (), usize),
    ctx: *const (),
    index: usize,
    latch: *const Latch,
}

// SAFETY: the pointers reference the stack frame of a caller that cannot
// leave `Latch::wait` before every task has released the latch's lock in
// `complete_one` — each task's last access to either — so they stay valid
// for as long as any thread uses them, whichever thread that is.
unsafe impl Send for Task {}

/// Countdown latch: the caller waits until all its tasks have completed.
///
/// It lives in the waiter's stack frame, so `wait` must not return while a
/// completer can still touch it: the count goes down, and is read, only
/// under `lock`, and releasing `lock` is the last thing a completer does.
struct Latch {
    remaining: AtomicUsize,
    panicked: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Latch {
    fn new(n: usize) -> Latch {
        Latch {
            remaining: AtomicUsize::new(n),
            panicked: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    fn complete_one(&self) {
        let _guard = self.lock.lock().unwrap();
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.cv.notify_all();
        }
    }

    fn wait(&self) {
        let mut guard = self.lock.lock().unwrap();
        while self.remaining.load(Ordering::Acquire) != 0 {
            guard = self.cv.wait(guard).unwrap();
        }
    }
}

struct Shared {
    queue: Mutex<VecDeque<Task>>,
    work_cv: Condvar,
}

/// A fixed-size pool of persistent worker threads.
pub struct ThreadPool {
    shared: Arc<Shared>,
    threads: usize,
}

fn run_task(task: Task) {
    // SAFETY: `task.call` is always `trampoline::<F>` for the same `F` whose
    // closure `task.ctx` points at (both are set together in `run`), and the
    // caller that owns that closure cannot leave `latch.wait` before this
    // task's `complete_one` below, which runs only after the call returned,
    // so the pointer is live and correctly typed for the whole call.
    let result = catch_unwind(AssertUnwindSafe(|| unsafe {
        (task.call)(task.ctx, task.index)
    }));
    // SAFETY: the owning caller cannot see the count reach zero, and so
    // cannot return, until `complete_one` below has let go of the latch.
    let latch = unsafe { &*task.latch };
    if result.is_err() {
        latch.panicked.store(true, Ordering::Release);
    }
    latch.complete_one();
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let task = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(t) = queue.pop_front() {
                    break t;
                }
                queue = shared.work_cv.wait(queue).unwrap();
            }
        };
        run_task(task);
    }
}

impl ThreadPool {
    /// A pool of `threads` total execution lanes (`threads - 1` workers are
    /// spawned; the calling thread is the remaining lane).
    pub fn new(threads: usize) -> ThreadPool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
        });
        for i in 0..threads - 1 {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("trajcl-pool-{i}"))
                .spawn(move || worker_loop(shared))
                .expect("spawn pool worker");
        }
        ThreadPool { shared, threads }
    }

    /// Pool size from `TRAJCL_THREADS`, defaulting to the machine's
    /// available parallelism.
    fn from_env() -> ThreadPool {
        let threads = std::env::var("TRAJCL_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        ThreadPool::new(threads)
    }

    /// Total execution lanes (workers + the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0), f(1), ..., f(n-1)` across the pool and blocks until all
    /// calls complete. The calling thread participates, so the region makes
    /// progress even when every worker is busy elsewhere.
    ///
    /// # Panics
    /// Re-raises (as a fresh panic) any panic that occurred inside `f`.
    pub fn run<F: Fn(usize) + Sync>(&self, n: usize, f: F) {
        if n == 0 {
            return;
        }
        if n == 1 || self.threads == 1 {
            for i in 0..n {
                f(i);
            }
            return;
        }
        unsafe fn trampoline<F: Fn(usize) + Sync>(ctx: *const (), index: usize) {
            // SAFETY: `ctx` points to `f`, alive until `latch.wait` returns,
            // which needs this task's `complete_one`, which follows this call.
            let f = unsafe { &*(ctx as *const F) };
            f(index);
        }
        let latch = Latch::new(n);
        {
            let mut queue = self.shared.queue.lock().unwrap();
            for index in 0..n {
                queue.push_back(Task {
                    call: trampoline::<F>,
                    ctx: &f as *const F as *const (),
                    index,
                    latch: &latch,
                });
            }
        }
        self.shared.work_cv.notify_all();
        // Help drain the queue (our own tasks and, harmlessly, any
        // concurrent caller's) so the region never waits on a busy pool.
        loop {
            let task = self.shared.queue.lock().unwrap().pop_front();
            match task {
                Some(t) => run_task(t),
                None => break,
            }
        }
        latch.wait();
        if latch.panicked.load(Ordering::Acquire) {
            panic!("trajcl thread pool: a parallel task panicked");
        }
    }
}

/// The process-wide shared pool (created on first use).
pub fn global() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(ThreadPool::from_env)
}

/// Lanes of the global pool (1 = everything runs serially).
pub fn threads() -> usize {
    global().threads()
}

/// `*mut T` that may cross threads; safe because [`par_chunks_mut`] hands
/// each task a disjoint sub-slice.
struct SendPtr<T>(*mut T);
// SAFETY: the pointer is only dereferenced through the disjoint, in-bounds
// sub-slices carved out in `par_chunks_mut`, while the caller holds the
// exclusive borrow of the underlying `&mut [T]` for the whole region.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: shared across tasks only to be copied; see the Send rationale.
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The wrapped pointer (method form so closures capture the wrapper,
    /// not the raw-pointer field).
    fn get(self) -> *mut T {
        self.0
    }
}

/// Splits `data` into chunks of at most `chunk_len` elements and runs
/// `f(chunk_index, chunk)` for each, in parallel on the global pool.
///
/// This is the shared replacement for the per-call-site
/// `available_parallelism` / `div_ceil` / `thread::scope` boilerplate.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = data.len();
    if len == 0 {
        return;
    }
    let chunk_len = chunk_len.max(1);
    let n = len.div_ceil(chunk_len);
    if n == 1 || threads() == 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let base = SendPtr(data.as_mut_ptr());
    global().run(n, move |i| {
        let start = i * chunk_len;
        let end = (start + chunk_len).min(len);
        // SAFETY: [start, end) ranges are disjoint across task indices and
        // in-bounds; `data` is exclusively borrowed for the whole region.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
        f(i, chunk);
    });
}

/// Most chunk pairs one [`par_zip_chunks_mut`] region splits into.
pub(crate) const MAX_ZIP_CHUNKS: usize = 64;

/// [`par_chunks_mut`] over two buffers in lockstep: `f(i, a_i, b_i)` for
/// the `i`-th `a_chunk`-long chunk of `a` and `b_chunk`-long chunk of `b`
/// — an output split across lanes with one private scratch slab per
/// lane. The pairs sit in a fixed array, so the region allocates nothing.
///
/// # Panics
/// Panics when the buffers do not split into the same number of chunks,
/// or into more than [`MAX_ZIP_CHUNKS`].
pub(crate) fn par_zip_chunks_mut<T, F>(
    a: &mut [T],
    a_chunk: usize,
    b: &mut [T],
    b_chunk: usize,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T], &mut [T]) + Sync,
{
    let n = a.len().div_ceil(a_chunk.max(1));
    assert_eq!(n, b.len().div_ceil(b_chunk.max(1)), "zip chunk counts");
    assert!(n <= MAX_ZIP_CHUNKS, "zip region of {n} chunks");
    let mut pairs: [Option<(&mut [T], &mut [T])>; MAX_ZIP_CHUNKS] =
        [const { None }; MAX_ZIP_CHUNKS];
    let chunks = a
        .chunks_mut(a_chunk.max(1))
        .zip(b.chunks_mut(b_chunk.max(1)));
    for (slot, pair) in pairs.iter_mut().zip(chunks) {
        *slot = Some(pair);
    }
    par_chunks_mut(&mut pairs[..n], 1, |i, slot| {
        let (a_i, b_i) = slot[0].take().expect("each pair is taken once");
        f(i, a_i, b_i);
    });
}

/// Number of rows each parallel chunk should carry so that `rows` rows
/// split evenly across the pool (at least 1).
pub fn rows_per_lane(rows: usize) -> usize {
    rows.div_ceil(threads().min(rows).max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_covers_every_index() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        pool.run(64, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zip_chunks_pair_up_by_index() {
        // Seven output chunks of 3 (the last short) beside seven slabs of 2.
        let mut out = vec![0usize; 20];
        let mut slabs = vec![0usize; 14];
        par_zip_chunks_mut(&mut out, 3, &mut slabs, 2, |i, o, s| {
            o.fill(i + 1);
            s.fill(o.len());
        });
        let want: Vec<usize> = (0..20).map(|j| j / 3 + 1).collect();
        assert_eq!(out, want);
        assert_eq!(slabs, [3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 2]);
    }

    #[test]
    fn run_serial_pool() {
        let pool = ThreadPool::new(1);
        let hits: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        pool.run(8, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_chunks_mut_writes_disjoint_chunks() {
        let mut data = vec![0usize; 1000];
        par_chunks_mut(&mut data, 13, |c, chunk| {
            for v in chunk.iter_mut() {
                *v = c + 1;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i / 13 + 1, "element {i}");
        }
    }

    #[test]
    fn nested_regions_complete() {
        let pool = ThreadPool::new(2);
        let total = AtomicUsize::new(0);
        pool.run(4, |_| {
            // Nested use of the global pool must not deadlock.
            global().run(4, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    /// Regression for the latch use-after-return: the last completer used to
    /// decrement BEFORE locking, so the waiter could see zero and return
    /// while the completer was still about to lock a latch whose frame was
    /// gone. Each region here runs in a frame that dies at once;
    /// `stack_is_quiet` then re-uses that stack and watches it, so a
    /// completer touching a dead latch flips a canary byte (or hangs, or
    /// crashes) instead of going unnoticed.
    #[test]
    fn no_task_touches_the_latch_after_its_waiter_returned() {
        #[inline(never)]
        fn region(pool: &ThreadPool) -> usize {
            let sum = AtomicUsize::new(0);
            pool.run(3, |i| {
                sum.fetch_add(i + 1, Ordering::Relaxed);
            });
            sum.into_inner()
        }
        #[inline(never)]
        fn stack_is_quiet() -> bool {
            let mut canary = [0xA5u8; 2048];
            std::hint::black_box(&mut canary);
            for _ in 0..64 {
                std::hint::spin_loop();
            }
            std::hint::black_box(&canary).iter().all(|&b| b == 0xA5)
        }
        let pool = ThreadPool::new(3);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for round in 0..100_000 {
                        assert_eq!(region(&pool), 6, "round {round}");
                        assert!(
                            stack_is_quiet(),
                            "round {round}: a task wrote into a dead frame"
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn rows_per_lane_covers_all_rows() {
        for rows in [1usize, 2, 7, 63, 64, 65, 1000] {
            let per = rows_per_lane(rows);
            assert!(per >= 1 && per * threads().min(rows) >= rows);
        }
    }
}
