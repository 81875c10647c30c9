//! The host a run was measured on: a fingerprint carried by every
//! output, the process's own CPU time and peak memory, a fixed
//! calibration loop that tells two hosts apart, and the yardstick — fixed
//! work timed every few milliseconds beside the measured program, whose
//! pace says how fast the host was running *at that moment*.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::emit::Obj;

/// Everything needed to decide whether two outputs are comparable.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// The `TRAJCL_THREADS` environment variable, `unset` when absent.
    pub trajcl_threads: String,
    /// `trajcl_index::kernels::dispatch::description()`.
    pub dispatch: &'static str,
    /// `trajcl_index::kernels::dispatch::forced_scalar()`.
    pub forced_scalar: bool,
    /// Short commit id, `-dirty` when the tree has uncommitted changes,
    /// `unknown` outside a git checkout.
    pub commit: String,
    /// Score of [`calib_mops`] when the fingerprint was taken.
    pub calib_mops: f64,
}

impl Fingerprint {
    /// Reads the host and runs the calibration loop (~0.1 s).
    pub fn take() -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            trajcl_threads: std::env::var("TRAJCL_THREADS").unwrap_or_else(|_| "unset".into()),
            dispatch: trajcl_index::kernels::dispatch::description(),
            forced_scalar: trajcl_index::kernels::dispatch::forced_scalar(),
            commit: git_commit(),
            calib_mops: calib_mops(),
        }
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> String {
        Obj::new()
            .str("cpu_model", &self.cpu_model)
            .num("nproc", self.nproc as f64)
            .str("trajcl_threads", &self.trajcl_threads)
            .str("dispatch", self.dispatch)
            .bool("forced_scalar", self.forced_scalar)
            .str("commit", &self.commit)
            .num("calib_mops", self.calib_mops)
            .finish()
    }
}

/// Short commit id of the enclosing checkout (see [`Fingerprint::commit`]).
fn git_commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let Some(head) = git(&["rev-parse", "--short", "HEAD"]) else {
        return "unknown".to_string();
    };
    match git(&["status", "--porcelain"]) {
        Some(status) if status.is_empty() => head,
        _ => format!("{head}-dirty"),
    }
}

/// Millions of steps per second of a fixed, dependent integer loop (a
/// 64-bit LCG feeding an xorshift). It touches no memory and cannot be
/// vectorised, so it tracks core clock and steal time and nothing the
/// program under test does. Two run sets whose scores differ by more
/// than 10 % are "host drift" and are not compared (README).
pub fn calib_mops() -> f64 {
    const STEPS: u64 = 10_000_000;
    let mut best = 0.0f64;
    for _ in 0..3 {
        let t = Instant::now();
        let mut x: u64 = std::hint::black_box(0x9E37_79B9_7F4A_7C15);
        for _ in 0..STEPS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x ^= x >> 29;
        }
        std::hint::black_box(x);
        best = best.max(STEPS as f64 / t.elapsed().as_secs_f64() / 1e6);
    }
    best
}

/// User plus system CPU time of this process so far, in microseconds
/// (`utime + stime` of `/proc/self/stat`, in 10 ms ticks); `None` where
/// `/proc` is absent.
pub fn cpu_time_us() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    // USER_HZ is 100 on every Linux ABI this builds for.
    Some((utime + stime) * 10_000)
}

/// CPU time the hypervisor gave to someone else, summed over this
/// guest's CPUs, in 10 ms ticks (`steal` of the `cpu` line of
/// `/proc/stat`); `None` where `/proc` is absent.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// The host's counters at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tick {
    /// When the counters were read, in nanoseconds after the span's start.
    pub at_ns: u64,
    /// [`steal_ticks`] so far.
    pub steal_ticks: u64,
    /// [`cpu_time_us`] so far.
    pub cpu_us: u64,
}

/// Reads the host's counters at `start` and at the end of each of
/// `windows` consecutive windows, on a thread of its own (two small
/// `/proc` reads per window). Window `w` spans ticks `w` and `w + 1` — as
/// they were taken, not as they were planned: a reader woken late (the
/// hypervisor had the CPU) makes one window longer and the next shorter,
/// and the requests, the CPU time and the steal of both stay on one clock.
pub fn sample_windows(start: Instant, window: Duration, windows: usize) -> JoinHandle<Vec<Tick>> {
    std::thread::spawn(move || {
        (0..=windows as u32)
            .map(|w| {
                let at = start + window * w;
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                Tick {
                    at_ns: start.elapsed().as_nanos() as u64,
                    steal_ticks: steal_ticks().unwrap_or(0),
                    cpu_us: cpu_time_us().unwrap_or(0),
                }
            })
            .collect()
    })
}

/// One pass of the yardstick on the reference sandbox with both its CPUs
/// at their faster pace, in microseconds. A host's *slowdown* is its own
/// pass time over this; only ratios of slowdowns matter, so the constant
/// fixes the unit ("microseconds at the reference pace") and nothing else.
pub const YARDSTICK_US: f64 = 110.0;
/// Pause between two passes: 0.5 % of one CPU goes to the yardstick.
const YARDSTICK_EVERY: Duration = Duration::from_millis(25);

/// Fixed work whose pace follows the host's: sort 2048 keys four times,
/// then sum the squares of 65 536 floats four times — branchy integer and
/// streaming float work that keeps several execution ports busy, as the
/// program under test does.
///
/// Why it exists (README, "Host speed"): each vCPU of the reference
/// sandbox flips, every 5 to 30 s, between two paces a quarter to a half
/// apart — its hyperthread sibling belongs to someone else — and no
/// counter in the guest shows it. Everything timed moves with it; this
/// work, timed beside the program, moves the same way (r ≈ 0.9–0.98 with
/// a round's latency, CPU per request and throughput), and a dependent
/// chain like [`calib_mops`] does not.
pub struct Yardstick {
    keys: Vec<u32>,
    floats: Vec<f32>,
}

impl Yardstick {
    /// The work's fixed inputs (xorshift from a constant).
    pub fn new() -> Yardstick {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        Yardstick {
            keys: (0..2048).map(|_| next() as u32).collect(),
            floats: (0..65_536).map(|_| (next() % 1000) as f32 / 1e3).collect(),
        }
    }

    /// Does the work once and returns how long it took, in microseconds.
    pub fn pass_us(&self) -> f64 {
        let began = Instant::now();
        for _ in 0..4 {
            let mut keys = self.keys.clone();
            keys.sort_unstable();
            std::hint::black_box(&keys);
        }
        let mut sums = [0f32; 8];
        for _ in 0..4 {
            for chunk in self.floats.chunks_exact(8) {
                for (sum, v) in sums.iter_mut().zip(chunk) {
                    *sum += v * v;
                }
            }
        }
        std::hint::black_box(sums);
        began.elapsed().as_nanos() as f64 / 1e3
    }
}

/// One timed pass of the yardstick.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pass {
    /// When it began, in nanoseconds after the watch's origin.
    pub at_ns: u64,
    /// How long it took, in microseconds.
    pub us: f64,
}

/// A thread doing one yardstick pass every 25 ms until told to stop.
pub struct Watch {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<Pass>>,
}

/// Starts timing yardstick passes, stamped relative to `origin`.
pub fn watch(origin: Instant) -> Watch {
    let stop = Arc::new(AtomicBool::new(false));
    let stopped = Arc::clone(&stop);
    let thread = std::thread::spawn(move || {
        let yardstick = Yardstick::new();
        let mut passes = Vec::new();
        // Relaxed: the flag publishes nothing but itself.
        while !stopped.load(Ordering::Relaxed) {
            let at_ns = origin.elapsed().as_nanos() as u64;
            passes.push(Pass {
                at_ns,
                us: yardstick.pass_us(),
            });
            std::thread::sleep(YARDSTICK_EVERY);
        }
        passes
    });
    Watch { stop, thread }
}

impl Watch {
    /// Stops the thread and returns its passes, oldest first.
    pub fn finish(self) -> Vec<Pass> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().unwrap_or_default()
    }
}

/// The host's slowdown over `passes`: their median time over
/// [`YARDSTICK_US`]. The median, so that a pass the scheduler interrupted
/// (it then reads a time slice too long) does not count. `None` without
/// passes.
pub fn slowdown(passes: impl Iterator<Item = f64>) -> Option<f64> {
    let times: Vec<f64> = passes.collect();
    crate::stats::median(&times).map(|us| us / YARDSTICK_US)
}

/// Peak resident set of this process in MB (`VmHWM`); `None` where
/// `/proc` is absent.
pub fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_are_readable_and_monotone() {
        let before = cpu_time_us().expect("/proc/self/stat");
        let score = calib_mops();
        assert!(score.is_finite() && score > 0.0);
        let after = cpu_time_us().unwrap();
        assert!(after >= before);
        assert!(rss_peak_mb().unwrap() > 0.0);
        assert!(steal_ticks().is_some());
    }

    #[test]
    fn windows_are_sampled_at_their_boundaries() {
        let start = Instant::now() + Duration::from_millis(5);
        let ticks = sample_windows(start, Duration::from_millis(20), 3)
            .join()
            .unwrap();
        assert!(start.elapsed() >= Duration::from_millis(60));
        assert_eq!(ticks.len(), 4);
        assert!(ticks
            .windows(2)
            .all(|t| t[1].cpu_us >= t[0].cpu_us && t[1].steal_ticks >= t[0].steal_ticks));
        // Each tick is stamped when it was taken: at its boundary or after.
        for (w, tick) in ticks.iter().enumerate() {
            assert!(tick.at_ns >= w as u64 * 20_000_000, "{tick:?}");
        }
    }

    #[test]
    fn the_yardstick_is_timed_beside_the_caller_and_reduced_by_its_median() {
        let origin = Instant::now();
        let watch = watch(origin);
        std::thread::sleep(Duration::from_millis(120));
        let passes = watch.finish();
        assert!(passes.len() >= 2, "{passes:?}");
        assert!(passes.windows(2).all(|p| p[0].at_ns < p[1].at_ns));
        assert!(passes.iter().all(|p| p.us > 0.0));
        // One interrupted pass among three does not move the slowdown.
        let times = [YARDSTICK_US * 1.2, YARDSTICK_US * 40.0, YARDSTICK_US * 1.2];
        assert_eq!(slowdown(times.into_iter()), Some(1.2));
        assert_eq!(slowdown(std::iter::empty()), None);
    }

    #[test]
    fn fingerprint_is_one_json_object() {
        let fp = Fingerprint {
            cpu_model: "Some \"CPU\"".into(),
            nproc: 2,
            trajcl_threads: "unset".into(),
            dispatch: "avx2",
            forced_scalar: false,
            commit: "abc1234-dirty".into(),
            calib_mops: 812.5,
        };
        let parsed = trajcl_serve::json::parse(&fp.to_json()).unwrap();
        assert_eq!(
            parsed.get("cpu_model").and_then(|j| j.as_str()),
            Some("Some \"CPU\"")
        );
        assert_eq!(parsed.get("nproc").and_then(|j| j.as_u64()), Some(2));
    }
}
