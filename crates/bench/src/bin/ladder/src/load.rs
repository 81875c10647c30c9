//! The load generators: closed-loop connections (send the next request
//! when the reply arrives) and one open-loop connection (send on a
//! schedule whatever the server does, time from the *due* time).
//!
//! Generator threads plus nothing else: at most `nproc` (2) threads send
//! load, so the generator does not starve the server it measures.

use std::io::{BufReader, ErrorKind};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use trajcl_serve::proto::{read_frame, write_frame};
use trajcl_serve::Client;

use crate::oracle;
use crate::stack::{connect, upsert_payload, WRITE_BASE};
use crate::stats::Sample;

/// A reply later than this counts as failed (and the closed loop's
/// connection deadline, see [`connect`]).
pub const REPLY_DEADLINE: Duration = Duration::from_secs(1);
/// An open-loop send issued this long after its due time is "late".
pub const LATE_NS: u64 = 1_000_000;
/// Failure descriptions kept per connection (the count is always exact).
const NOTES_KEPT: usize = 5;

/// What one connection saw during a measured span.
#[derive(Debug, Default)]
pub struct Outcome {
    /// One sample per correct reply.
    pub samples: Vec<Sample>,
    /// Requests sent inside the span.
    pub attempted: u64,
    /// Requests without a correct, timely reply.
    pub failed: u64,
    /// When each request that failed outright — error reply, broken
    /// transport, wrong answer — was sent (closed loop) or due (open
    /// loop), in nanoseconds since the span began.
    pub failed_at: Vec<u64>,
    /// The same for the requests that failed by timing out: no reply, or
    /// none within [`REPLY_DEADLINE`]. Kept apart because a timeout says
    /// the request waited, not that an answer was wrong, and whoever
    /// knows what the host did meanwhile may find it was the host's.
    pub timed_out_at: Vec<u64>,
    /// The first few failures, described.
    pub notes: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, at_ns: u64, note: impl FnOnce() -> String) {
        self.failed += 1;
        self.failed_at.push(at_ns);
        if self.notes.len() < NOTES_KEPT {
            self.notes.push(note());
        }
    }

    fn time_out(&mut self, at_ns: u64, note: impl FnOnce() -> String) {
        self.failed += 1;
        self.timed_out_at.push(at_ns);
        if self.notes.len() < NOTES_KEPT {
            self.notes.push(note());
        }
    }
}

/// What a closed-loop connection sends as its `n`-th request, and which
/// reply is right.
pub trait Script: Sync {
    /// Writes the `n`-th request payload into `out` (cleared first).
    fn request(&self, n: usize, out: &mut String);
    /// `Ok` when `reply` is the right answer to request `n`.
    fn verdict(&self, n: usize, reply: &str) -> Result<(), String>;
}

/// Hot kNN: connection `lane` of `lanes` walks the pool with stride
/// `lanes`, so together the connections cycle through every query.
pub struct HotKnn<'a> {
    /// Request payloads, one per pool query.
    pub payloads: &'a [String],
    /// The exact reply text expected per pool query.
    pub expected: &'a [String],
    /// The oracle's answers, to explain a mismatch.
    pub answers: &'a [Vec<(u64, f64)>],
    /// This connection's index.
    pub lane: usize,
    /// Connections sharing the pool.
    pub lanes: usize,
}

impl HotKnn<'_> {
    fn query(&self, n: usize) -> usize {
        (self.lane + n * self.lanes) % self.payloads.len()
    }
}

impl Script for HotKnn<'_> {
    fn request(&self, n: usize, out: &mut String) {
        out.clear();
        out.push_str(&self.payloads[self.query(n)]);
    }

    fn verdict(&self, n: usize, reply: &str) -> Result<(), String> {
        let q = self.query(n);
        if reply == self.expected[q] {
            return Ok(());
        }
        // The fleet's reply carries degradation fields the in-process
        // text lacks; anything else that differs is parsed to say why.
        match oracle::check(&self.answers[q], Some(reply)) {
            Ok(()) => Ok(()),
            Err(why) => Err(format!("hot query {q}: {why:?}")),
        }
    }
}

/// The upsert stream: request `n` writes id `WRITE_BASE + n % write_ids`
/// with trajectory `id % pool`, so an id always carries one trajectory
/// and, after the in-process pre-warm, every upsert is a replace that
/// leaves the index content unchanged.
pub struct UpsertStream<'a> {
    /// The pool's trajectories, already encoded.
    pub traj_json: &'a [String],
    /// Ids cycled through.
    pub write_ids: usize,
    /// Every id is already in the index (the mixed workload's pre-warm),
    /// so anything but `"replaced":true` is a wrong reply. Unset for the
    /// traced runs' write probe, whose first pass inserts.
    pub expect_replace: bool,
}

impl Script for UpsertStream<'_> {
    fn request(&self, n: usize, out: &mut String) {
        let j = n % self.write_ids;
        *out = upsert_payload(
            WRITE_BASE + j as u64,
            &self.traj_json[j % self.traj_json.len()],
        );
    }

    fn verdict(&self, _n: usize, reply: &str) -> Result<(), String> {
        let inserted = !self.expect_replace && reply == "{\"ok\":true,\"replaced\":false}";
        if inserted || reply == "{\"ok\":true,\"replaced\":true}" {
            Ok(())
        } else {
            Err(format!("upsert: unexpected reply {reply}"))
        }
    }
}

/// The instants of one measured span, shared by generator threads and
/// whoever reads CPU counters around it.
pub struct Span {
    /// When the span starts.
    pub start: Instant,
    /// How long it lasts.
    pub length: Duration,
}

/// Runs one closed-loop connection per script against `addr`: each
/// connects, sends `warmup` unmeasured requests, and waits; once all are
/// warm `on_warm` runs on the calling thread (it ends `setup_s` and
/// reads the CPU clock) and returns the span to measure. Returns one
/// [`Outcome`] per script, in order. A connection that cannot be made or
/// whose warm-up goes wrong sends nothing and reports one failed
/// request, so the run ends incorrect instead of hanging on a barrier.
pub fn closed_loop(
    addr: &str,
    scripts: &[&dyn Script],
    warmup: usize,
    on_warm: impl FnOnce() -> Span,
) -> Vec<Outcome> {
    let warm = Barrier::new(scripts.len() + 1);
    let go = Barrier::new(scripts.len() + 1);
    let span: OnceLock<Span> = OnceLock::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|script| {
                let (warm, go, span) = (&warm, &go, &span);
                scope.spawn(move || {
                    let warmed = warm_up(addr, *script, warmup);
                    warm.wait();
                    go.wait();
                    let span = span.get().expect("span published before go");
                    match warmed {
                        Ok(client) => drive_closed(addr, client, *script, warmup, span),
                        Err(why) => Outcome {
                            attempted: 1,
                            failed: 1,
                            failed_at: vec![0],
                            notes: vec![format!("warm-up failed: {why}")],
                            ..Outcome::default()
                        },
                    }
                })
            })
            .collect();
        warm.wait();
        let _ = span.set(on_warm());
        go.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    })
}

/// Connects and sends requests `0..count` of `script`, unmeasured.
pub fn warm_up(addr: &str, script: &dyn Script, count: usize) -> Result<Client, String> {
    let mut client = connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut payload = String::new();
    for n in 0..count {
        script.request(n, &mut payload);
        let reply = client
            .call(&payload)
            .map_err(|e| format!("transport: {e}"))?;
        script.verdict(n, &reply)?;
    }
    Ok(client)
}

fn drive_closed(
    addr: &str,
    mut client: Client,
    script: &dyn Script,
    first: usize,
    span: &Span,
) -> Outcome {
    let mut out = Outcome::default();
    let mut payload = String::new();
    let end = span.start + span.length;
    while Instant::now() < span.start {
        std::hint::spin_loop();
    }
    let mut n = first;
    loop {
        let sent = Instant::now();
        if sent >= end {
            break;
        }
        script.request(n, &mut payload);
        out.attempted += 1;
        let sent_ns = (sent - span.start).as_nanos() as u64;
        match client.call(&payload) {
            Ok(reply) => {
                let done = Instant::now();
                match script.verdict(n, &reply) {
                    Ok(()) => out.samples.push(Sample {
                        at_ns: (done - span.start).as_nanos() as u64,
                        latency_ns: (done - sent).as_nanos() as u64,
                    }),
                    Err(why) => out.fail(sent_ns, || why),
                }
            }
            Err(e) => {
                // A timed-out or broken connection is mid-frame: start
                // over on a fresh one, as a real client would.
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                    out.time_out(sent_ns, || format!("no reply within the deadline: {e}"));
                } else {
                    out.fail(sent_ns, || format!("transport: {e}"));
                }
                match connect(addr) {
                    Ok(fresh) => client = fresh,
                    Err(e) => {
                        out.notes.push(format!("reconnect failed, lane stops: {e}"));
                        break;
                    }
                }
            }
        }
        n += 1;
    }
    out
}

/// The open loop's timetable: request `i` is due `i × period` after the
/// span starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Nanoseconds between due times.
    pub period_ns: u64,
    /// Requests due inside the span.
    pub count: usize,
}

impl Schedule {
    /// `rate` requests per second for `span`.
    pub fn new(rate: u64, span: Duration) -> Schedule {
        let period_ns = 1_000_000_000 / rate.max(1);
        Schedule {
            period_ns,
            count: (span.as_nanos() as u64 / period_ns) as usize,
        }
    }

    /// When request `i` is due, in nanoseconds after the span starts.
    pub fn due_ns(&self, i: usize) -> u64 {
        i as u64 * self.period_ns
    }
}

/// The sender's clock, injectable so the schedule can be tested against
/// a stall without waiting for one.
pub trait Clock {
    /// Nanoseconds since the span started.
    fn now_ns(&self) -> u64;
    /// Blocks until `at_ns` (returns at once when it has passed).
    fn sleep_until(&self, at_ns: u64);
}

struct SpanClock(Instant);

impl Clock for SpanClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn sleep_until(&self, at_ns: u64) {
        let remaining = at_ns.saturating_sub(self.now_ns());
        if remaining > 0 {
            std::thread::sleep(Duration::from_nanos(remaining));
        }
    }
}

/// Sends every request of `schedule` at its due time: sleeps until
/// request `i` is due, issues it through `send`, and counts it late when
/// issuing began more than [`LATE_NS`] after the due time. A slow `send`
/// (the server not draining its socket) delays the requests behind it;
/// they go out back to back as soon as it returns, each late, and —
/// because latency is taken from the due time — each carries the wait
/// the stall imposed. Stops early when `send` fails. Returns the number
/// of requests issued and which of them were late.
pub fn pace(
    schedule: &Schedule,
    clock: &impl Clock,
    mut send: impl FnMut(usize) -> bool,
) -> (usize, Vec<usize>) {
    let mut late = Vec::new();
    for i in 0..schedule.count {
        let due = schedule.due_ns(i);
        clock.sleep_until(due);
        if clock.now_ns().saturating_sub(due) > LATE_NS {
            late.push(i);
        }
        if !send(i) {
            return (i, late);
        }
    }
    (schedule.count, late)
}

/// Latency of a reply received `received_ns` after the span started to a
/// request due at `due_ns`.
pub fn latency_from_due(due_ns: u64, received_ns: u64) -> u64 {
    received_ns.saturating_sub(due_ns)
}

/// Extracts `N` from a reply starting `{"req":N,` without parsing the
/// rest.
pub fn req_of(reply: &str) -> Option<usize> {
    let digits = reply.strip_prefix("{\"req\":")?;
    let end = digits.find(',')?;
    digits[..end].parse().ok()
}

/// What the open loop saw.
#[derive(Debug, Default)]
pub struct OpenOutcome {
    /// Per-request bookkeeping, stamped with *due* times.
    pub outcome: Outcome,
    /// Due times (nanoseconds since the span began) of the sends issued
    /// more than [`LATE_NS`] after them.
    pub late_at: Vec<u64>,
    /// Reply text of the requests `keep` selected, by request index.
    pub kept: Vec<(usize, String)>,
}

/// Drives one open-loop connection: a paced sender thread and a receiver
/// thread over one socket with their own framing; replies are matched to
/// requests by the echoed `req` (payload `i` must carry `"req":i`). A
/// reply that is not `"ok":true`, never arrives, or arrives more than
/// [`REPLY_DEADLINE`] after its due time fails. `keep(i)` selects the
/// replies whose text is returned for the after-the-fact oracle.
pub fn open_loop(
    addr: &str,
    payloads: &[String],
    schedule: &Schedule,
    start: Instant,
    keep: impl Fn(usize) -> bool + Sync,
) -> OpenOutcome {
    let count = schedule.count.min(payloads.len());
    let schedule = Schedule { count, ..*schedule };
    let stream = TcpStream::connect(addr).expect("open-loop connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(REPLY_DEADLINE))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("socket clone");
    let issued = AtomicUsize::new(0);
    let sender_done = AtomicBool::new(false);
    let clock = SpanClock(start);

    let mut result = OpenOutcome::default();
    let mut answered = vec![false; count];
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let report = pace(&schedule, &clock, |i| {
                let ok = write_frame(&mut writer, &payloads[i]).is_ok();
                issued.store(i + usize::from(ok), Ordering::Release);
                ok
            });
            sender_done.store(true, Ordering::Release);
            report
        });

        let mut reader = BufReader::new(&stream);
        let mut received = 0usize;
        loop {
            if sender_done.load(Ordering::Acquire) && received >= issued.load(Ordering::Acquire) {
                break;
            }
            let reply = match read_frame(&mut reader) {
                Ok(Some(reply)) => reply,
                // The read deadline passed with nothing arriving. While
                // the sender still has requests to issue that is only a
                // quiet moment; once it is done, whatever is still
                // outstanding has timed out.
                Err(e)
                    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
                        && !sender_done.load(Ordering::Acquire) =>
                {
                    continue
                }
                Ok(None) | Err(_) => break,
            };
            let received_ns = clock.now_ns();
            received += 1;
            let Some(i) = req_of(&reply).filter(|&i| i < count && !answered[i]) else {
                result.outcome.fail(received_ns, || {
                    format!("reply matches no open request: {reply}")
                });
                continue;
            };
            answered[i] = true;
            let due_ns = schedule.due_ns(i);
            let latency_ns = latency_from_due(due_ns, received_ns);
            let ok = reply[..reply.len().min(48)].contains("\"ok\":true");
            if !ok {
                result
                    .outcome
                    .fail(due_ns, || format!("cold query {i}: {reply}"));
            } else if latency_ns > REPLY_DEADLINE.as_nanos() as u64 {
                result.outcome.time_out(due_ns, || {
                    format!("cold query {i}: reply {latency_ns} ns after due time")
                });
            } else {
                result.outcome.samples.push(Sample {
                    at_ns: due_ns,
                    latency_ns,
                });
                if keep(i) {
                    result.kept.push((i, reply));
                }
            }
        }
        let (sent, late) = sender.join().expect("sender thread");
        result.late_at = late.iter().map(|&i| schedule.due_ns(i)).collect();
        // Every request due in the span was attempted, sent or not: one
        // the generator could not even send is a refusal, and refusals
        // miss every limit.
        result.outcome.attempted = count as u64;
        for (i, _) in answered.iter().enumerate().filter(|(_, a)| !**a) {
            result.outcome.time_out(schedule.due_ns(i), || {
                format!("no reply within the deadline ({sent} of {count} sent)")
            });
        }
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn sleep_until(&self, at_ns: u64) {
            self.0.set(self.0.get().max(at_ns));
        }
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn due_times_follow_the_rate() {
        let s = Schedule::new(400, Duration::from_secs(5));
        assert_eq!(s.period_ns, 2_500_000);
        assert_eq!(s.count, 2000);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(400), 1_000 * MS);
        // A span that is not a whole number of periods holds the floor.
        assert_eq!(Schedule::new(3, Duration::from_secs(1)).count, 3);
    }

    #[test]
    fn an_undisturbed_sender_is_never_late() {
        let s = Schedule::new(1000, Duration::from_millis(20));
        let clock = FakeClock(Cell::new(0));
        let mut issued_at = Vec::new();
        let (sent, late) = pace(&s, &clock, |_| {
            issued_at.push(clock.now_ns());
            clock.0.set(clock.now_ns() + 100_000); // a 0.1 ms send
            true
        });
        assert_eq!((sent, late), (20, Vec::new()));
        let due: Vec<u64> = (0..20).map(|i| s.due_ns(i)).collect();
        assert_eq!(issued_at, due);
    }

    #[test]
    fn a_stall_makes_later_sends_late_and_latency_counts_from_due_time() {
        let s = Schedule::new(1000, Duration::from_millis(20)); // 1 ms period
        let clock = FakeClock(Cell::new(0));
        let mut issued_at = Vec::new();
        let (sent, late) = pace(&s, &clock, |i| {
            issued_at.push(clock.now_ns());
            // Request 5's send blocks for 4.5 ms (the server stopped
            // draining the socket); every other send is instant.
            if i == 5 {
                clock.0.set(clock.now_ns() + 4 * MS + MS / 2);
            }
            true
        });
        assert_eq!(sent, 20);
        // Requests 6, 7, 8 were due at 6, 7, 8 ms and went out at 9.5 ms:
        // 3.5, 2.5 and 1.5 ms late. Request 9 (due 9 ms) went out 0.5 ms
        // late, inside the 1 ms allowance; from 10 on the schedule holds.
        assert_eq!(late, [6, 7, 8]);
        assert_eq!(
            &issued_at[5..11],
            &[
                5 * MS,
                9 * MS + MS / 2,
                9 * MS + MS / 2,
                9 * MS + MS / 2,
                9 * MS + MS / 2,
                10 * MS
            ]
        );
        // A reply to request 6 arriving 0.2 ms after it was finally sent
        // has waited 3.7 ms from the user's point of view, not 0.2.
        let received = issued_at[6] + MS / 5;
        assert_eq!(
            latency_from_due(s.due_ns(6), received),
            3 * MS + 7 * MS / 10
        );
        assert_eq!(latency_from_due(10, 5), 0);
    }

    #[test]
    fn a_failed_send_stops_the_sender() {
        let s = Schedule::new(1000, Duration::from_millis(10));
        let clock = FakeClock(Cell::new(0));
        assert_eq!(pace(&s, &clock, |i| i < 4), (4, Vec::new()));
    }

    #[test]
    fn req_echo_is_read_without_a_parser() {
        assert_eq!(req_of("{\"req\":17,\"ok\":true,\"hits\":[]}"), Some(17));
        assert_eq!(req_of("{\"ok\":true}"), None);
        assert_eq!(req_of("{\"req\":x,\"ok\":true}"), None);
    }

    #[test]
    fn scripts_cover_the_pool_and_keep_ids_on_one_trajectory() {
        let payloads: Vec<String> = (0..6).map(|i| format!("q{i}")).collect();
        let expected: Vec<String> = (0..6).map(|i| format!("r{i}")).collect();
        let answers = vec![Vec::new(); 6];
        let mut seen = std::collections::HashSet::new();
        let mut buf = String::new();
        for lane in 0..2 {
            let script = HotKnn {
                payloads: &payloads,
                expected: &expected,
                answers: &answers,
                lane,
                lanes: 2,
            };
            for n in 0..3 {
                script.request(n, &mut buf);
                seen.insert(buf.clone());
                let reply = buf.replace('q', "r");
                assert_eq!(script.verdict(n, &reply), Ok(()));
            }
        }
        assert_eq!(seen.len(), 6);

        let pool = vec!["[[0,0]]".to_string(), "[[1,1]]".to_string()];
        let stream = UpsertStream {
            traj_json: &pool,
            write_ids: 4,
            expect_replace: true,
        };
        stream.request(1, &mut buf);
        let first = buf.clone();
        stream.request(5, &mut buf);
        assert_eq!(first, buf, "id and trajectory repeat with period write_ids");
        assert!(first.contains(&format!("\"id\":{}", WRITE_BASE + 1)) && first.contains("[[1,1]]"));
        assert!(stream
            .verdict(0, "{\"ok\":true,\"replaced\":false}")
            .is_err());
    }
}
