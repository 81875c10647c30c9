//! The fleet front-end: a router process that scatters the serve
//! protocol across N independent downstream shard servers.
//!
//! [`Fleet`] keeps a pool of idle [`Client`] connections per downstream
//! shard (`trajcl serve --listen` processes) and implements
//! [`FrameHandler`], so [`crate::net::listen_with`] serves it on the
//! wire exactly like a local [`crate::Server`] — clients speak the same
//! PROTOCOL.md frames to a front-end and cannot tell (except for the
//! extra degradation fields) that the data lives in other processes.
//!
//! Placement and merging reuse the in-process sharding machinery
//! verbatim: `upsert`/`remove` route by
//! [`trajcl_index::shard_for`]`(id, n)` — the same splitmix64 hash the
//! in-process [`trajcl_index::ShardedIndex`] uses. A `knn` is embedded
//! once: the front-end looks the query up in its own LRU cache
//! ([`crate::cache`], keyed by [`content_hash`]); on a miss it asks ONE
//! shard — `content_hash % n` first, so a repeat after eviction still
//! hits that shard's cache — to `embed` the query's exact f64 bits
//! (`traj_bits`), and reads back the exact f32 bits (`vec_bits`, read by
//! [`read_vec`]). It then sends every shard only that vector and merges
//! the per-shard top-k lists they answer with (`hits_bits`: ids and
//! distance bits, read by [`read_hits`]) through
//! [`trajcl_index::merge_partials`], the exact fused-top-k path. Because
//! shards hold disjoint id sets and each returns its local top-k, the
//! merged answer is bit-identical to an unsharded server over the same
//! data, not just equal to 6 printed decimals (DESIGN.md §13.3; §14 for
//! the fleet). No shard reply is read into a JSON tree.
//!
//! Robustness is the point (DESIGN.md §14):
//!
//! * every downstream call carries connect/read/write deadlines and a
//!   total per-op budget ([`FleetConfig::op_deadline`]) — no code path
//!   blocks unboundedly on a dead shard;
//! * failures retry with exponential backoff and deterministic seeded
//!   jitter, within the op budget;
//! * an idle connection the shard closed (its idle reaper, or a restart)
//!   is no failure: the call finds it closed before the reply begins and
//!   dials a fresh one in the same attempt;
//! * each shard runs a health state machine — [`ShardHealth::Up`] →
//!   [`ShardHealth::Degraded`] → [`ShardHealth::Down`] on consecutive
//!   failures, with a background `ping` prober re-admitting recovered
//!   shards through a half-open circuit-breaker step;
//! * when shards are unreachable, reads degrade instead of failing:
//!   responses carry `"partial":true` with `shards_ok`/`shards_total`
//!   (or error in-band under [`FleetConfig::fail_closed`]); writes to a
//!   down shard error in-band immediately — never hang.
//!
//! **Shard recovery is the shard's own job.** A downstream started with
//! `trajcl serve --wal DIR` recovers its partition from its write-ahead
//! log (last checkpoint + log tail, DESIGN.md §15) before it answers
//! the prober's first `ping`; once the health machine re-admits it, the
//! fleet is serving the full id space again with every acknowledged
//! write intact — no operator replay of the lost partition. The
//! `shard_restart_with_wal_recovers_acked_writes` chaos test drives
//! exactly this path (SIGKILL mid-pipeline, restart, bit-exact
//! verification).

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use trajcl_index::{merge_partials, shard_for, splitmix64};

use trajcl_geo::Trajectory;

use crate::cache::{content_hash, LruCache};
use crate::json::{Item, Reader};
use crate::net::{peer_closed, Client, ClientOptions, FrameHandler};
use crate::proto::{
    encode_frame, err_response, hits_field, hits_from_bits, knn_query, required, traj_bits,
    vec_bits, vec_from_bits, KnnQuery, Request, MAX_FRAME_LEN,
};
use crate::server::DEFAULT_CACHE_CAP;

/// Tuning knobs for [`Fleet::connect`].
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Socket deadlines for downstream connections (dial, per-read,
    /// per-write). The per-call read deadline is additionally tightened
    /// to the remaining [`FleetConfig::op_deadline`] budget.
    pub client: ClientOptions,
    /// Total budget of one routed operation including reconnects, retries
    /// and backoff sleeps, from when the operation starts (no call waits
    /// for another's connection). An operation has ONE, shared by every
    /// shard it tries in turn, a scatter's pipelined attempt and every
    /// shard's retries, and a `knn` miss's `embed` and scatter: however
    /// many shards fail, it answers (possibly partial) by then.
    pub op_deadline: Duration,
    /// Extra attempts after the first failed one.
    pub retries: u32,
    /// First retry's backoff sleep (doubles per attempt).
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Consecutive failures that take a shard [`ShardHealth::Down`]
    /// (fewer leave it [`ShardHealth::Degraded`]).
    pub down_after: u32,
    /// Cadence of the background health prober (fresh connection +
    /// `ping` against every non-[`ShardHealth::Up`] shard).
    pub probe_interval: Duration,
    /// `true` errors degraded reads in-band instead of answering
    /// `"partial":true` (fail-closed; the default is fail-open).
    pub fail_closed: bool,
    /// Seed of the deterministic backoff-jitter stream (splitmix64 over
    /// a counter — two fleets with the same seed and call order sleep
    /// identically, which the chaos suite relies on).
    pub jitter_seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            client: ClientOptions {
                connect_timeout: Some(Duration::from_secs(2)),
                read_timeout: Some(Duration::from_secs(10)),
                write_timeout: Some(Duration::from_secs(10)),
            },
            op_deadline: Duration::from_secs(10),
            retries: 2,
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(1),
            down_after: 3,
            probe_interval: Duration::from_millis(500),
            fail_closed: false,
            jitter_seed: 0x5EED_F1EE7,
        }
    }
}

/// A shard's position in the health state machine (DESIGN.md §14.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving normally.
    Up,
    /// Recent failures (or a half-open probation after recovering from
    /// [`ShardHealth::Down`]): still receives traffic, one step from
    /// the breaker tripping.
    Degraded,
    /// Breaker open: skipped by reads, writes error in-band, only the
    /// background prober talks to it.
    Down,
}

impl ShardHealth {
    /// The lowercase wire name (`"up"` / `"degraded"` / `"down"`).
    pub fn as_str(self) -> &'static str {
        match self {
            ShardHealth::Up => "up",
            ShardHealth::Degraded => "degraded",
            ShardHealth::Down => "down",
        }
    }
}

/// Mutable health-machine state, one per shard.
struct HealthState {
    health: ShardHealth,
    consecutive_fails: u32,
}

/// One downstream shard: its address, its idle connections, and its
/// health state.
struct Shard {
    addr: String,
    /// Idle connections, most recently used on top. A call pops one (or
    /// dials when there is none) and owns it until the reply is read, so a
    /// connection never carries two requests and no call waits for
    /// another's; it goes back only after a clean reply. Any transport
    /// error drops it: a failed call may leave the stream mid-frame, and
    /// resynchronisation is reconnection. The stack never outgrows the
    /// most calls that were in flight to this shard at once (DESIGN §14.1
    /// has what bounds that).
    idle: Mutex<Vec<Client>>,
    state: Mutex<HealthState>,
}

impl Shard {
    fn new(addr: &str) -> Shard {
        Shard {
            addr: addr.to_string(),
            idle: Mutex::new(Vec::new()),
            state: Mutex::new(HealthState {
                health: ShardHealth::Up,
                consecutive_fails: 0,
            }),
        }
    }

    fn health(&self) -> ShardHealth {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).health
    }

    /// The most recently used idle connection, if there is one.
    fn pop(&self) -> Option<Client> {
        self.idle.lock().unwrap_or_else(|p| p.into_inner()).pop()
    }

    /// Returns a connection that read a clean reply to the idle stack;
    /// once `stop` is set it is dropped instead. `stop` is read under the
    /// stack's lock, which [`Fleet::shutdown`] takes after setting it, so a
    /// connection checked in during shutdown cannot outlive it.
    fn checkin(&self, client: Client, stop: &AtomicBool) {
        let mut idle = self.idle.lock().unwrap_or_else(|p| p.into_inner());
        if !stop.load(Ordering::Acquire) {
            idle.push(client);
        }
    }

    /// Drops every idle connection, closing them once the lock is released.
    fn close_idle(&self) {
        let idle = std::mem::take(&mut *self.idle.lock().unwrap_or_else(|p| p.into_inner()));
        drop(idle);
    }

    /// A live call or probe succeeded: Degraded/Up → Up; Down → the
    /// half-open probation step (Degraded with one strike left, so a
    /// single failure re-trips the breaker instead of re-earning the
    /// full failure budget).
    fn record_success(&self, down_after: u32) {
        let mut s = self.state.lock().unwrap_or_else(|p| p.into_inner());
        match s.health {
            ShardHealth::Down => {
                s.health = ShardHealth::Degraded;
                s.consecutive_fails = down_after.saturating_sub(1);
            }
            _ => {
                s.health = ShardHealth::Up;
                s.consecutive_fails = 0;
            }
        }
    }

    fn record_failure(&self, down_after: u32) {
        let mut s = self.state.lock().unwrap_or_else(|p| p.into_inner());
        s.consecutive_fails = s.consecutive_fails.saturating_add(1);
        s.health = if s.consecutive_fails >= down_after {
            ShardHealth::Down
        } else {
            ShardHealth::Degraded
        };
    }
}

/// How one attempt at a shard went; `None`: nothing was tried, nothing to record.
type Attempt = Option<io::Result<String>>;

/// One shard's leg of a [`Fleet::scatter`].
enum Leg {
    /// Breaker open: not tried (the prober owns re-admission).
    Skipped,
    /// Request written on this idle connection, which the leg owns until the reply is read.
    Sent(Client),
    /// Attempt 0's outcome; `None` when it was not made (no idle connection,
    /// or the shard had closed the one popped), so [`Fleet::call_shard`] makes it.
    Tried(Attempt),
}

/// What is left of the budget ending at `deadline`; `None` once it is spent.
fn budget_left(deadline: Instant) -> Option<Duration> {
    deadline
        .checked_duration_since(Instant::now())
        .filter(|left| !left.is_zero())
}

/// Writes `frame` on `client`; `Ok(false)` when the shard had closed the
/// connection (the write met a reset or a broken pipe).
fn send(client: &mut Client, frame: &[u8]) -> io::Result<bool> {
    match client.send_encoded(frame) {
        Ok(()) => Ok(true),
        Err(e) if peer_closed(&e) => Ok(false),
        Err(e) => Err(e),
    }
}

/// A scatter leg's write on `client`: [`Leg::Sent`], or attempt 0's outcome
/// when the write failed — not made (`None`) when the shard had closed the
/// connection, which is no failure of the shard's: the rest of its idle
/// stack is older still, so it goes too.
fn send_leg(shard: &Shard, mut client: Client, frame: &[u8]) -> Leg {
    match send(&mut client, frame) {
        Ok(true) => Leg::Sent(client),
        Ok(false) => {
            shard.close_idle();
            Leg::Tried(None)
        }
        Err(e) => Leg::Tried(Some(Err(e))),
    }
}

/// Floor of a re-armed read deadline (std rejects 0): a reply already in the
/// socket buffer is still read after a slower sibling spent the budget.
const READ_FLOOR: Duration = Duration::from_millis(1);

/// The fleet front-end router (module docs have the architecture).
///
/// Construct with [`Fleet::connect`], serve with
/// [`crate::net::listen_with`] (it implements [`FrameHandler`]), stop
/// with [`Fleet::shutdown`].
pub struct Fleet {
    shards: Vec<Arc<Shard>>,
    cfg: FleetConfig,
    stop: Arc<AtomicBool>,
    prober: Mutex<Option<JoinHandle<()>>>,
    /// Counter behind the jitter stream and single-shard round-robin.
    ticket: AtomicU64,
    /// Query embeddings a shard made, by [`content_hash`]: a hit sends
    /// the shards its vector with no `embed` leg.
    cache: Mutex<LruCache>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

impl Fleet {
    /// Dials the downstream shards and starts the background health
    /// prober. Unreachable shards start [`ShardHealth::Down`] (the
    /// prober re-admits them when they appear); the call only fails if
    /// `addrs` is empty or EVERY shard is unreachable — a fleet with no
    /// healthy downstream cannot answer anything.
    ///
    /// # Errors
    /// [`std::io::ErrorKind::InvalidInput`] for an empty address list;
    /// the last dial error when no shard is reachable.
    pub fn connect(addrs: &[String], cfg: FleetConfig) -> io::Result<Fleet> {
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "fleet needs at least one shard address",
            ));
        }
        let mut shards = Vec::with_capacity(addrs.len());
        let mut reachable = 0usize;
        let mut last_err = None;
        for addr in addrs {
            let shard = Arc::new(Shard::new(addr));
            // One eager probe so startup state is honest: operators see
            // dead addresses immediately instead of on first traffic.
            match probe_once(&shard.addr, &cfg.client) {
                Ok(()) => reachable += 1,
                Err(e) => {
                    let mut s = shard.state.lock().unwrap_or_else(|p| p.into_inner());
                    s.health = ShardHealth::Down;
                    s.consecutive_fails = cfg.down_after;
                    last_err = Some(e);
                }
            }
            shards.push(shard);
        }
        if reachable == 0 {
            return Err(last_err.unwrap_or_else(|| {
                io::Error::new(io::ErrorKind::NotConnected, "no shard reachable")
            }));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let prober = spawn_prober(shards.clone(), cfg, Arc::clone(&stop));
        Ok(Fleet {
            shards,
            cfg,
            stop,
            prober: Mutex::new(Some(prober)),
            ticket: AtomicU64::new(0),
            cache: Mutex::new(LruCache::new(DEFAULT_CACHE_CAP)),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
        })
    }

    /// Downstream shard count (`shards_total` on the wire).
    pub fn shards_total(&self) -> usize {
        self.shards.len()
    }

    /// Current health of every shard, in address order.
    pub fn health(&self) -> Vec<ShardHealth> {
        self.shards.iter().map(|s| s.health()).collect()
    }

    /// Stops the prober and drops every idle downstream connection; a
    /// connection a call still holds is dropped when that call ends. Called
    /// by `Drop`; explicit for tests and the CLI's clean-exit path.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        let prober = self.prober.lock().unwrap_or_else(|p| p.into_inner()).take();
        if let Some(prober) = prober {
            let _ = prober.join();
        }
        for shard in &self.shards {
            shard.close_idle();
        }
    }

    /// The next value of the deterministic jitter/round-robin stream,
    /// in `[0, 1)`.
    fn jitter(&self) -> f64 {
        let n = self.ticket.fetch_add(1, Ordering::Relaxed);
        (splitmix64(self.cfg.jitter_seed ^ n) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The budget of an operation that starts now.
    fn budget(&self) -> Instant {
        Instant::now() + self.cfg.op_deadline
    }

    /// One downstream call of `frame` with the full robustness envelope:
    /// one budget (`deadline`), bounded retries, backoff+jitter, health
    /// recording. A scatter passes its pipelined attempt 0 as `first`; a
    /// single-shard operation passes `None` and [`Fleet::call_once`] makes it.
    /// Transport errors surface as `Err`; in-band downstream errors are
    /// `Ok` (the shard is healthy — the request was bad).
    fn call_shard(
        &self,
        shard: &Shard,
        frame: &[u8],
        deadline: Instant,
        first: Attempt,
    ) -> io::Result<String> {
        let cfg = &self.cfg;
        let mut outcome = first.or_else(|| self.call_once(shard, frame, deadline));
        let mut attempt: u32 = 0;
        loop {
            let e = match outcome {
                Some(Ok(resp)) => {
                    shard.record_success(cfg.down_after);
                    return Ok(resp);
                }
                Some(Err(e)) => e,
                None => return Err(io::ErrorKind::TimedOut.into()), // not tried: not charged
            };
            shard.record_failure(cfg.down_after);
            attempt += 1;
            if attempt > cfg.retries {
                return Err(e);
            }
            // Exponential backoff with deterministic jitter in
            // [0.5, 1.0)× — desynchronises retry storms without
            // nondeterminism the chaos suite couldn't replay.
            let exp = cfg.backoff_base.saturating_mul(1 << (attempt - 1).min(16));
            let capped = exp.min(cfg.backoff_max);
            let sleep = capped.mul_f64(0.5 + 0.5 * self.jitter());
            if sleep >= deadline.saturating_duration_since(Instant::now()) {
                return Err(e); // budget exhausted: fail now, not late
            }
            std::thread::sleep(sleep);
            outcome = self.call_once(shard, frame, deadline);
        }
    }

    /// A connection to `shard` dialled within what is left of `deadline`;
    /// `None` when the budget is spent (a scatter's slower siblings used it
    /// up): nothing dialled.
    fn dial(&self, shard: &Shard, deadline: Instant) -> Option<io::Result<Client>> {
        let left = budget_left(deadline)?;
        let cap = |t: Option<Duration>| Some(t.map_or(left, |t| t.min(left)));
        let opts = ClientOptions {
            connect_timeout: cap(self.cfg.client.connect_timeout),
            read_timeout: cap(self.cfg.client.read_timeout),
            write_timeout: cap(self.cfg.client.write_timeout),
        };
        Some(Client::connect_with(&shard.addr, &opts))
    }

    /// One attempt on a connection of its own: an idle one of `shard`'s, or
    /// one dialled within what is left of `deadline`. An idle connection the
    /// shard had closed (it reaped it, or restarted) is not the shard's
    /// failure: the attempt drops the rest of the stack, which is older
    /// still, and dials. `None` when the budget was spent before the attempt
    /// began: nothing dialled, sent or recorded.
    fn call_once(&self, shard: &Shard, frame: &[u8], deadline: Instant) -> Attempt {
        budget_left(deadline)?;
        if let Some(client) = shard.pop() {
            let attempt = self.exchange(shard, client, frame, deadline).transpose();
            if attempt.is_some() {
                return attempt;
            }
            shard.close_idle();
        }
        let client = self.dial(shard, deadline)?;
        Some(client.and_then(|client| {
            self.exchange(shard, client, frame, deadline)?
                .ok_or_else(|| {
                    io::Error::new(io::ErrorKind::UnexpectedEof, "shard closed the connection")
                })
        }))
    }

    /// Writes `frame` on `client` and reads the reply; `Ok(None)` when the
    /// shard had closed the connection before the reply began.
    fn exchange(
        &self,
        shard: &Shard,
        mut client: Client,
        frame: &[u8],
        deadline: Instant,
    ) -> io::Result<Option<String>> {
        if !send(&mut client, frame)? {
            return Ok(None);
        }
        self.read_reply(shard, client, deadline)
    }

    /// Second half of an exchange on `client`: reads the reply, the read
    /// deadline tightened to what is left of `deadline`; `Ok(None)` when the
    /// shard had closed the connection before the reply began. A clean reply
    /// checks the connection back in; anything else drops it — a half-read
    /// frame leaves the stream unsynchronisable: reconnection IS the resync protocol.
    fn read_reply(
        &self,
        shard: &Shard,
        mut client: Client,
        deadline: Instant,
    ) -> io::Result<Option<String>> {
        let left = deadline.saturating_duration_since(Instant::now());
        let wait = self.cfg.client.read_timeout.map_or(left, |c| c.min(left));
        client.set_read_timeout(Some(wait.max(READ_FLOOR)))?;
        let reply = client.reply_unless_closed()?;
        if reply.is_some() {
            shard.checkin(client, &self.stop);
        }
        Ok(reply)
    }

    /// Scatters `payload` to every non-Down shard and returns the replies
    /// that came back, in shard order (`Err` when none did).
    /// Send-all-then-receive-all on the calling thread, under the op's
    /// budget, which ends at `deadline`: the
    /// frame, encoded once, is written first on each shard's idle connection,
    /// then on a connection dialled for each Up shard that had none; then the
    /// replies are read in shard order. That is attempt 0 of
    /// [`Fleet::call_shard`]'s envelope; a shard it failed on, or did not
    /// make (a Degraded shard with no idle connection is not dialled until
    /// the replies are in), then runs the rest of it on what is left of the
    /// budget. The dials come after every idle write, so a host that stopped
    /// answering SYNs spends the budget while its siblings' replies arrive.
    /// Every leg owns its connection, so no lock is held across socket I/O
    /// and a stalled shard holds up no other call.
    fn scatter(&self, payload: &str, deadline: Instant) -> Result<Vec<String>, String> {
        let frame = encode_frame(payload.as_bytes());
        let mut legs: Vec<Leg> = (self.shards.iter())
            .map(|shard| {
                if shard.health() == ShardHealth::Down {
                    return Leg::Skipped;
                }
                match shard.pop() {
                    Some(client) => send_leg(shard, client, &frame),
                    None => Leg::Tried(None),
                }
            })
            .collect();
        for (shard, leg) in self.shards.iter().zip(&mut legs) {
            if matches!(leg, Leg::Tried(None)) && shard.health() == ShardHealth::Up {
                *leg = match self.dial(shard, deadline) {
                    Some(Ok(client)) => send_leg(shard, client, &frame),
                    Some(Err(e)) => Leg::Tried(Some(Err(e))),
                    None => Leg::Tried(None),
                };
            }
        }
        let legs: Vec<Leg> = (self.shards.iter().zip(legs))
            .map(|(shard, leg)| match leg {
                Leg::Sent(client) => {
                    let first = self.read_reply(shard, client, deadline).transpose();
                    if first.is_none() {
                        shard.close_idle();
                    }
                    Leg::Tried(first)
                }
                unsent => unsent,
            })
            .collect();
        let mut replies = Vec::with_capacity(legs.len());
        for (shard, leg) in self.shards.iter().zip(legs) {
            if let Leg::Tried(first) = leg {
                replies.extend(self.call_shard(shard, &frame, deadline, first).ok());
            }
        }
        if replies.is_empty() {
            return Err("no shard reachable".into());
        }
        Ok(replies)
    }

    /// The fleet's degradation preamble: `"partial":…,"shards_ok":…,
    /// "shards_total":…` (PROTOCOL.md §7).
    fn degradation_fields(&self, ok: usize) -> String {
        format!(
            "\"partial\":{},\"shards_ok\":{ok},\"shards_total\":{}",
            ok < self.shards.len(),
            self.shards.len()
        )
    }

    /// Routes on the decoded `request`: a `knn` is sent to the shards as
    /// its embedding, other ops forward the `payload` verbatim. Every op
    /// but `ping` waits on the shards, so it calls `pass` first.
    fn route(
        &self,
        request: Request<'_>,
        echo: &str,
        payload: &str,
        pass: &dyn Fn(),
    ) -> Result<String, String> {
        let op = required(request.op, "op")?;
        if op != "ping" {
            pass();
        }
        match &*op {
            // Answered locally: the front-end's own liveness, not the
            // shards' (probe those via `stats` health).
            "ping" => Ok(format!("{{{echo}\"ok\":true,\"pong\":true}}")),
            "knn" => {
                // `proto::dispatch`'s order, so a bad request gets a server's error.
                let query = knn_query(request.traj, request.traj_bits, request.vec_bits)?;
                let k = required(request.k, "k")?;
                self.route_knn(query, k, echo)
            }
            "upsert" | "remove" => self.route_write(required(request.id, "id")?, payload),
            "embed" | "distance" => {
                let start = (self.jitter() * self.shards.len() as f64) as usize;
                self.route_any_shard(start, payload, self.budget())
            }
            "compact" => self.route_compact(echo, payload),
            "stats" => self.route_stats(echo, payload),
            other => Err(format!("unknown op {other:?}")),
        }
    }

    /// Scatter the query's embedding to every live shard as exact bits
    /// (`vec_bits`), merge their exact local top-k lists (`hits_bits`).
    /// Shards hold disjoint ids, so the union of per-shard top-k contains
    /// the global top-k and the merge is bit-exact vs an unsharded server
    /// (DESIGN.md §13.3). The client gets the form it asked in. A
    /// trajectory is embedded first ([`Fleet::embed_once`]), under the
    /// same budget as the scatter; a client's own `vec_bits` is sent as it
    /// came.
    fn route_knn(&self, query: KnnQuery, k: usize, echo: &str) -> Result<String, String> {
        let deadline = self.budget();
        let bits = query.bits();
        let vec = match query {
            KnnQuery::Traj(traj, _) => self.embed_once(&traj, deadline)?,
            KnnQuery::Vec(vec) => vec,
        };
        let payload = format!(
            "{{\"op\":\"knn\",\"k\":{k},\"vec_bits\":\"{}\"}}",
            vec_bits(&vec)
        );
        let replies = self.scatter(&payload, deadline)?;
        let ok = replies.len();
        if self.cfg.fail_closed && ok < self.shards.len() {
            return Err(format!(
                "fail-closed: {} of {} shards unavailable",
                self.shards.len() - ok,
                self.shards.len()
            ));
        }
        let partials = replies
            .iter()
            .map(|resp| read_hits(resp))
            .collect::<Result<Vec<_>, _>>()?;
        let merged = merge_partials(partials, k);
        Ok(format!(
            "{{{echo}\"ok\":true,{},{}}}",
            self.degradation_fields(ok),
            hits_field(&merged, bits)
        ))
    }

    /// The embedding of `traj`: from the front-end's cache, or on a miss
    /// from ONE shard's `embed` (`traj_bits` in, exact `vec_bits` out),
    /// which is then cached. The miss goes to shard `content_hash % n`
    /// first, failing over in shard order, so a query evicted here still
    /// hits that shard's cache. A shard's in-band error (an empty
    /// trajectory) is the client's, in a server's words.
    ///
    /// The bits form takes 32 bytes a point, more than `traj`'s text, so a
    /// query that fits a client's frame may not fit a shard's: that one is
    /// refused here, before a shard could read the oversized header as a
    /// transport failure and be marked down for it.
    fn embed_once(&self, traj: &Trajectory, deadline: Instant) -> Result<Vec<f32>, String> {
        let key = content_hash(traj);
        let hit = self.cached().get(key, traj).map(<[f32]>::to_vec);
        if let Some(vec) = hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(vec);
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        let payload = format!("{{\"op\":\"embed\",\"traj_bits\":\"{}\"}}", traj_bits(traj));
        if payload.len() > MAX_FRAME_LEN {
            return Err(format!(
                "query of {} points too large for a shard frame ({} bytes, max {MAX_FRAME_LEN})",
                traj.len(),
                payload.len()
            ));
        }
        let n = self.shards.len() as u64;
        let start = usize::try_from(key % n).unwrap_or(0);
        let vec = read_vec(&self.route_any_shard(start, &payload, deadline)?)?;
        self.cached().put(key, traj.clone(), vec.clone());
        Ok(vec)
    }

    /// The front-end's embedding cache, locked.
    fn cached(&self) -> std::sync::MutexGuard<'_, LruCache> {
        self.cache.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Route a write to its owning shard by the placement hash. A Down
    /// owner errors in-band immediately — writes never hang and never
    /// silently land on the wrong shard.
    fn route_write(&self, id: u64, payload: &str) -> Result<String, String> {
        let shard = &self.shards[shard_for(id, self.shards.len())];
        if shard.health() == ShardHealth::Down {
            return Err(format!("shard {} is down; write refused", shard.addr));
        }
        // The downstream response already carries the req echo and the
        // op's fields — forward it verbatim.
        self.call_shard(
            shard,
            &encode_frame(payload.as_bytes()),
            self.budget(),
            None,
        )
        .map_err(|e| format!("shard {}: {e}", shard.addr))
    }

    /// Ops any one shard can answer (every shard holds the full model):
    /// shard `start` first, failing over to the next live one in shard
    /// order, all under ONE budget, ending at `deadline`.
    fn route_any_shard(
        &self,
        start: usize,
        payload: &str,
        deadline: Instant,
    ) -> Result<String, String> {
        let n = self.shards.len();
        let frame = encode_frame(payload.as_bytes());
        let mut last_err = None;
        for i in 0..n {
            let shard = &self.shards[(start + i) % n];
            if shard.health() == ShardHealth::Down {
                continue;
            }
            match self.call_shard(shard, &frame, deadline, None) {
                Ok(resp) => return Ok(resp),
                Err(e) => last_err = Some(format!("shard {}: {e}", shard.addr)),
            }
        }
        Err(last_err.unwrap_or_else(|| "no shard reachable".into()))
    }

    /// Scatter `compact`, sum the per-shard sealed counts.
    fn route_compact(&self, echo: &str, payload: &str) -> Result<String, String> {
        let replies = self.scatter(payload, self.budget())?;
        let mut sealed: u64 = 0;
        for resp in &replies {
            let [n] = read_counts(resp, ["sealed"])?;
            sealed += n;
        }
        Ok(format!(
            "{{{echo}\"ok\":true,{},\"sealed\":{sealed}}}",
            self.degradation_fields(replies.len())
        ))
    }

    /// Scatter `stats`, sum the additive index fields, and report the
    /// front-end's own embedding-cache counters and fleet-level health
    /// (`"health":["up","down",...]` in shard order). Counters of
    /// unreachable shards are simply missing from the sums — `shards_ok`
    /// says how many contributed.
    fn route_stats(&self, echo: &str, payload: &str) -> Result<String, String> {
        let replies = self.scatter(payload, self.budget())?;
        let mut sums: [u64; 4] = [0; 4];
        for resp in &replies {
            let counts = read_counts(resp, ["size", "buffer", "memory_bytes", "shards"])?;
            for (sum, n) in sums.iter_mut().zip(counts) {
                *sum += n;
            }
        }
        let health: Vec<String> = self
            .shards
            .iter()
            .map(|s| format!("\"{}\"", s.health().as_str()))
            .collect();
        Ok(format!(
            "{{{echo}\"ok\":true,{},\"size\":{},\"buffer\":{},\"memory_bytes\":{},\"shards\":{},\"cache_hits\":{},\"cache_misses\":{},\"health\":[{}]}}",
            self.degradation_fields(replies.len()),
            sums[0],
            sums[1],
            sums[2],
            sums[3],
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
            health.join(",")
        ))
    }
}

impl FrameHandler for Fleet {
    fn handle_frame(&self, payload: &str) -> String {
        self.handle_session_frame(payload, &|| {})
    }

    fn handle_session_frame(&self, payload: &str, pass: &dyn Fn()) -> String {
        let request = match Request::decode(payload) {
            Ok(request) => request,
            Err(e) => return err_response("", &format!("malformed JSON: {e}")),
        };
        let echo = request.echo();
        match self.route(request, &echo, payload, pass) {
            Ok(resp) => resp,
            Err(msg) => err_response(&echo, &msg),
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One fresh-connection `ping` round trip (the probe primitive: never
/// touches the shard's pooled connections, so probing cannot interfere
/// with live traffic). A reply [`read_pong`] refuses is a failed probe.
fn probe_once(addr: &str, opts: &ClientOptions) -> io::Result<()> {
    let mut client = Client::connect_with(addr, opts)?;
    let resp = client.call("{\"op\":\"ping\"}")?;
    read_pong(&resp).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// The background health prober: every `probe_interval`, ping each
/// non-Up shard over a fresh connection. Success walks the state
/// machine back up (Down → half-open Degraded → Up); failure keeps the
/// breaker open. Sleeps in small slices so shutdown is prompt.
fn spawn_prober(
    shards: Vec<Arc<Shard>>,
    cfg: FleetConfig,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let slice = Duration::from_millis(20);
        loop {
            let mut slept = Duration::ZERO;
            while slept < cfg.probe_interval {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(slice);
                slept += slice;
            }
            for shard in &shards {
                if shard.health() == ShardHealth::Up {
                    continue;
                }
                match probe_once(&shard.addr, &cfg.client) {
                    Ok(()) => shard.record_success(cfg.down_after),
                    Err(_) => shard.record_failure(cfg.down_after),
                }
            }
        }
    })
}

/// Reads a shard's reply, handing each member but `ok` and `error` to
/// `member`, which must read its value. `Err` is the first grammar error
/// (`malformed shard response: ` and `json::parse`'s text) or, when `ok`
/// is not `true`, the shard's in-band error: the shard answered, so the
/// request itself was bad.
fn shard_reply<'a>(
    resp: &'a str,
    mut member: impl FnMut(&mut Reader<'a>, &str) -> Result<(), String>,
) -> Result<(), String> {
    let (mut ok, mut error) = (false, None);
    let mut r = Reader::new(resp);
    r.members(0, |r, key| {
        match &*key {
            "ok" => ok = matches!(r.scalar(1)?, Item::Bool(true)),
            "error" => {
                error = match r.scalar(1)? {
                    Item::Str(e) => Some(e.into_owned()),
                    _ => None,
                }
            }
            key => member(r, key)?,
        }
        Ok(())
    })
    .and_then(|()| r.finish())
    .map_err(|e| format!("malformed shard response: {e}"))?;
    if ok {
        Ok(())
    } else {
        Err(error.unwrap_or_else(|| "shard reported an error".into()))
    }
}

/// Reads a shard's `knn` reply (the `hits_bits` a `vec_bits` query gets)
/// into its exact `(id, distance)` pairs.
pub fn read_hits(resp: &str) -> Result<Vec<(u64, f64)>, String> {
    read_bits(resp, "hits_bits", hits_from_bits)
}

/// Reads a shard's `embed` reply (the `vec_bits` a `traj_bits` query
/// gets) into the query's exact embedding.
pub fn read_vec(resp: &str) -> Result<Vec<f32>, String> {
    read_bits(resp, "vec_bits", vec_from_bits)
}

/// Reads the hex string member `field` of an ok shard reply with `decode`.
fn read_bits<T>(
    resp: &str,
    field: &str,
    decode: fn(&str) -> Result<T, String>,
) -> Result<T, String> {
    let mut value = None;
    shard_reply(resp, |r, key| {
        if key != field {
            return r.skip_value(1);
        }
        value = Some(match r.scalar(1)? {
            Item::Str(hex) => decode(&hex),
            _ => Err(format!("\"{field}\" must be a string of hex digits")),
        });
        Ok(())
    })?;
    value
        .unwrap_or_else(|| Err(format!("missing \"{field}\"")))
        .map_err(|e| format!("shard response {e}"))
}

/// Reads a shard's `ping` reply: ok, with `"pong":true`.
fn read_pong(resp: &str) -> Result<(), String> {
    let mut pong = false;
    shard_reply(resp, |r, key| {
        match key {
            "pong" => pong = matches!(r.scalar(1)?, Item::Bool(true)),
            _ => r.skip_value(1)?,
        }
        Ok(())
    })?;
    if pong {
        Ok(())
    } else {
        Err("shard response missing \"pong\":true".into())
    }
}

/// Reads the non-negative integers `keys` from an ok shard reply.
fn read_counts<const N: usize>(resp: &str, keys: [&str; N]) -> Result<[u64; N], String> {
    let mut found = [None; N];
    shard_reply(resp, |r, key| {
        match keys.iter().position(|&k| k == key) {
            Some(i) => found[i] = r.scalar(1)?.as_u64(),
            None => r.skip_value(1)?,
        }
        Ok(())
    })?;
    let mut counts = [0; N];
    for ((count, n), key) in counts.iter_mut().zip(found).zip(keys) {
        *count = n.ok_or_else(|| format!("shard response missing \"{key}\""))?;
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_machine_walks_down_and_back_up() {
        let shard = Shard::new("test");
        shard.record_failure(3);
        assert_eq!(shard.health(), ShardHealth::Degraded);
        shard.record_failure(3);
        assert_eq!(shard.health(), ShardHealth::Degraded);
        shard.record_failure(3);
        assert_eq!(shard.health(), ShardHealth::Down);
        // Half-open: one probe success re-admits on probation...
        shard.record_success(3);
        assert_eq!(shard.health(), ShardHealth::Degraded);
        // ...where a single failure re-trips the breaker...
        shard.record_failure(3);
        assert_eq!(shard.health(), ShardHealth::Down);
        // ...and a success streak goes Down → Degraded → Up.
        shard.record_success(3);
        shard.record_success(3);
        assert_eq!(shard.health(), ShardHealth::Up);
    }

    /// A spent budget dials nothing and charges nothing (a scatter's slower
    /// siblings used it up before this shard's turn): nothing dialled or
    /// sent, no failure charged — with `down_after` 1 a charge would trip
    /// the breaker.
    #[test]
    fn a_budget_spent_waiting_for_the_lock_is_not_charged_to_the_shard() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let shard = Arc::new(Shard::new(&listener.local_addr().unwrap().to_string()));
        let fleet = Fleet {
            shards: vec![Arc::clone(&shard)],
            cfg: FleetConfig {
                down_after: 1,
                ..FleetConfig::default()
            },
            stop: Arc::new(AtomicBool::new(false)),
            prober: Mutex::new(None),
            ticket: AtomicU64::new(0),
            cache: Mutex::new(LruCache::new(1)),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
        };
        let spent = Instant::now();
        let e = fleet
            .call_shard(&shard, &encode_frame(b"{\"op\":\"ping\"}"), spent, None)
            .unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::TimedOut);
        assert_eq!(shard.health(), ShardHealth::Up);
        assert!(shard.idle.lock().unwrap().is_empty());
        let dialled = listener.accept();
        assert!(dialled.is_err(), "{dialled:?}");
    }

    #[test]
    fn jitter_stream_is_deterministic_and_in_range() {
        let a: Vec<u64> = (0..64).map(|n| splitmix64(0x5EED ^ n)).collect();
        let b: Vec<u64> = (0..64).map(|n| splitmix64(0x5EED ^ n)).collect();
        assert_eq!(a, b);
        for n in 0..1000u64 {
            let j = (splitmix64(7 ^ n) >> 11) as f64 / (1u64 << 53) as f64;
            assert!((0.0..1.0).contains(&j), "{j}");
        }
    }

    #[test]
    fn downstream_response_readers() {
        let hits = read_hits(&format!(
            "{{\"ok\":true,\"hits_bits\":\"{:016x}{:016x}{:016x}{:016x}\"}}",
            7u64,
            0.125f64.to_bits(),
            u64::MAX,
            2.5f64.to_bits()
        ))
        .unwrap();
        assert_eq!(hits, vec![(7, 0.125), (u64::MAX, 2.5)]);
        assert_eq!(
            read_counts("{\"ok\":true,\"sealed\":42}", ["sealed"]),
            Ok([42])
        );
        assert_eq!(
            read_counts("{\"ok\":true,\"size\":1}", ["size", "buffer"]),
            Err("shard response missing \"buffer\"".into())
        );
        for (resp, err) in [
            ("{\"ok\":false,\"error\":\"boom\"}", "boom"),
            ("{\"ok\":1,\"hits_bits\":\"\"}", "shard reported an error"),
            (
                "{\"ok\":true,\"hits\":[]}",
                "shard response missing \"hits_bits\"",
            ),
            (
                "{\"ok\":true,\"hits_bits\":\"0\"}",
                "shard response \"hits_bits\" length must be a multiple of 32",
            ),
            (
                "{\"ok\":true,\"hits_bits\":[]}",
                "shard response \"hits_bits\" must be a string of hex digits",
            ),
            (
                "{\"ok\":true,\"hits_bits\":\"\"",
                "malformed shard response: expected ',' or '}' at byte 25",
            ),
        ] {
            assert_eq!(read_hits(resp).unwrap_err(), err, "{resp}");
        }
        // An `embed` leg's reply: the exact embedding, or the shard's error.
        assert_eq!(
            read_vec("{\"ok\":true,\"vec_bits\":\"3f80000040200000\"}"),
            Ok(vec![1.0, 2.5])
        );
        for (resp, err) in [
            ("{\"ok\":false,\"error\":\"no points\"}", "no points"),
            (
                "{\"ok\":true,\"embedding\":[1]}",
                "shard response missing \"vec_bits\"",
            ),
            (
                "{\"ok\":true,\"vec_bits\":\"3f80\"}",
                "shard response \"vec_bits\" length must be a multiple of 8",
            ),
            (
                "{\"ok\":true,\"vec_bits\":null}",
                "shard response \"vec_bits\" must be a string of hex digits",
            ),
        ] {
            assert_eq!(read_vec(resp).unwrap_err(), err, "{resp}");
        }
        // The prober's `ping` reply goes through the same reader.
        assert_eq!(read_pong("{\"req\":1,\"ok\":true,\"pong\":true}"), Ok(()));
        for (resp, err) in [
            ("{\"ok\":false,\"error\":\"draining\"}", "draining"),
            ("{\"ok\":true}", "shard response missing \"pong\":true"),
            (
                "{\"ok\":true,\"pong\":false}",
                "shard response missing \"pong\":true",
            ),
            (
                "{\"ok\":true,\"pong\":1}",
                "shard response missing \"pong\":true",
            ),
            (
                "{\"ok\":true,\"pong\":true",
                "malformed shard response: expected ',' or '}' at byte 22",
            ),
            (
                "{\"ok\":true,\"pong\":true}}",
                "malformed shard response: trailing characters at byte 23",
            ),
        ] {
            assert_eq!(read_pong(resp).unwrap_err(), err, "{resp}");
        }
    }
}
