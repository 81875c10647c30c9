//! Deterministic fault injection for the serve wire protocol.
//!
//! [`ChaosProxy`] sits between a protocol client and a server (or
//! between a fleet front-end and a shard), forwarding frames in both
//! directions and injecting faults according to a seeded [`ChaosPlan`]:
//!
//! * [`Fault::Drop`] — swallow the frame (the peer waits until its read
//!   deadline fires);
//! * [`Fault::Delay`] — forward after a fixed sleep (exercises deadline
//!   budgets without killing anything);
//! * [`Fault::Garble`] — corrupt one payload byte to `0xFF` (invalid
//!   UTF-8, so the receiver's frame reader rejects it deterministically
//!   and the connection dies the documented framing-error death);
//! * [`Fault::Truncate`] — send the header and half the payload, then
//!   sever the connection mid-frame;
//!
//! plus [`ChaosPlan::kill_after_frames`], which severs the connection
//! outright after N forwarded frames — the SIGKILL-equivalent for one
//! connection.
//!
//! Determinism is the design constraint: whether frame `i` of
//! connection `c` in direction `d` is faulted is a pure function of
//! `(seed, c, d, i)` ([`ChaosPlan::fault_for`]), so a failing chaos run
//! replays exactly from its seed. No wall clock, no global RNG.
//!
//! The proxy is test infrastructure — TCP only, one listener, no
//! backpressure games — but it lives in the library (not `#[cfg(test)]`)
//! so the chaos suite and doc examples share one implementation.

use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use trajcl_index::splitmix64;

use crate::proto::{encode_frame, read_frame};

/// One injected fault (see module docs for each variant's effect).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Swallow the frame.
    Drop,
    /// Forward the frame after [`ChaosPlan::delay`].
    Delay,
    /// Corrupt one payload byte to invalid UTF-8, then forward.
    Garble,
    /// Forward the header and half the payload, then sever.
    Truncate,
}

/// A seeded fault schedule: per-mille rates per fault kind, applied per
/// forwarded frame. Rates are checked in the order drop, garble,
/// truncate, delay against one roll in `0..1000`, so their sum must
/// stay ≤ 1000.
#[derive(Clone, Copy, Debug)]
pub struct ChaosPlan {
    /// Seed of the per-frame fault stream.
    pub seed: u64,
    /// Frames dropped, per mille.
    pub drop_per_mille: u16,
    /// Frames garbled, per mille.
    pub garble_per_mille: u16,
    /// Frames truncated (connection severed), per mille.
    pub truncate_per_mille: u16,
    /// Frames delayed by [`ChaosPlan::delay`], per mille.
    pub delay_per_mille: u16,
    /// The [`Fault::Delay`] duration.
    pub delay: Duration,
    /// Sever the connection after this many forwarded frames (both
    /// directions counted together); `None` disables.
    pub kill_after_frames: Option<u64>,
}

impl ChaosPlan {
    /// A fault-free plan (the proxy degenerates to a frame relay) —
    /// the baseline every chaos test perturbs from.
    pub fn none(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            drop_per_mille: 0,
            garble_per_mille: 0,
            truncate_per_mille: 0,
            delay_per_mille: 0,
            delay: Duration::ZERO,
            kill_after_frames: None,
        }
    }

    /// The fault (if any) for frame `frame` of connection `conn` in
    /// direction `dir` (0 = client→server, 1 = server→client) — a pure
    /// function, so tests can predict the schedule a seed produces.
    pub fn fault_for(&self, conn: u64, dir: u64, frame: u64) -> Option<Fault> {
        let stream = splitmix64(self.seed ^ conn.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let roll = (splitmix64(stream ^ ((frame << 1) | dir)) % 1000) as u16;
        let mut bound = self.drop_per_mille;
        if roll < bound {
            return Some(Fault::Drop);
        }
        bound += self.garble_per_mille;
        if roll < bound {
            return Some(Fault::Garble);
        }
        bound += self.truncate_per_mille;
        if roll < bound {
            return Some(Fault::Truncate);
        }
        bound += self.delay_per_mille;
        if roll < bound {
            return Some(Fault::Delay);
        }
        None
    }
}

/// A running fault-injecting TCP proxy created by [`ChaosProxy::start`].
pub struct ChaosProxy {
    local_addr: String,
    upstream: Arc<Mutex<String>>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    frames: Arc<AtomicU64>,
    faults: Arc<AtomicU64>,
}

impl ChaosProxy {
    /// Listens on a free localhost port and forwards every accepted
    /// connection to `upstream` under `plan`. Dial
    /// [`ChaosProxy::local_addr`] instead of the upstream address.
    ///
    /// # Errors
    /// Bind failures surface as [`std::io::Error`] (a bad upstream only
    /// surfaces per connection, as that connection dying).
    pub fn start(upstream: &str, plan: ChaosPlan) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?.to_string();
        let upstream = Arc::new(Mutex::new(upstream.to_string()));
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let frames = Arc::new(AtomicU64::new(0));
        let faults = Arc::new(AtomicU64::new(0));
        let accept = {
            let upstream = Arc::clone(&upstream);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let frames = Arc::clone(&frames);
            let faults = Arc::clone(&faults);
            std::thread::spawn(move || {
                let mut conn_id: u64 = 0;
                loop {
                    let client = match listener.accept() {
                        Ok((s, _)) => s,
                        Err(_) if stop.load(Ordering::Acquire) => return,
                        Err(_) => continue,
                    };
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    let target = upstream.lock().unwrap_or_else(|p| p.into_inner()).clone();
                    let Ok(server) = TcpStream::connect(&target) else {
                        // Upstream gone: the dialler sees its connection
                        // close immediately, exactly like a dead shard.
                        continue;
                    };
                    let _ = client.set_nodelay(true);
                    let _ = server.set_nodelay(true);
                    spawn_relay(
                        conn_id,
                        &client,
                        &server,
                        plan,
                        Arc::clone(&frames),
                        Arc::clone(&faults),
                    );
                    let mut reg = conns.lock().unwrap_or_else(|p| p.into_inner());
                    reg.push(client);
                    reg.push(server);
                    conn_id += 1;
                }
            })
        };
        Ok(ChaosProxy {
            local_addr,
            upstream,
            stop,
            accept: Some(accept),
            conns,
            frames,
            faults,
        })
    }

    /// Re-points NEW connections at a different upstream address — the
    /// "shard restarted on a fresh port behind a stable front address"
    /// event. Existing proxied connections keep their old upstream;
    /// [`ChaosProxy::sever_all`] cuts them over.
    pub fn set_upstream(&self, addr: &str) {
        *self.upstream.lock().unwrap_or_else(|p| p.into_inner()) = addr.to_string();
    }

    /// The proxy's own listening address (dial this).
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// Frames forwarded so far (both directions, faulted or not).
    pub fn frames_forwarded(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }

    /// Faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// Severs every proxied connection without stopping the listener —
    /// the "shard restarted, all its connections reset" event, or a
    /// targeted connection-kill mid-test.
    pub fn sever_all(&self) {
        let mut reg = self.conns.lock().unwrap_or_else(|p| p.into_inner());
        for s in reg.drain(..) {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Stops accepting and severs everything.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(&self.local_addr); // wake accept()
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.sever_all();
    }
}

/// Spawns the two per-direction relay threads for one proxied
/// connection (threads exit when either side closes or a fault severs
/// the connection; no join handles kept — severing the registered
/// streams unblocks them).
fn spawn_relay(
    conn_id: u64,
    client: &TcpStream,
    server: &TcpStream,
    plan: ChaosPlan,
    frames: Arc<AtomicU64>,
    faults: Arc<AtomicU64>,
) {
    let conn_frames = Arc::new(AtomicU64::new(0));
    for dir in 0..2u64 {
        let (Ok(src), Ok(dst)) = (
            if dir == 0 { client } else { server }.try_clone(),
            if dir == 0 { server } else { client }.try_clone(),
        ) else {
            return;
        };
        let frames = Arc::clone(&frames);
        let faults = Arc::clone(&faults);
        let conn_frames = Arc::clone(&conn_frames);
        std::thread::spawn(move || {
            relay_frames(conn_id, dir, src, dst, plan, frames, faults, conn_frames);
        });
    }
}

/// One direction's frame loop: read a frame, consult the plan, forward
/// (possibly corrupted). Returns when the source closes, a fault
/// severs the connection, or the kill budget is spent.
#[allow(clippy::too_many_arguments)]
fn relay_frames(
    conn_id: u64,
    dir: u64,
    src: TcpStream,
    dst: TcpStream,
    plan: ChaosPlan,
    frames: Arc<AtomicU64>,
    faults: Arc<AtomicU64>,
    conn_frames: Arc<AtomicU64>,
) {
    let mut reader = BufReader::new(src);
    let mut writer = dst;
    let mut frame_idx: u64 = 0;
    // EOF, a severed socket, or a peer writing garbage all end the loop:
    // the close is relayed below.
    while let Ok(Some(payload)) = read_frame(&mut reader) {
        let total = conn_frames.fetch_add(1, Ordering::AcqRel);
        if plan.kill_after_frames.is_some_and(|n| total >= n) {
            faults.fetch_add(1, Ordering::Relaxed);
            break;
        }
        frames.fetch_add(1, Ordering::Relaxed);
        let fault = plan.fault_for(conn_id, dir, frame_idx);
        frame_idx += 1;
        if fault.is_some() {
            faults.fetch_add(1, Ordering::Relaxed);
        }
        match fault {
            Some(Fault::Drop) => continue,
            Some(Fault::Delay) => {
                std::thread::sleep(plan.delay);
                if write_raw(&mut writer, payload.as_bytes()).is_err() {
                    break;
                }
            }
            Some(Fault::Garble) => {
                // One byte of invalid UTF-8: the receiver's frame reader
                // must reject the payload and kill the connection.
                let mut bytes = payload.into_bytes();
                let pos = (splitmix64(plan.seed ^ frame_idx) % bytes.len().max(1) as u64) as usize;
                if let Some(b) = bytes.get_mut(pos) {
                    *b = 0xFF;
                }
                if write_raw(&mut writer, &bytes).is_err() {
                    break;
                }
            }
            Some(Fault::Truncate) => {
                // Promise the full length, deliver half, vanish.
                let bytes = payload.as_bytes();
                let _ = writeln!(writer, "{}", bytes.len());
                let _ = writer.write_all(&bytes[..bytes.len() / 2]);
                let _ = writer.flush();
                break;
            }
            None => {
                if write_raw(&mut writer, payload.as_bytes()).is_err() {
                    break;
                }
            }
        }
    }
    // Sever both halves so the peer direction's thread unblocks too.
    let _ = writer.shutdown(std::net::Shutdown::Both);
    let _ = reader.get_ref().shutdown(std::net::Shutdown::Both);
}

/// Writes one frame from raw bytes (unlike
/// [`crate::proto::write_frame`], the payload may be invalid UTF-8 —
/// garbling depends on it).
fn write_raw(writer: &mut TcpStream, payload: &[u8]) -> std::io::Result<()> {
    writer.write_all(&encode_frame(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_schedule_is_deterministic_and_rate_shaped() {
        let plan = ChaosPlan {
            drop_per_mille: 100,
            garble_per_mille: 50,
            truncate_per_mille: 25,
            delay_per_mille: 125,
            ..ChaosPlan::none(42)
        };
        let first: Vec<_> = (0..4000).map(|f| plan.fault_for(3, 1, f)).collect();
        let second: Vec<_> = (0..4000).map(|f| plan.fault_for(3, 1, f)).collect();
        assert_eq!(first, second);
        let count = |want: Fault| first.iter().filter(|f| **f == Some(want)).count();
        // ~10%/5%/2.5%/12.5% of 4000, generous tolerance.
        assert!(
            (250..=550).contains(&count(Fault::Drop)),
            "{}",
            count(Fault::Drop)
        );
        assert!((100..=300).contains(&count(Fault::Garble)));
        assert!((40..=170).contains(&count(Fault::Truncate)));
        assert!((330..=670).contains(&count(Fault::Delay)));
        // Different connections and directions see different schedules.
        let other: Vec<_> = (0..4000).map(|f| plan.fault_for(4, 1, f)).collect();
        assert_ne!(first, other);
        let flipped: Vec<_> = (0..4000).map(|f| plan.fault_for(3, 0, f)).collect();
        assert_ne!(first, flipped);
    }

    #[test]
    fn fault_free_plan_injects_nothing() {
        let plan = ChaosPlan::none(7);
        assert!((0..1000).all(|f| plan.fault_for(0, 0, f).is_none()));
    }
}
