//! The wire protocol of `trajcl serve`: length-prefixed JSON frames over
//! any byte stream — a TCP or unix socket via [`net`](crate::net), or
//! stdin/stdout in the CLI's degenerate single-connection mode.
//!
//! The normative wire-format specification lives in `PROTOCOL.md` at the
//! repository root (exact frame bytes, per-op request/response schemas,
//! error frames, pipelining and shard-routing rules); this module is the
//! reference implementation and the table below is a summary.
//!
//! A frame is the payload's byte length in ASCII decimal, a newline, the
//! JSON payload, and a closing newline:
//!
//! ```text
//! 43
//! {"op":"knn","traj":[[0,0],[100,50]],"k":3}
//! ```
//!
//! Requests are flat JSON objects with an `"op"` discriminator; responses
//! are flat objects with `"ok"` plus op-specific fields, `distance` keys
//! matching the CLI's existing `--json` output. An optional numeric
//! `"req"` field is echoed back verbatim so pipelined callers can match
//! responses to requests regardless of completion order. Errors are
//! in-band: `{"ok":false,"error":"..."}` with the request's echo.
//!
//! Each payload is decoded once, by [`Request::decode`], straight into its
//! types: trajectories into points, `k`/`id`/`req` into exact integers. No
//! JSON tree is built. A grammar error anywhere answers `malformed JSON`;
//! a field of the wrong shape is answered in-band only when the op reads
//! it, in the order [`handle`] checks fields.
//!
//! A `knn` may carry its query as `traj_bits` instead of `traj`: each
//! coordinate's IEEE-754 bits as 16 lowercase hex digits ([`traj_bits`]).
//! It is answered with `hits_bits`, each hit's id and distance bits the
//! same way. Or it may carry the query's embedding as `vec_bits`, each
//! f32's bits as 8 lowercase hex digits ([`vec_bits`]): searched as it
//! is, with no cache lookup and no forward pass, and answered with
//! `hits_bits`. An `embed` sent `traj_bits` answers with the exact
//! `vec_bits`. A fleet front-end embeds a query once that way, then sends
//! every shard its `vec_bits` and merges on exact distances.
//!
//! | op | request fields | response fields |
//! |----|----------------|-----------------|
//! | `ping`     | —                 | `pong` (always `true`) |
//! | `embed`    | `traj` or `traj_bits` | `embedding` (f32 array), or `vec_bits` |
//! | `knn`      | `traj`, `traj_bits` or `vec_bits`, `k` | `hits`: `[{rank,index,distance}]`, or `hits_bits` |
//! | `distance` | `a`, `b`          | `distance` |
//! | `upsert`   | `id`, `traj`      | `replaced` (bool) |
//! | `remove`   | `id`              | `removed` (bool) |
//! | `compact`  | —                 | `sealed` (live vectors re-sealed) |
//! | `stats`    | —                 | `size`, `buffer`, `generation`, `memory_bytes`, `shards`, `requests`, `batches`, `cache_hits`, `cache_misses`, `wal_log_bytes` |
//!
//! `ping` is the health probe: constant cost, answered without touching
//! the engine, the index, or any lock — a wedged compaction or every
//! forward permit taken cannot delay it. Fleet front-ends probe downstream
//! shard health with it (DESIGN.md §14); load balancers can too.
//!
//! `knn` distances are exact f32 L1 for unquantized indexes and for
//! quantized hits the server rescores against the engine's cached table
//! (every id seeded from it and not re-upserted since); ids upserted over
//! the wire keep quantized (error-bounded) distances — see
//! `ShardRouter::search`.

// A codec module (DESIGN.md §11.2): no cast in its non-test code may
// truncate, wrap, drop a sign or round.
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )
)]

use std::borrow::Cow;
use std::fmt::Write as _;
use std::io::{BufRead, Write};

use trajcl_geo::{Point, Trajectory};

use crate::json::{escape, Item, Reader};
use crate::server::Server;

/// Largest accepted frame payload (a ~100k-point trajectory is ~2 MB of
/// JSON); bigger headers are rejected before any allocation happens.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Largest accepted header line. A valid header is the ASCII decimal of a
/// length `<= MAX_FRAME_LEN` (8 digits) plus a newline; reading the line
/// through a [`std::io::Read::take`] of this size keeps a hostile
/// newline-less stream from growing the header string without bound.
const MAX_HEADER_LEN: usize = 64;

/// Largest accepted `k` for a `knn` request: bounds the per-request
/// result-heap allocation no matter what the wire claims.
pub const MAX_K: usize = 16 * 1024;

/// Reads one frame's payload; `Ok(None)` on clean end-of-stream.
///
/// # Examples
///
/// ```
/// use std::io::Cursor;
/// use trajcl_serve::proto::read_frame;
///
/// // `LEN\n{json}\n` — exactly what `write_frame` produces.
/// let mut stream = Cursor::new(b"14\n{\"op\":\"stats\"}\n".to_vec());
/// assert_eq!(read_frame(&mut stream).unwrap().unwrap(), "{\"op\":\"stats\"}");
/// assert!(read_frame(&mut stream).unwrap().is_none()); // end-of-stream
///
/// // A non-numeric header is an error, not a hang.
/// let mut bad = Cursor::new(b"banana\n{}\n".to_vec());
/// assert!(read_frame(&mut bad).is_err());
/// ```
pub fn read_frame(reader: &mut impl BufRead) -> std::io::Result<Option<String>> {
    let mut header = String::new();
    loop {
        header.clear();
        // The limit applies per header line; `Take` over `&mut *reader`
        // still drains the underlying stream position.
        let mut limited = std::io::Read::take(&mut *reader, MAX_HEADER_LEN as u64);
        if limited.read_line(&mut header)? == 0 {
            return Ok(None);
        }
        if header.len() >= MAX_HEADER_LEN && !header.ends_with('\n') {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("frame header longer than {MAX_HEADER_LEN} bytes"),
            ));
        }
        if !header.trim().is_empty() {
            break;
        }
        // Blank lines between frames are tolerated.
    }
    let len: usize = header
        .trim()
        .parse()
        .ok()
        .filter(|&n| n <= MAX_FRAME_LEN)
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad frame header {:?} (max {MAX_FRAME_LEN})", header.trim()),
            )
        })?;
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    let payload = String::from_utf8(payload)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 frame"))?;
    // Consume the trailing newline when present (ragged last frame is ok).
    let mut nl = [0u8; 1];
    match reader.read_exact(&mut nl) {
        Ok(()) if nl[0] != b'\n' => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "frame payload not followed by newline",
            ))
        }
        _ => {}
    }
    Ok(Some(payload))
}

/// Writes one frame, as a single `write` of the whole frame (PROTOCOL.md
/// §1: senders should not split a frame; receivers accept any split).
///
/// # Examples
///
/// ```
/// use trajcl_serve::proto::{read_frame, write_frame};
///
/// let mut buf = Vec::new();
/// write_frame(&mut buf, r#"{"req":1,"op":"compact"}"#).unwrap();
/// assert!(buf.starts_with(b"24\n")); // byte length, newline, payload
///
/// let mut reader = &buf[..];
/// assert_eq!(
///     read_frame(&mut reader).unwrap().unwrap(),
///     r#"{"req":1,"op":"compact"}"#
/// );
/// ```
pub fn write_frame(writer: &mut impl Write, payload: &str) -> std::io::Result<()> {
    writer.write_all(&encode_frame(payload.as_bytes()))?;
    writer.flush()
}

/// One frame's bytes in one buffer: written piecewise to a raw socket, each
/// piece is a syscall and, under `TCP_NODELAY`, a segment the peer wakes for.
pub(crate) fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(payload.len() + 22); // 20 digits of a u64 + 2 × `\n`
    let _ = writeln!(frame, "{}", payload.len()); // writing into a Vec cannot fail
    frame.extend_from_slice(payload);
    frame.push(b'\n');
    frame
}

/// A field of a [`Request`]: `None` when the payload lacks it, else its
/// value or the in-band error its shape earns.
pub(crate) type Slot<T> = Option<Result<T, String>>;

/// One request payload, decoded in a single pass (PROTOCOL.md §2). Each
/// field the protocol reads has a `Slot`; a duplicate key overwrites
/// its slot, so the last one wins, and unknown keys are read past.
#[derive(Debug, Default)]
pub struct Request<'a> {
    /// The echo key: only an integer `req` has one (PROTOCOL.md §3.1).
    pub(crate) req: Option<u64>,
    /// Borrowed from the payload unless it is escaped.
    pub(crate) op: Slot<Cow<'a, str>>,
    pub(crate) traj: Slot<Trajectory>,
    /// A `knn` or `embed` query in its exact form ([`traj_bits`]).
    pub(crate) traj_bits: Slot<Trajectory>,
    /// A `knn` query already embedded ([`vec_bits`]).
    pub(crate) vec_bits: Slot<Vec<f32>>,
    pub(crate) a: Slot<Trajectory>,
    pub(crate) b: Slot<Trajectory>,
    /// Already bounded by [`MAX_K`].
    pub(crate) k: Slot<usize>,
    pub(crate) id: Slot<u64>,
}

impl<'a> Request<'a> {
    /// Decodes `payload`. `Err` is its first JSON grammar error, the
    /// same text `json::parse` gives; a field of the wrong shape is not
    /// an error here but its slot's value.
    ///
    /// # Examples
    ///
    /// ```
    /// use trajcl_serve::proto::Request;
    ///
    /// assert!(Request::decode(r#"{"op":"knn","traj":[[0,0]],"k":3}"#).is_ok());
    /// assert!(Request::decode(r#"{"op":"knn","traj":[[0,0,0]],"k":-3}"#).is_ok());
    /// assert_eq!(
    ///     Request::decode(r#"{"op":"knn","k":01}"#).unwrap_err(),
    ///     "invalid number at byte 16"
    /// );
    /// ```
    pub fn decode(payload: &'a str) -> Result<Request<'a>, String> {
        let mut request = Request::default();
        let mut r = Reader::new(payload);
        r.members(0, |r, key| {
            match &*key {
                "req" => request.req = r.scalar(1)?.as_u64(),
                "op" => {
                    request.op = Some(match r.scalar(1)? {
                        Item::Str(op) => Ok(op),
                        _ => Err("\"op\" must be a string".into()),
                    })
                }
                "traj" => request.traj = Some(points(r)?),
                "traj_bits" => {
                    request.traj_bits = Some(match r.scalar(1)? {
                        Item::Str(hex) => traj_from_bits(&hex),
                        _ => Err("\"traj_bits\" must be a string of hex digits".into()),
                    })
                }
                "vec_bits" => {
                    request.vec_bits = Some(match r.scalar(1)? {
                        Item::Str(hex) => vec_from_bits(&hex),
                        _ => Err("\"vec_bits\" must be a string of hex digits".into()),
                    })
                }
                "a" => request.a = Some(points(r)?),
                "b" => request.b = Some(points(r)?),
                "k" => {
                    let k = r.scalar(1)?.as_u64().and_then(|k| usize::try_from(k).ok());
                    request.k = Some(
                        k.filter(|&k| k <= MAX_K)
                            .ok_or_else(|| format!("\"k\" must be an integer in 0..={MAX_K}")),
                    );
                }
                "id" => {
                    request.id = Some(
                        r.scalar(1)?
                            .as_u64()
                            .ok_or_else(|| "\"id\" must be a non-negative integer".into()),
                    );
                }
                _ => r.skip_value(1)?,
            }
            Ok(())
        })?;
        r.finish()?;
        Ok(request)
    }

    /// The `"req":N,` echo prefix (empty when the request carried no `req`).
    pub(crate) fn echo(&self) -> String {
        self.req
            .map_or_else(String::new, |n| format!("\"req\":{n},"))
    }
}

/// The value in `slot`, or the error a missing `key` answers.
pub(crate) fn required<T>(slot: Slot<T>, key: &str) -> Result<T, String> {
    slot.unwrap_or_else(|| Err(format!("missing field \"{key}\"")))
}

/// A query trajectory, read where `traj` is in the field order, and
/// whether it came as `traj_bits` (so it is answered in the exact form).
pub(crate) fn traj_query(
    op: &str,
    traj: Slot<Trajectory>,
    traj_bits: Slot<Trajectory>,
) -> Result<(Trajectory, bool), String> {
    match (traj, traj_bits) {
        (Some(_), Some(_)) => Err(format!(
            "\"{op}\" takes \"traj\" or \"traj_bits\", not both"
        )),
        (None, Some(bits)) => Ok((bits?, true)),
        (traj, None) => Ok((required(traj, "traj")?, false)),
    }
}

/// What a `knn` searches for.
#[derive(Debug)]
pub(crate) enum KnnQuery {
    /// A trajectory to embed, and whether it came as `traj_bits`.
    Traj(Trajectory, bool),
    /// An embedding (`vec_bits`), searched as it is.
    Vec(Vec<f32>),
}

impl KnnQuery {
    /// Whether the reply takes the exact form (`hits_bits`).
    pub(crate) fn bits(&self) -> bool {
        !matches!(self, KnnQuery::Traj(_, false))
    }
}

/// A `knn`'s query, read where `traj` is in the field order: one of
/// `traj`, `traj_bits` and `vec_bits`.
pub(crate) fn knn_query(
    traj: Slot<Trajectory>,
    traj_bits: Slot<Trajectory>,
    vec_bits: Slot<Vec<f32>>,
) -> Result<KnnQuery, String> {
    match vec_bits {
        Some(_) if traj.is_some() || traj_bits.is_some() => {
            Err("\"knn\" takes \"vec_bits\" or a trajectory, not both".into())
        }
        Some(vec) => Ok(KnnQuery::Vec(vec?)),
        None => traj_query("knn", traj, traj_bits).map(|(traj, bits)| KnnQuery::Traj(traj, bits)),
    }
}

/// Reads a member's `[[x,y],...]` into a trajectory. A wrong shape is the
/// slot's error — the first one in the text — and the rest of the value
/// is still read, so a later grammar error is still found.
fn points(r: &mut Reader<'_>) -> Result<Result<Trajectory, String>, String> {
    let mut points = Vec::new();
    let mut shape = None;
    let mut i = 0usize;
    let is_array = r.elements(1, |r| {
        match point(r, i)? {
            Ok(p) if shape.is_none() => points.push(p),
            Err(e) if shape.is_none() => shape = Some(e),
            _ => {}
        }
        i += 1;
        Ok(())
    })?;
    if !is_array {
        return Ok(Err("\"traj\" must be an array of [x,y] pairs".into()));
    }
    Ok(shape.map_or_else(|| Ok(Trajectory::new(points)), Err))
}

/// Point `i` of a trajectory: an `[x,y]` array of two numbers.
fn point(r: &mut Reader<'_>, i: usize) -> Result<Result<Point, String>, String> {
    let mut xy = [None; 2];
    let mut len = 0usize;
    r.elements(2, |r| {
        let c = r.scalar(3)?.as_f64();
        if let Some(slot) = xy.get_mut(len) {
            *slot = c;
        }
        len += 1;
        Ok(())
    })?;
    Ok(match (len, xy) {
        (2, [Some(x), Some(y)]) => Ok(Point::new(x, y)),
        (2, [None, _]) => Err(format!("point {i}: x is not a number")),
        (2, _) => Err(format!("point {i}: y is not a number")),
        _ => Err(format!("point {i} must be a two-element [x,y] array")),
    })
}

/// Prints a trajectory as the `[[x,y],...]` array [`handle`] decodes: every
/// finite coordinate in its shortest round-trip decimal, so the bits survive
/// the wire.
pub fn traj_json(t: &Trajectory) -> String {
    let pts: Vec<String> = t
        .points()
        .iter()
        .map(|p| format!("[{},{}]", p.x, p.y))
        .collect();
    format!("[{}]", pts.join(","))
}

/// Prints a trajectory as the `traj_bits` string [`handle`] decodes: per
/// point x then y, each the 16 lowercase hex digits of its IEEE-754 bits,
/// most significant first (`format!("{:016x}", x.to_bits())`).
pub fn traj_bits(t: &Trajectory) -> String {
    let words = t.points().iter().flat_map(|p| [p.x, p.y].map(f64::to_bits));
    hex_words(2 * t.len(), 16, words)
}

/// Prints an embedding as the `vec_bits` string [`handle`] decodes: per
/// value the 8 lowercase hex digits of its IEEE-754 binary32 bits, most
/// significant first (`format!("{:08x}", v.to_bits())`).
pub fn vec_bits(v: &[f32]) -> String {
    hex_words(v.len(), 8, v.iter().map(|x| u64::from(x.to_bits())))
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Each byte's value as a lowercase hex digit; `0xff` for any other byte.
const HEX_VALUES: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut d: u8 = 0;
    while d < 16 {
        table[HEX_DIGITS[d as usize] as usize] = d;
        d += 1;
    }
    table
};

/// `len` words as `width` hex digits each, most significant first.
fn hex_words(len: usize, width: usize, words: impl Iterator<Item = u64>) -> String {
    let mut hex = String::with_capacity(width * len);
    for word in words {
        let _ = write!(hex, "{word:0width$x}"); // writing into a String cannot fail
    }
    hex
}

/// The word 16 lowercase hex digits spell, most significant first.
fn hex_word(digits: &[u8]) -> Option<u64> {
    let mut word = 0u64;
    let mut bad = 0u8;
    for &c in digits {
        let d = HEX_VALUES[usize::from(c)];
        bad |= d;
        word = word << 4 | u64::from(d);
    }
    (bad < 16).then_some(word)
}

/// `hex` as pairs of words, 32 digits a pair: `Err` for a length that is not
/// a multiple of 32, then per pair for one that is not 32 hex digits.
fn hex_pairs<'h>(
    hex: &'h str,
    field: &'static str,
    item: &'static str,
) -> Result<impl Iterator<Item = Result<(u64, u64), String>> + 'h, String> {
    let bytes = hex.as_bytes();
    if !bytes.len().is_multiple_of(32) {
        return Err(format!("\"{field}\" length must be a multiple of 32"));
    }
    Ok(bytes.chunks_exact(32).enumerate().map(move |(i, pair)| {
        let (a, b) = pair.split_at(16);
        hex_word(a)
            .zip(hex_word(b))
            .ok_or_else(|| format!("\"{field}\" {item} {i}: not 32 lowercase hex digits"))
    }))
}

fn traj_from_bits(hex: &str) -> Result<Trajectory, String> {
    let mut points = Vec::with_capacity(hex.len() / 32);
    for (i, pair) in hex_pairs(hex, "traj_bits", "point")?.enumerate() {
        let (x, y) = pair?;
        let (x, y) = (f64::from_bits(x), f64::from_bits(y));
        match (x.is_finite(), y.is_finite()) {
            (true, true) => points.push(Point::new(x, y)),
            (false, _) => return Err(format!("\"traj_bits\" point {i}: x is not finite")),
            (true, false) => return Err(format!("\"traj_bits\" point {i}: y is not finite")),
        }
    }
    Ok(Trajectory::new(points))
}

/// Reads a `vec_bits` string back into its values: `Err` for a length
/// that is not a multiple of 8, then for the first value that is not 8
/// hex digits or not finite.
pub(crate) fn vec_from_bits(hex: &str) -> Result<Vec<f32>, String> {
    let bytes = hex.as_bytes();
    if !bytes.len().is_multiple_of(8) {
        return Err("\"vec_bits\" length must be a multiple of 8".into());
    }
    let value = |(i, digits): (usize, &[u8])| {
        let x = hex_word(digits)
            .and_then(|word| u32::try_from(word).ok())
            .map(f32::from_bits)
            .ok_or_else(|| format!("\"vec_bits\" value {i}: not 8 lowercase hex digits"))?;
        if x.is_finite() {
            Ok(x)
        } else {
            Err(format!("\"vec_bits\" value {i}: not finite"))
        }
    };
    bytes.chunks_exact(8).enumerate().map(value).collect()
}

/// A `knn` reply's hits: the text `hits` array, or with `bits` the
/// `hits_bits` string, per hit the id's u64 then the distance's f64 bits.
pub(crate) fn hits_field(hits: &[(u64, f64)], bits: bool) -> String {
    if bits {
        let words = hits.iter().flat_map(|&(id, dist)| [id, dist.to_bits()]);
        return format!("\"hits_bits\":\"{}\"", hex_words(2 * hits.len(), 16, words));
    }
    let rows: Vec<String> = hits
        .iter()
        .enumerate()
        .map(|(rank, (id, dist))| {
            format!(
                "{{\"rank\":{},\"index\":{id},\"distance\":{dist:.6}}}",
                rank + 1
            )
        })
        .collect();
    format!("\"hits\":[{}]", rows.join(","))
}

/// Reads a `hits_bits` string back into `(id, distance)` pairs.
pub(crate) fn hits_from_bits(hex: &str) -> Result<Vec<(u64, f64)>, String> {
    let mut hits = Vec::with_capacity(hex.len() / 32);
    for (i, pair) in hex_pairs(hex, "hits_bits", "hit")?.enumerate() {
        let (id, dist) = pair?;
        let dist = f64::from_bits(dist);
        if !dist.is_finite() {
            return Err(format!("\"hits_bits\" hit {i}: distance is not finite"));
        }
        hits.push((id, dist));
    }
    Ok(hits)
}

pub(crate) fn err_response(echo: &str, msg: &str) -> String {
    format!("{{{echo}\"ok\":false,\"error\":\"{}\"}}", escape(msg))
}

/// Executes one request payload against `server`, returning the response
/// payload (errors are in-band: `{"ok":false,"error":...}`).
pub fn handle(server: &Server, payload: &str) -> String {
    handle_passing(server, payload, &|| {})
}

/// [`handle`] inside a session: `pass` runs before the request may wait —
/// once before a cache miss's forward, and before every `upsert`,
/// `remove` and `compact` (a writer lock, a k-means, an fsync). A
/// cache hit, `ping` and `stats` never call it
/// ([`crate::net::FrameHandler::handle_session_frame`]).
pub(crate) fn handle_passing(server: &Server, payload: &str, pass: &dyn Fn()) -> String {
    let request = match Request::decode(payload) {
        Ok(request) => request,
        Err(e) => return err_response("", &format!("malformed JSON: {e}")),
    };
    let echo = request.echo();
    match dispatch(server, request, pass) {
        Ok(body) => format!("{{{echo}\"ok\":true,{body}}}"),
        Err(msg) => err_response(&echo, &msg),
    }
}

fn dispatch(server: &Server, request: Request<'_>, pass: &dyn Fn()) -> Result<String, String> {
    match &*required(request.op, "op")? {
        // The health probe: answered from this match arm alone — no
        // engine call, no index snapshot, no lock, no counters — so it
        // stays honest about liveness even when the data path is wedged.
        "ping" => Ok("\"pong\":true".to_string()),
        "embed" => {
            let (traj, bits) = traj_query("embed", request.traj, request.traj_bits)?;
            let e = server
                .embed_passing(&traj, pass)
                .map_err(|e| e.to_string())?;
            if bits {
                return Ok(format!("\"vec_bits\":\"{}\"", vec_bits(&e)));
            }
            let vals: Vec<String> = e.iter().map(|v| format!("{v:.6}")).collect();
            Ok(format!("\"embedding\":[{}]", vals.join(",")))
        }
        "knn" => {
            let query = knn_query(request.traj, request.traj_bits, request.vec_bits)?;
            let k = required(request.k, "k")?;
            let bits = query.bits();
            let hits = match query {
                KnnQuery::Traj(traj, _) => server.knn_passing(&traj, k, pass),
                KnnQuery::Vec(vec) => server.knn_vec(&vec, k),
            };
            Ok(hits_field(&hits.map_err(|e| e.to_string())?, bits))
        }
        "distance" => {
            let a = required(request.a, "a")?;
            let b = required(request.b, "b")?;
            let d = server
                .distance_passing(&a, &b, pass)
                .map_err(|e| e.to_string())?;
            Ok(format!("\"distance\":{d:.6}"))
        }
        "upsert" => {
            let id = required(request.id, "id")?;
            let traj = required(request.traj, "traj")?;
            pass();
            let replaced = server.upsert(id, &traj).map_err(|e| e.to_string())?;
            Ok(format!("\"replaced\":{replaced}"))
        }
        "remove" => {
            let id = required(request.id, "id")?;
            pass();
            let removed = server.remove(id).map_err(|e| e.to_string())?;
            Ok(format!("\"removed\":{removed}"))
        }
        "compact" => {
            pass();
            let sealed = server.compact().map_err(|e| e.to_string())?;
            Ok(format!("\"sealed\":{sealed}"))
        }
        "stats" => {
            let s = server.stats();
            Ok(format!(
                "\"size\":{},\"buffer\":{},\"generation\":{},\"memory_bytes\":{},\"shards\":{},\"requests\":{},\"batches\":{},\"cache_hits\":{},\"cache_misses\":{},\"wal_log_bytes\":{}",
                s.index_len,
                s.buffer_len,
                s.generation,
                s.index_memory_bytes,
                s.shards,
                s.requests,
                s.batches,
                s.cache_hits,
                s.cache_misses,
                s.wal_log_bytes,
            ))
        }
        other => Err(format!("unknown op {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, r#"{"op":"stats"}"#).unwrap();
        write_frame(&mut buf, r#"{"op":"compact"}"#).unwrap();
        let mut reader = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut reader).unwrap().unwrap(),
            r#"{"op":"stats"}"#
        );
        assert_eq!(
            read_frame(&mut reader).unwrap().unwrap(),
            r#"{"op":"compact"}"#
        );
        assert!(read_frame(&mut reader).unwrap().is_none());
    }

    /// Counts `write` calls (and accepts every byte of each).
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_of_the_documented_bytes() {
        for len in [0usize, 24, 64 * 1024] {
            let payload = "x".repeat(len);
            let mut out = CountingWriter {
                bytes: Vec::new(),
                writes: 0,
            };
            write_frame(&mut out, &payload).unwrap();
            assert_eq!(out.writes, 1, "{len}-byte payload");
            assert_eq!(out.bytes, format!("{len}\n{payload}\n").into_bytes());
        }
    }

    /// Hands out its bytes in chunks of at most `chunk` per `read`.
    struct Chunked {
        bytes: Vec<u8>,
        pos: usize,
        chunk: usize,
    }

    impl std::io::Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.bytes.len() - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_accepts_any_segmentation() {
        let payloads = [r#"{"op":"stats"}"#, "", r#"{"req":7,"op":"ping"}"#];
        let mut bytes = Vec::new();
        for p in payloads {
            write_frame(&mut bytes, p).unwrap();
        }
        bytes.pop(); // ragged last frame: the stream ends after the payload
        for chunk in [1, 3, bytes.len()] {
            // A byte at a time, ragged thirds, all three frames at once.
            let mut reader = std::io::BufReader::new(Chunked {
                bytes: bytes.clone(),
                pos: 0,
                chunk,
            });
            for p in payloads {
                assert_eq!(
                    read_frame(&mut reader).unwrap().unwrap(),
                    p,
                    "chunk {chunk}"
                );
            }
            assert!(read_frame(&mut reader).unwrap().is_none());
        }
    }

    #[test]
    fn frame_reader_rejects_garbage_headers() {
        let mut reader = Cursor::new(b"banana\n{}\n".to_vec());
        assert!(read_frame(&mut reader).is_err());
        // An absurd length must be rejected BEFORE any allocation.
        let mut reader = Cursor::new(b"9999999999999\n{}\n".to_vec());
        assert!(read_frame(&mut reader).is_err());
    }

    #[test]
    fn frame_reader_bounds_the_header_line() {
        // Fuzz regression: a newline-less stream used to accumulate into
        // the header string without bound; now it fails at MAX_HEADER_LEN.
        let mut reader = Cursor::new(vec![b'1'; 4096]);
        assert!(read_frame(&mut reader).is_err());
        // A maximum-length legitimate header still works.
        let payload = "x".repeat(9);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut reader = Cursor::new(buf);
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), payload);
    }

    #[test]
    fn frame_reader_tolerates_blank_lines() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"\n\n");
        write_frame(&mut buf, "{}").unwrap();
        let mut reader = Cursor::new(buf);
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), "{}");
    }

    /// The `traj` slot of a payload holding only `traj`.
    fn traj_slot(traj: &str) -> Result<Trajectory, String> {
        let payload = format!("{{\"traj\":{traj}}}");
        required(Request::decode(&payload).unwrap().traj, "traj")
    }

    #[test]
    fn decode_validates_traj_shape() {
        assert_eq!(traj_slot("[[1,2],[3,4]]").unwrap().len(), 2);
        assert_eq!(traj_slot("[]").unwrap().len(), 0);
        for (traj, err) in [
            ("[[1,2],[3]]", "point 1 must be a two-element [x,y] array"),
            ("[[1,2,3]]", "point 0 must be a two-element [x,y] array"),
            ("[1,2]", "point 0 must be a two-element [x,y] array"),
            ("[[\"a\",2]]", "point 0: x is not a number"),
            ("[[1,null],[\"a\",2]]", "point 0: y is not a number"),
            (
                "[[1,2],{\"x\":1}]",
                "point 1 must be a two-element [x,y] array",
            ),
            ("\"x\"", "\"traj\" must be an array of [x,y] pairs"),
            ("{}", "\"traj\" must be an array of [x,y] pairs"),
        ] {
            assert_eq!(traj_slot(traj).unwrap_err(), err, "{traj}");
        }
        // A shape error does not stop the read: a later grammar error wins.
        assert_eq!(
            Request::decode(r#"{"traj":[[1],[2,x]]}"#).unwrap_err(),
            "invalid number at byte 16"
        );

        // What `traj_json` prints, the decoder reads back bit for bit:
        // edge values, then random bit patterns (the finite ones).
        let mut coords = vec![0.0, -0.0, 0.1 + 0.2, 1.0 / 3.0, 1234.56, -9_999.99];
        coords.extend([f64::MAX, f64::MIN_POSITIVE, 5e-324, -1e-300, 1e21]);
        coords.extend(
            (0..256u64)
                .map(|n| f64::from_bits(trajcl_index::splitmix64(n)))
                .filter(|c| c.is_finite()),
        );
        let t: Trajectory = coords.windows(2).map(|w| Point::new(w[0], w[1])).collect();
        let back = traj_slot(&traj_json(&t)).unwrap();
        assert_eq!(back.len(), t.len());
        for (a, b) in t.points().iter().zip(back.points()) {
            assert_eq!(
                (a.x.to_bits(), a.y.to_bits()),
                (b.x.to_bits(), b.y.to_bits())
            );
        }
        assert_eq!(traj_json(&Trajectory::new(Vec::new())), "[]");
    }

    fn decode(payload: &str) -> Request<'_> {
        Request::decode(payload).unwrap()
    }

    /// The `traj_bits` slot of a payload holding only `traj_bits`.
    fn bits_slot(hex: &str) -> Result<Trajectory, String> {
        let payload = format!("{{\"traj_bits\":\"{hex}\"}}");
        required(decode(&payload).traj_bits, "traj_bits")
    }

    #[test]
    fn traj_bits_errors_name_the_first_bad_point() {
        let word = |x: f64| format!("{:016x}", x.to_bits());
        let (one, two) = (word(1.0), word(2.0));
        let t = bits_slot(&format!("{one}{two}{two}{one}")).unwrap();
        assert_eq!(t.points(), [Point::new(1.0, 2.0), Point::new(2.0, 1.0)]);
        assert_eq!(bits_slot("").unwrap().len(), 0);
        for (hex, err) in [
            (
                format!("{one}{two}0"),
                "\"traj_bits\" length must be a multiple of 32",
            ),
            (one.clone(), "\"traj_bits\" length must be a multiple of 32"),
            (
                format!("{one}{two}{one}{}", two.replace('4', "A")),
                "\"traj_bits\" point 1: not 32 lowercase hex digits",
            ),
            (
                format!("{one}{}", two.replace('0', "g")),
                "\"traj_bits\" point 0: not 32 lowercase hex digits",
            ),
            (
                format!("{one}{two}{}{one}", word(f64::NAN)),
                "\"traj_bits\" point 1: x is not finite",
            ),
            (
                format!("{one}{}", word(f64::NEG_INFINITY)),
                "\"traj_bits\" point 0: y is not finite",
            ),
        ] {
            assert_eq!(bits_slot(&hex).unwrap_err(), err, "{hex}");
        }
        assert_eq!(
            decode(r#"{"traj_bits":[]}"#).traj_bits,
            Some(Err("\"traj_bits\" must be a string of hex digits".into()))
        );
        assert_eq!(
            knn_query(Some(Ok(t.clone())), Some(Ok(t)), None).unwrap_err(),
            "\"knn\" takes \"traj\" or \"traj_bits\", not both"
        );
    }

    /// The `vec_bits` slot of a payload holding only `vec_bits`.
    fn vec_slot(hex: &str) -> Result<Vec<f32>, String> {
        let payload = format!("{{\"vec_bits\":\"{hex}\"}}");
        required(decode(&payload).vec_bits, "vec_bits")
    }

    #[test]
    fn vec_bits_errors_name_the_first_bad_value() {
        let word = |x: f32| format!("{:08x}", x.to_bits());
        assert_eq!(word(1.0), "3f800000");
        assert_eq!(vec_slot(&vec_bits(&[1.0, -2.5])).unwrap(), [1.0, -2.5]);
        assert_eq!(vec_slot("").unwrap(), []);
        for (hex, err) in [
            (
                "3f80000".to_string(),
                "\"vec_bits\" length must be a multiple of 8",
            ),
            (
                format!("{}3F800000", word(1.0)),
                "\"vec_bits\" value 1: not 8 lowercase hex digits",
            ),
            (
                "3f80000g".to_string(),
                "\"vec_bits\" value 0: not 8 lowercase hex digits",
            ),
            (
                format!("{}{}", word(1.0), word(f32::NAN)),
                "\"vec_bits\" value 1: not finite",
            ),
            (word(f32::NEG_INFINITY), "\"vec_bits\" value 0: not finite"),
        ] {
            assert_eq!(vec_slot(&hex).unwrap_err(), err, "{hex}");
        }
        assert_eq!(
            decode(r#"{"vec_bits":1}"#).vec_bits,
            Some(Err("\"vec_bits\" must be a string of hex digits".into()))
        );
        let t = Trajectory::new(vec![Point::new(1.0, 2.0)]);
        for (traj, traj_bits) in [(Some(Ok(t.clone())), None), (None, Some(Ok(t.clone())))] {
            assert_eq!(
                knn_query(traj, traj_bits, Some(Ok(vec![1.0]))).unwrap_err(),
                "\"knn\" takes \"vec_bits\" or a trajectory, not both"
            );
        }
        assert_eq!(
            traj_query("embed", Some(Ok(t.clone())), Some(Ok(t))).unwrap_err(),
            "\"embed\" takes \"traj\" or \"traj_bits\", not both"
        );
    }

    /// A finite coordinate: an edge value (`traj_json`'s list, subnormals,
    /// both extremes), or random bits with an all-ones exponent cleared.
    fn coordinate(pick: usize, bits: u64) -> f64 {
        let edges = [
            0.0,
            -0.0,
            0.1 + 0.2,
            1.0 / 3.0,
            1234.56,
            -9_999.99,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            5e-324,
            f64::from_bits(0x000f_ffff_ffff_ffff),
            -1e-300,
            1e21,
        ];
        let x = edges.get(pick).copied().unwrap_or(f64::from_bits(bits));
        if x.is_finite() {
            x
        } else {
            f64::from_bits(bits ^ 1 << 62)
        }
    }

    fn coordinate_bits(t: &Trajectory) -> Vec<(u64, u64)> {
        t.points()
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect()
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn traj_bits_round_trip_every_finite_coordinate(
            raw in prop::collection::vec((0usize..26, 0u64..u64::MAX), 0..64)
        ) {
            let t: Trajectory = raw
                .chunks_exact(2)
                .map(|c| Point::new(coordinate(c[0].0, c[0].1), coordinate(c[1].0, c[1].1)))
                .collect();
            let back = bits_slot(&traj_bits(&t)).unwrap();
            prop_assert_eq!(coordinate_bits(&back), coordinate_bits(&t));
            prop_assert_eq!(
                crate::cache::content_hash(&back),
                crate::cache::content_hash(&t)
            );
        }

        #[test]
        fn vec_bits_round_trip_every_finite_value(
            raw in prop::collection::vec((0usize..26, 0u64..u64::MAX), 0..64)
        ) {
            let v: Vec<f32> = raw
                .iter()
                .map(|&(pick, bits)| match coordinate(pick, bits) as f32 {
                    x if x.is_finite() => x,
                    _ => f32::MIN_POSITIVE,
                })
                .collect();
            let reply = format!("{{\"ok\":true,\"vec_bits\":\"{}\"}}", vec_bits(&v));
            let back = crate::fleet::read_vec(&reply).unwrap();
            let exact = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
            prop_assert_eq!(exact(&back), exact(&v));
        }

        #[test]
        fn hits_bits_round_trip(
            raw in prop::collection::vec((0u64..u64::MAX, 0usize..26, 0u64..u64::MAX), 0..24)
        ) {
            let hits: Vec<(u64, f64)> = raw
                .iter()
                .map(|&(id, pick, bits)| (id, coordinate(pick, bits)))
                .collect();
            let reply = format!("{{\"ok\":true,{}}}", hits_field(&hits, true));
            let back = crate::fleet::read_hits(&reply).unwrap();
            let exact = |hits: &[(u64, f64)]| -> Vec<(u64, u64)> {
                hits.iter().map(|&(id, d)| (id, d.to_bits())).collect()
            };
            prop_assert_eq!(exact(&back), exact(&hits));
        }
    }

    #[test]
    fn integer_fields_are_exact() {
        // The echo is the request's own digits, past 2^53 and up to u64::MAX.
        for n in [(1u64 << 53) + 1, u64::MAX] {
            let payload = format!("{{\"req\":{n},\"op\":\"ping\"}}");
            assert_eq!(decode(&payload).echo(), format!("\"req\":{n},"));
        }
        assert_eq!(decode(r#"{"req":18446744073709551616}"#).echo(), "");
        assert_eq!(decode(r#"{"req":"7"}"#).echo(), "");
        // Two ids an f64 cannot tell apart stay two ids.
        assert_eq!(decode(r#"{"id":9007199254740992}"#).id, Some(Ok(1 << 53)));
        assert_eq!(
            decode(r#"{"id":9007199254740993}"#).id,
            Some(Ok((1 << 53) + 1))
        );
        // 2^64 does not saturate to u64::MAX.
        assert_eq!(
            decode(r#"{"id":18446744073709551616}"#).id,
            Some(Err("\"id\" must be a non-negative integer".into()))
        );
        assert_eq!(
            decode(r#"{"k":18446744073709551616}"#).k,
            Some(Err(format!("\"k\" must be an integer in 0..={MAX_K}")))
        );
        // Other number forms keep the integral-value rule below 2^53.
        assert_eq!(decode(r#"{"k":1e1,"id":-0}"#).k, Some(Ok(10)));
        assert_eq!(decode(r#"{"id":-0}"#).id, Some(Ok(0)));
        assert!(decode(r#"{"id":9007199254740993e0}"#).id.unwrap().is_err());
        assert!(decode(r#"{"id":1.5}"#).id.unwrap().is_err());
    }

    #[test]
    fn the_last_duplicate_key_wins_and_escaped_keys_count() {
        let request = decode(r#"{"k":"x","k":3,"id":1,"id":[],"op":1,"\u006fp":"knn"}"#);
        assert_eq!(request.k, Some(Ok(3)));
        assert!(request.id.unwrap().is_err());
        assert_eq!(request.op.unwrap().unwrap(), "knn");
        // A document that is not an object has no fields.
        let request = decode("[1,{\"op\":\"ping\"}]");
        assert!(request.op.is_none() && request.req.is_none());
    }
}
