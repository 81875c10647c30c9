//! Write-ahead logging and crash recovery for [`MutableIndex`] shards
//! (DESIGN.md §15).
//!
//! The log is a length-prefixed append-only stream of mutation records
//! (`upsert` / `remove` / `compact`), each carrying a CRC32 of its
//! payload. A write is acknowledged only after its record is durable
//! under the configured [`Durability`] policy: [`Durability::Fsync`]
//! group-commits — the first writer to reach the fsync boundary syncs on
//! behalf of every record appended so far, latecomers wait on a condvar —
//! so a burst of concurrent writes (one per connection handler, all
//! upserting at once) shares one `fsync` instead of paying one each.
//!
//! Recovery is *checkpoint + log tail*: [`Wal::open`] loads the last
//! checkpoint (a full snapshot of the shard's live vectors, written with
//! the temp-file / fsync / atomic-rename protocol of [`atomic_write`])
//! and replays every complete record of the log on top. A torn final
//! record — interrupted mid-append by a crash — fails its CRC or length
//! check, is dropped, and the log is truncated back to the last complete
//! record; it can never be misparsed as a different operation because the
//! length prefix, the exact tag-implied payload geometry and the checksum
//! all have to agree. [`Wal::checkpoint`] writes a fresh snapshot and
//! truncates the log; a crash between the rename and the truncate is
//! benign because replaying a full log over the checkpoint it produced is
//! idempotent (the log holds every op since the *previous* checkpoint,
//! and later upserts of an id simply overwrite earlier state).
//!
//! Every mutating filesystem operation goes through the [`WalFs`] seam.
//! [`RealFs`] passes straight through; [`CrashPointFs`] is the
//! deterministic fault injector behind the crash-point matrix test
//! (`crates/index/tests/crash_points.rs`, in the spirit of the serve
//! crate's `ChaosProxy`): it counts operations and "kills the process" —
//! fails the N-th operation and every one after it, optionally leaving a
//! half-written append behind — so a harness can restart, recover, and
//! assert that no acknowledged write was lost and no torn write was
//! half-applied, at *every* append/fsync/rename/truncate boundary.

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

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::mutable::MutableIndex;

/// When a logged write is acknowledged relative to stable storage.
/// There is no "no log" variant: a caller that wants none opens no [`Wal`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Durability {
    /// Mutations are appended to the log before acknowledgement but not
    /// fsync'd per write; an OS crash may lose the buffered tail, a
    /// process crash does not.
    Buffered,
    /// A write is acknowledged only after its log record is covered by a
    /// completed `fsync` (group-committed across concurrent writers).
    Fsync,
}

/// One logged mutation.
#[derive(Clone, Debug, PartialEq)]
pub enum WalOp {
    /// Insert or replace the vector for `id`.
    Upsert {
        /// External id.
        id: u64,
        /// Exact f32 vector (the WAL always stores exact values, even
        /// when the index's sealed storage is quantized).
        vector: Vec<f32>,
    },
    /// Delete `id`.
    Remove {
        /// External id.
        id: u64,
    },
    /// Fold the write buffer into a freshly sealed part.
    Compact,
}

/// Why a WAL byte stream (or checkpoint blob) failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalError {
    /// Fewer bytes available than the record header or length prefix
    /// promises — the torn-tail case recovery silently drops.
    Truncated,
    /// A length prefix that is impossible for any record (zero, or beyond
    /// [`MAX_RECORD_LEN`]).
    BadLength(u32),
    /// Payload bytes do not match their CRC32.
    BadChecksum,
    /// Unknown operation tag.
    BadTag(u8),
    /// Payload length disagrees with the geometry its tag implies, or a
    /// checkpoint header is inconsistent with the blob length.
    BadPayload(&'static str),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Truncated => write!(f, "truncated record"),
            WalError::BadLength(n) => write!(f, "impossible record length {n}"),
            WalError::BadChecksum => write!(f, "payload checksum mismatch"),
            WalError::BadTag(t) => write!(f, "unknown op tag {t}"),
            WalError::BadPayload(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WalError {}

/// Upper bound on a record's payload length: caps the vector
/// dimensionality a log can smuggle in (a garbled length field must
/// never turn into a giant allocation).
pub const MAX_RECORD_LEN: u32 = 1 << 26;

const TAG_UPSERT: u8 = 1;
const TAG_REMOVE: u8 = 2;
const TAG_COMPACT: u8 = 3;

/// Checkpoint file magic ("TrajCl Wal checkpoint v1").
const CKPT_MAGIC: &[u8; 4] = b"TCW1";

// CRC32 (IEEE 802.3 polynomial, reflected), table built at compile time.
const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        #[expect(clippy::cast_possible_truncation, reason = "i < 256 in a const fn")]
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC32 (IEEE) of `bytes` — the per-record payload checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = (c >> 8) ^ CRC_TABLE[((c ^ b as u32) & 0xff) as usize];
    }
    !c
}

/// Encodes one record: `payload_len: u32 LE | crc32(payload): u32 LE |
/// payload`, where the payload is a tag byte followed by the op body
/// (`upsert`: id u64 LE, dim u32 LE, dim little-endian f32s; `remove`:
/// id u64 LE; `compact`: empty). The geometry is fully determined by the
/// tag, so the encoding is canonical: any byte string
/// [`decode_record`] accepts re-encodes to exactly itself.
pub fn encode_record(op: &WalOp) -> Vec<u8> {
    let mut payload = Vec::new();
    match op {
        WalOp::Upsert { id, vector } => {
            payload.push(TAG_UPSERT);
            payload.extend_from_slice(&id.to_le_bytes());
            #[expect(clippy::cast_possible_truncation, reason = "a dim fits u32")]
            payload.extend_from_slice(&(vector.len() as u32).to_le_bytes());
            for v in vector {
                payload.extend_from_slice(&v.to_le_bytes());
            }
        }
        WalOp::Remove { id } => {
            payload.push(TAG_REMOVE);
            payload.extend_from_slice(&id.to_le_bytes());
        }
        WalOp::Compact => payload.push(TAG_COMPACT),
    }
    let mut out = Vec::with_capacity(8 + payload.len());
    #[expect(clippy::cast_possible_truncation, reason = "payload = 13 + 4 x dim")]
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Zero-copy little-endian field reader over a borrowed byte slice.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.0.len() < n {
            return None;
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        self.bytes(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.bytes(4)?.try_into().ok().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.bytes(8)?.try_into().ok().map(u64::from_le_bytes)
    }

    fn f32_vec(&mut self, count: usize) -> Option<Vec<f32>> {
        let raw = self.bytes(count.checked_mul(4)?)?;
        Some(
            raw.chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect(),
        )
    }
}

/// Strictly decodes the record at the head of `bytes`, returning the op
/// and the number of bytes it occupied. Every failure mode is an error:
/// short input is [`WalError::Truncated`], an impossible length prefix is
/// [`WalError::BadLength`], a checksum mismatch is
/// [`WalError::BadChecksum`], and a payload whose length disagrees with
/// its tag's geometry is [`WalError::BadPayload`]. Never panics, never
/// allocates beyond [`MAX_RECORD_LEN`].
pub fn decode_record(bytes: &[u8]) -> Result<(WalOp, usize), WalError> {
    let mut r = Reader(bytes);
    let (Some(len), Some(crc)) = (r.u32(), r.u32()) else {
        return Err(WalError::Truncated);
    };
    if len == 0 || len > MAX_RECORD_LEN {
        return Err(WalError::BadLength(len));
    }
    let len = len as usize;
    let payload = r.bytes(len).ok_or(WalError::Truncated)?;
    if crc32(payload) != crc {
        return Err(WalError::BadChecksum);
    }
    let mut p = Reader(&payload[1..]);
    let op = match payload[0] {
        TAG_UPSERT => {
            let (Some(id), Some(dim)) = (p.u64(), p.u32()) else {
                return Err(WalError::BadPayload("upsert header"));
            };
            match p.f32_vec(dim as usize) {
                Some(vector) if p.0.is_empty() => WalOp::Upsert { id, vector },
                _ => return Err(WalError::BadPayload("upsert vector length")),
            }
        }
        TAG_REMOVE => match p.u64() {
            Some(id) if p.0.is_empty() => WalOp::Remove { id },
            _ => return Err(WalError::BadPayload("remove length")),
        },
        TAG_COMPACT if p.0.is_empty() => WalOp::Compact,
        TAG_COMPACT => return Err(WalError::BadPayload("compact length")),
        t => return Err(WalError::BadTag(t)),
    };
    Ok((op, 8 + len))
}

/// Replays a log byte stream: decodes records front to back, stopping at
/// the first byte position that does not hold a complete valid record.
/// Returns the decoded ops and the number of bytes they occupied
/// (`consumed`); `bytes[consumed..]` is the torn/garbage tail recovery
/// truncates away. Because acknowledgement implies a completed `fsync`
/// over the *whole file prefix*, a crash can only corrupt the un-synced
/// suffix — stopping at the first bad record never drops an acknowledged
/// write.
pub fn replay(bytes: &[u8]) -> (Vec<WalOp>, usize) {
    let mut ops = Vec::new();
    let mut consumed = 0;
    while consumed < bytes.len() {
        match decode_record(&bytes[consumed..]) {
            Ok((op, n)) => {
                ops.push(op);
                consumed += n;
            }
            Err(_) => break,
        }
    }
    (ops, consumed)
}

/// One live vector captured by a checkpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointEntry {
    /// External id.
    pub id: u64,
    /// Whether the serving layer considered this id *dirty* (written over
    /// the wire after the engine's exact table was built) — preserved so
    /// recovery never re-enables exact-table rescoring for a row the
    /// table does not actually hold.
    pub dirty: bool,
    /// Exact f32 vector.
    pub vector: Vec<f32>,
}

/// Encodes a checkpoint blob: `"TCW1" | dim u32 LE | count u64 LE |
/// count × (id u64 LE, dirty u8, dim f32 LE) | crc32 of everything
/// before it`. Self-delimiting and strict: [`decode_checkpoint`] rejects
/// any length mismatch.
pub fn encode_checkpoint(dim: usize, entries: &[CheckpointEntry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + entries.len() * (9 + dim * 4) + 4);
    out.extend_from_slice(CKPT_MAGIC);
    #[expect(clippy::cast_possible_truncation, reason = "a dim fits u32")]
    out.extend_from_slice(&(dim as u32).to_le_bytes());
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for e in entries {
        debug_assert_eq!(e.vector.len(), dim, "checkpoint entry dimensionality");
        out.extend_from_slice(&e.id.to_le_bytes());
        out.push(u8::from(e.dirty));
        for v in &e.vector {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Strictly decodes a checkpoint blob: returns `(dim, entries)` or an
/// error — never panics, and validates the entry count against the blob
/// length *before* allocating.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<(usize, Vec<CheckpointEntry>), WalError> {
    if bytes.len() < 20 {
        return Err(WalError::Truncated);
    }
    let (body, crc) = bytes.split_at(bytes.len() - 4);
    let mut r = Reader(body);
    let (Some(magic), Some(dim), Some(count)) = (r.bytes(4), r.u32(), r.u64()) else {
        return Err(WalError::Truncated);
    };
    if magic != CKPT_MAGIC {
        return Err(WalError::BadPayload("checkpoint magic"));
    }
    if dim > MAX_RECORD_LEN / 4 {
        return Err(WalError::BadLength(dim));
    }
    let dim = dim as usize;
    let entry_bytes = 9u64 + 4 * dim as u64;
    let expected = count
        .checked_mul(entry_bytes)
        .and_then(|entries| entries.checked_add(20))
        .ok_or(WalError::BadPayload("checkpoint count overflow"))?;
    if expected != bytes.len() as u64 {
        return Err(WalError::BadPayload("checkpoint length"));
    }
    if Reader(crc).u32() != Some(crc32(body)) {
        return Err(WalError::BadChecksum);
    }
    // `count` fits: `count × entry_bytes` equals the blob length.
    let count =
        usize::try_from(count).map_err(|_| WalError::BadPayload("checkpoint count overflow"))?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let (Some(id), Some(flag), Some(vector)) = (r.u64(), r.u8(), r.f32_vec(dim)) else {
            return Err(WalError::Truncated);
        };
        let dirty = match flag {
            0 => false,
            1 => true,
            _ => return Err(WalError::BadPayload("checkpoint dirty flag")),
        };
        entries.push(CheckpointEntry { id, dirty, vector });
    }
    Ok((dim, entries))
}

/// The filesystem seam every durable mutation goes through. Production
/// code uses [`RealFs`]; the crash-point harness injects
/// [`CrashPointFs`]. Reads (log scan, checkpoint load) bypass the seam —
/// recovery is a pure function of the bytes on disk, and the seam exists
/// to place crashes at *mutation* boundaries.
pub trait WalFs: Send + Sync {
    /// Creates (or truncates) the file at `path` for writing.
    fn create(&self, path: &Path) -> io::Result<File>;
    /// Appends `bytes` to `file` in one write.
    fn append(&self, file: &mut File, bytes: &[u8]) -> io::Result<()>;
    /// Flushes `file`'s data and metadata to stable storage.
    fn fsync(&self, file: &File) -> io::Result<()>;
    /// Atomically renames `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Truncates `file` to `len` bytes.
    fn truncate(&self, file: &File, len: u64) -> io::Result<()>;
    /// Flushes the directory entry table at `dir` (makes a rename
    /// durable).
    fn fsync_dir(&self, dir: &Path) -> io::Result<()>;
}

/// The pass-through [`WalFs`]: real filesystem operations.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

impl WalFs for RealFs {
    fn create(&self, path: &Path) -> io::Result<File> {
        OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
    }

    fn append(&self, file: &mut File, bytes: &[u8]) -> io::Result<()> {
        file.write_all(bytes)
    }

    fn fsync(&self, file: &File) -> io::Result<()> {
        file.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn truncate(&self, file: &File, len: u64) -> io::Result<()> {
        file.set_len(len)
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        let dir = if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        };
        File::open(dir)?.sync_all()
    }
}

/// Deterministic crash injector (the `ChaosProxy` of the durability
/// layer): counts [`WalFs`] operations and simulates a `SIGKILL` at a
/// chosen boundary — the `crash_after`-th operation fails, as does every
/// operation after it, exactly as a dead process would stop making
/// syscalls. With `partial_append` set, a crash landing on an append
/// first writes *half* the record — the torn-write case recovery must
/// drop, never half-apply.
///
/// One honest limitation of in-process simulation: bytes written before
/// the crash stay in the (real) file even when never fsync'd, so an
/// unacknowledged record may survive "the crash" whole. That matches the
/// WAL contract — an unacknowledged write may be durable (the record was
/// synced but the response got lost) or absent, it just may never be
/// *torn* — and the torn case is what `partial_append` exercises.
///
/// Deterministic under single-threaded use (the crash-point matrix
/// drives one scripted writer).
pub struct CrashPointFs {
    crash_after: u64,
    partial_append: bool,
    ops: AtomicU64,
    crashed: AtomicBool,
}

impl CrashPointFs {
    /// Crash at the `crash_after`-th (0-based) filesystem operation.
    pub fn new(crash_after: u64, partial_append: bool) -> Self {
        CrashPointFs {
            crash_after,
            partial_append,
            ops: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
        }
    }

    /// Counting-only mode: never crashes. Run the workload once under
    /// this to learn the total operation count, then sweep `crash_after`
    /// over `0..total`.
    pub fn unlimited() -> Self {
        Self::new(u64::MAX, false)
    }

    /// Filesystem operations attempted so far.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Whether the simulated crash has fired.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    fn crash_err() -> io::Error {
        io::Error::other("simulated crash (CrashPointFs)")
    }

    /// Counts one operation; `Ok(true)` means this operation is the crash
    /// boundary, `Err` means the process is already dead.
    fn gate(&self) -> io::Result<bool> {
        if self.crashed.load(Ordering::SeqCst) {
            return Err(Self::crash_err());
        }
        let n = self.ops.fetch_add(1, Ordering::SeqCst);
        if n >= self.crash_after {
            self.crashed.store(true, Ordering::SeqCst);
            return Ok(true);
        }
        Ok(false)
    }
}

impl WalFs for CrashPointFs {
    fn create(&self, path: &Path) -> io::Result<File> {
        if self.gate()? {
            return Err(Self::crash_err());
        }
        RealFs.create(path)
    }

    fn append(&self, file: &mut File, bytes: &[u8]) -> io::Result<()> {
        if self.gate()? {
            if self.partial_append && bytes.len() > 1 {
                // Torn write: half the record reaches the file, then the
                // "process" dies.
                RealFs.append(file, &bytes[..bytes.len() / 2])?;
            }
            return Err(Self::crash_err());
        }
        RealFs.append(file, bytes)
    }

    fn fsync(&self, file: &File) -> io::Result<()> {
        if self.gate()? {
            return Err(Self::crash_err());
        }
        RealFs.fsync(file)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if self.gate()? {
            return Err(Self::crash_err());
        }
        RealFs.rename(from, to)
    }

    fn truncate(&self, file: &File, len: u64) -> io::Result<()> {
        if self.gate()? {
            return Err(Self::crash_err());
        }
        RealFs.truncate(file, len)
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        if self.gate()? {
            return Err(Self::crash_err());
        }
        RealFs.fsync_dir(dir)
    }
}

/// Writes `bytes` to `path` crash-safely: temp file (`path` + `.tmp`),
/// fsync, atomic rename over the target, directory fsync. A crash at any
/// boundary leaves either the old file intact or the new file complete —
/// never a torn target. (This is also how `Engine::save` persists TCE1
/// snapshots.)
pub fn atomic_write(fs: &dyn WalFs, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = fs.create(&tmp)?;
    fs.append(&mut file, bytes)?;
    fs.fsync(&file)?;
    drop(file);
    fs.rename(&tmp, path)?;
    fs.fsync_dir(path.parent().unwrap_or_else(|| Path::new(".")))?;
    Ok(())
}

/// What [`Wal::open`] reconstructed from disk. Apply the checkpoint
/// first (it is the complete live state at its cut), then replay `ops`
/// in order.
pub struct WalRecovery {
    /// The last checkpoint, if one was ever written.
    pub checkpoint: Option<CheckpointData>,
    /// Complete log records after the checkpoint, in append order.
    pub ops: Vec<WalOp>,
    /// Torn/garbage tail bytes dropped (and truncated) from the log.
    pub truncated_tail_bytes: u64,
}

/// A decoded checkpoint: the shard's full live state at the cut.
pub struct CheckpointData {
    /// Vector dimensionality the checkpoint was written with.
    pub dim: usize,
    /// Every live vector (with its serving-layer dirty bit).
    pub entries: Vec<CheckpointEntry>,
}

/// Writer-side log state, serialised under one mutex.
struct WalState {
    file: File,
    /// Records appended (not necessarily synced).
    appended: u64,
    /// Records covered by a completed fsync.
    synced: u64,
    /// A group-commit leader is currently inside fsync.
    syncing: bool,
    /// Current log length in bytes (drives checkpoint scheduling).
    log_bytes: u64,
}

/// One shard's write-ahead log: `{dir}/{name}.log` plus the checkpoint
/// `{dir}/{name}.ckpt`. All methods take `&self`; appends from any
/// number of threads serialise internally and group-commit their fsyncs.
///
/// **Checkpoint concurrency:** [`Wal::checkpoint`] must not race an
/// in-flight [`Wal::append_durable`] whose effect is missing from the
/// entries being checkpointed — the caller is responsible for quiescing
/// writes first (the serve router holds a per-shard write gate across
/// append+apply and takes it exclusively to checkpoint).
pub struct Wal {
    fs: Arc<dyn WalFs>,
    dir: PathBuf,
    log_path: PathBuf,
    ckpt_path: PathBuf,
    ckpt_tmp_path: PathBuf,
    sync_on_append: bool,
    state: Mutex<WalState>,
    synced: Condvar,
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wal")
            .field("log", &self.log_path)
            .field("sync_on_append", &self.sync_on_append)
            .finish()
    }
}

impl Wal {
    /// Opens (creating if absent) the log named `name` under `dir` and
    /// recovers its durable state: loads the last checkpoint, replays
    /// every complete log record, truncates any torn tail. `durability`
    /// controls [`Wal::append_durable`]'s acknowledgement point.
    ///
    /// A leftover `.ckpt.tmp` (crash mid-checkpoint-write, before the
    /// rename) is deleted: it is never data-bearing, because the log is
    /// only truncated *after* a checkpoint rename lands.
    pub fn open(
        dir: &Path,
        name: &str,
        durability: Durability,
        fs: Arc<dyn WalFs>,
    ) -> io::Result<(Wal, WalRecovery)> {
        std::fs::create_dir_all(dir)?;
        let log_path = dir.join(format!("{name}.log"));
        let ckpt_path = dir.join(format!("{name}.ckpt"));
        let ckpt_tmp_path = dir.join(format!("{name}.ckpt.tmp"));
        if ckpt_tmp_path.exists() {
            std::fs::remove_file(&ckpt_tmp_path)?;
        }
        let checkpoint = if ckpt_path.exists() {
            let bytes = std::fs::read(&ckpt_path)?;
            let (dim, entries) = decode_checkpoint(&bytes).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("corrupt checkpoint {}: {e}", ckpt_path.display()),
                )
            })?;
            Some(CheckpointData { dim, entries })
        } else {
            None
        };
        let log_bytes_on_disk = if log_path.exists() {
            std::fs::read(&log_path)?
        } else {
            Vec::new()
        };
        let (ops, consumed) = replay(&log_bytes_on_disk);
        let truncated_tail_bytes = (log_bytes_on_disk.len() - consumed) as u64;
        let file = OpenOptions::new()
            .append(true)
            .create(true)
            .open(&log_path)?;
        if truncated_tail_bytes > 0 {
            // Drop the torn tail so new appends continue from the last
            // complete record instead of burying it under garbage.
            fs.truncate(&file, consumed as u64)?;
            fs.fsync(&file)?;
        }
        let wal = Wal {
            fs,
            dir: dir.to_path_buf(),
            log_path,
            ckpt_path,
            ckpt_tmp_path,
            sync_on_append: durability == Durability::Fsync,
            state: Mutex::new(WalState {
                file,
                appended: 0,
                synced: 0,
                syncing: false,
                log_bytes: consumed as u64,
            }),
            synced: Condvar::new(),
        };
        Ok((
            wal,
            WalRecovery {
                checkpoint,
                ops,
                truncated_tail_bytes,
            },
        ))
    }

    /// Appends `op` and returns once it is durable under the configured
    /// policy. Under [`Durability::Fsync`] this group-commits: the record
    /// is appended under the state lock, then the caller either becomes
    /// the fsync leader (syncing every record appended so far in one
    /// call) or waits for a leader whose fsync covers it. On `Err` the
    /// write must not be acknowledged — the record may or may not have
    /// reached the disk.
    pub fn append_durable(&self, op: &WalOp) -> io::Result<()> {
        let record = encode_record(op);
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        self.fs.append(&mut st.file, &record)?;
        st.appended += 1;
        st.log_bytes += record.len() as u64;
        let my_seq = st.appended;
        if !self.sync_on_append {
            return Ok(());
        }
        loop {
            if st.synced >= my_seq {
                return Ok(());
            }
            if st.syncing {
                st = self.synced.wait(st).unwrap_or_else(|p| p.into_inner());
                continue;
            }
            // Become the group-commit leader: fsync outside the lock so
            // followers can keep appending into the next group.
            st.syncing = true;
            let cover = st.appended;
            let file = st.file.try_clone()?;
            drop(st);
            let result = self.fs.fsync(&file);
            st = self.state.lock().unwrap_or_else(|p| p.into_inner());
            st.syncing = false;
            match result {
                Ok(()) => {
                    st.synced = st.synced.max(cover);
                    self.synced.notify_all();
                    if st.synced >= my_seq {
                        return Ok(());
                    }
                }
                Err(e) => {
                    // Wake followers so each can retry (or fail) as its
                    // own leader rather than hang.
                    self.synced.notify_all();
                    return Err(e);
                }
            }
        }
    }

    /// Current log length in bytes (drives auto-checkpoint scheduling).
    pub fn log_bytes(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .log_bytes
    }

    /// Writes a checkpoint of `entries` (the shard's *complete* live
    /// state) and truncates the log: temp file, fsync, atomic rename,
    /// directory fsync, then log truncate + fsync. Crash-safe at every
    /// boundary — before the rename the old checkpoint + full log still
    /// recover, after it the new checkpoint plus a (possibly un-truncated)
    /// log replay to the same state. See the struct docs for the
    /// quiescence requirement.
    pub fn checkpoint(&self, dim: usize, entries: &[CheckpointEntry]) -> io::Result<()> {
        let blob = encode_checkpoint(dim, entries);
        let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let mut tmp = self.fs.create(&self.ckpt_tmp_path)?;
        self.fs.append(&mut tmp, &blob)?;
        self.fs.fsync(&tmp)?;
        drop(tmp);
        self.fs.rename(&self.ckpt_tmp_path, &self.ckpt_path)?;
        self.fs.fsync_dir(&self.dir)?;
        self.fs.truncate(&st.file, 0)?;
        self.fs.fsync(&st.file)?;
        drop(st);
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.log_bytes = 0;
        Ok(())
    }
}

/// Applies one recovered op to an index (the replay half of recovery).
pub fn apply_op(index: &MutableIndex, op: &WalOp) {
    match op {
        WalOp::Upsert { id, vector } => {
            index.upsert(*id, vector.clone());
        }
        WalOp::Remove { id } => {
            index.remove(*id);
        }
        WalOp::Compact => {
            index.compact();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Self-cleaning scratch directory.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let path =
                std::env::temp_dir().join(format!("trajcl-wal-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).expect("create temp dir");
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::Upsert {
                id: 7,
                vector: vec![1.0, -2.5, 0.0, f32::MIN_POSITIVE],
            },
            WalOp::Remove { id: 7 },
            WalOp::Compact,
            WalOp::Upsert {
                id: u64::MAX,
                vector: vec![],
            },
        ]
    }

    /// Bit-exact op equality (floats compared by representation, so NaN
    /// payloads round-trip too).
    fn same_op(a: &WalOp, b: &WalOp) -> bool {
        match (a, b) {
            (WalOp::Upsert { id: ia, vector: va }, WalOp::Upsert { id: ib, vector: vb }) => {
                ia == ib
                    && va.len() == vb.len()
                    && va.iter().zip(vb).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (WalOp::Remove { id: ia }, WalOp::Remove { id: ib }) => ia == ib,
            (WalOp::Compact, WalOp::Compact) => true,
            _ => false,
        }
    }

    #[test]
    fn record_round_trip_is_canonical() {
        for op in sample_ops() {
            let enc = encode_record(&op);
            let (dec, n) = decode_record(&enc).expect("decode");
            assert_eq!(n, enc.len());
            assert!(same_op(&dec, &op));
            assert_eq!(encode_record(&dec), enc, "canonical re-encode");
        }
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
            .collect()
    }

    // The bytes on disk before the decoders moved onto `Reader`
    // (captured at commit 03adfee): a log or checkpoint written then
    // must decode now, and re-encode to itself.
    #[test]
    fn record_and_checkpoint_bytes_are_pinned() {
        let record = unhex("1500000084a380e0010700000000000000020000000000803f000020c0");
        let op = WalOp::Upsert {
            id: 7,
            vector: vec![1.0, -2.5],
        };
        assert_eq!(encode_record(&op), record);
        assert_eq!(decode_record(&record), Ok((op, record.len())));

        let ckpt = unhex(
            "544357310200000002000000000000000100000000000000000000003f000000bf\
             0200000000000000010000404000008040c2d26447",
        );
        let entries = vec![
            CheckpointEntry {
                id: 1,
                dirty: false,
                vector: vec![0.5, -0.5],
            },
            CheckpointEntry {
                id: 2,
                dirty: true,
                vector: vec![3.0, 4.0],
            },
        ];
        assert_eq!(encode_checkpoint(2, &entries), ckpt);
        assert_eq!(decode_checkpoint(&ckpt), Ok((2, entries)));
    }

    // Which error each malformed input gets is part of the contract
    // (`replay` only needs "an error", operators read the message).
    #[test]
    fn every_failure_keeps_its_error() {
        let record = |payload: &[u8]| {
            let mut rec = (payload.len() as u32).to_le_bytes().to_vec();
            rec.extend_from_slice(&crc32(payload).to_le_bytes());
            rec.extend_from_slice(payload);
            rec
        };
        let bad = WalError::BadPayload;
        // A short header is truncation even when its length field is absurd.
        assert_eq!(decode_record(&[0xff; 7]), Err(WalError::Truncated));
        assert_eq!(decode_record(&record(&[1; 12])), Err(bad("upsert header")));
        let mut upsert = vec![TAG_UPSERT];
        upsert.extend_from_slice(&9u64.to_le_bytes());
        upsert.extend_from_slice(&2u32.to_le_bytes());
        upsert.extend_from_slice(&[0; 4]); // one float short of dim 2
        assert_eq!(
            decode_record(&record(&upsert)),
            Err(bad("upsert vector length"))
        );
        upsert.extend_from_slice(&[0; 8]); // and now one too many
        assert_eq!(
            decode_record(&record(&upsert)),
            Err(bad("upsert vector length"))
        );
        assert_eq!(
            decode_record(&record(&[TAG_REMOVE; 8])),
            Err(bad("remove length"))
        );
        assert_eq!(
            decode_record(&record(&[TAG_REMOVE; 10])),
            Err(bad("remove length"))
        );
        assert_eq!(
            decode_record(&record(&[TAG_COMPACT; 2])),
            Err(bad("compact length"))
        );
        let mut torn = record(&[TAG_COMPACT]);
        torn[4] ^= 1;
        assert_eq!(decode_record(&torn), Err(WalError::BadChecksum));

        let blob = encode_checkpoint(1, &[]);
        assert_eq!(decode_checkpoint(&blob[..19]), Err(WalError::Truncated));
        let with = |at: usize, bytes: &[u8]| {
            let mut b = blob.clone();
            b[at..at + bytes.len()].copy_from_slice(bytes);
            decode_checkpoint(&b)
        };
        assert_eq!(with(0, b"X"), Err(bad("checkpoint magic")));
        let huge = (MAX_RECORD_LEN / 4 + 1).to_le_bytes();
        assert_eq!(
            with(4, &huge),
            Err(WalError::BadLength(MAX_RECORD_LEN / 4 + 1))
        );
        assert_eq!(
            with(8, &u64::MAX.to_le_bytes()),
            Err(bad("checkpoint count overflow"))
        );
        assert_eq!(with(8, &1u64.to_le_bytes()), Err(bad("checkpoint length")));
        assert_eq!(with(19, &[blob[19] ^ 1]), Err(WalError::BadChecksum));
        let mut flagged = encode_checkpoint(
            0,
            &[CheckpointEntry {
                id: 1,
                dirty: true,
                vector: vec![],
            }],
        );
        flagged[24] = 2;
        let body = flagged.len() - 4;
        let crc = crc32(&flagged[..body]).to_le_bytes();
        flagged[body..].copy_from_slice(&crc);
        assert_eq!(
            decode_checkpoint(&flagged),
            Err(bad("checkpoint dirty flag"))
        );
    }

    #[test]
    fn corrupt_records_error_never_panic() {
        let enc = encode_record(&WalOp::Upsert {
            id: 3,
            vector: vec![1.0, 2.0],
        });
        // Flip every byte, one at a time: must error or decode the
        // original length (a flipped float payload byte fails the CRC).
        for at in 0..enc.len() {
            let mut bad = enc.clone();
            bad[at] ^= 0x40;
            if let Ok((_, n)) = decode_record(&bad) {
                assert_eq!(n, enc.len());
            }
        }
        assert_eq!(decode_record(&[]), Err(WalError::Truncated));
        assert_eq!(
            decode_record(&[0, 0, 0, 0, 0, 0, 0, 0]),
            Err(WalError::BadLength(0))
        );
        let mut huge = Vec::new();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&[0; 8]);
        assert_eq!(decode_record(&huge), Err(WalError::BadLength(u32::MAX)));
        // Bad tag with a valid CRC.
        let payload = [99u8];
        let mut rec = Vec::new();
        rec.extend_from_slice(&1u32.to_le_bytes());
        rec.extend_from_slice(&crc32(&payload).to_le_bytes());
        rec.extend_from_slice(&payload);
        assert_eq!(decode_record(&rec), Err(WalError::BadTag(99)));
    }

    #[test]
    fn checkpoint_round_trip_and_rejections() {
        let entries = vec![
            CheckpointEntry {
                id: 1,
                dirty: false,
                vector: vec![0.5, -0.5],
            },
            CheckpointEntry {
                id: 2,
                dirty: true,
                vector: vec![f32::NAN, 3.0],
            },
        ];
        let blob = encode_checkpoint(2, &entries);
        let (dim, dec) = decode_checkpoint(&blob).expect("decode");
        assert_eq!(dim, 2);
        assert_eq!(dec.len(), 2);
        assert_eq!(dec[0].id, 1);
        assert!(dec[1].dirty);
        assert_eq!(dec[1].vector[0].to_bits(), f32::NAN.to_bits());
        assert_eq!(encode_checkpoint(dim, &dec), blob, "canonical re-encode");
        // Truncations and extensions are rejected.
        for cut in 0..blob.len() {
            assert!(decode_checkpoint(&blob[..cut]).is_err(), "cut {cut}");
        }
        let mut extended = blob.clone();
        extended.push(0);
        assert!(decode_checkpoint(&extended).is_err());
        // Bit flips are rejected (CRC) or alter nothing structural.
        let mut flipped = blob.clone();
        flipped[17] ^= 1;
        assert!(decode_checkpoint(&flipped).is_err());
    }

    #[test]
    fn wal_append_reopen_recovers_all_ops() {
        let tmp = TempDir::new("reopen");
        let ops = sample_ops();
        {
            let (wal, rec) =
                Wal::open(&tmp.0, "s0", Durability::Fsync, Arc::new(RealFs)).expect("open");
            assert!(rec.checkpoint.is_none());
            assert!(rec.ops.is_empty());
            for op in &ops {
                wal.append_durable(op).expect("append");
            }
            assert!(wal.log_bytes() > 0);
        }
        let (_, rec) =
            Wal::open(&tmp.0, "s0", Durability::Fsync, Arc::new(RealFs)).expect("reopen");
        assert_eq!(rec.ops.len(), ops.len());
        for (got, want) in rec.ops.iter().zip(&ops) {
            assert!(same_op(got, want));
        }
        assert_eq!(rec.truncated_tail_bytes, 0);
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let tmp = TempDir::new("torn");
        {
            let (wal, _) =
                Wal::open(&tmp.0, "s0", Durability::Fsync, Arc::new(RealFs)).expect("open");
            wal.append_durable(&WalOp::Remove { id: 1 })
                .expect("append");
            wal.append_durable(&WalOp::Remove { id: 2 })
                .expect("append");
        }
        // Tear the last record in half by hand.
        let log = tmp.0.join("s0.log");
        let bytes = std::fs::read(&log).expect("read");
        std::fs::write(&log, &bytes[..bytes.len() - 5]).expect("tear");
        let (_, rec) =
            Wal::open(&tmp.0, "s0", Durability::Fsync, Arc::new(RealFs)).expect("reopen");
        assert_eq!(rec.ops.len(), 1);
        assert!(same_op(&rec.ops[0], &WalOp::Remove { id: 1 }));
        assert!(rec.truncated_tail_bytes > 0);
        // The torn bytes were truncated away: a fresh append continues
        // cleanly from the surviving prefix.
        {
            let (wal, _) =
                Wal::open(&tmp.0, "s0", Durability::Fsync, Arc::new(RealFs)).expect("open 3");
            wal.append_durable(&WalOp::Remove { id: 3 })
                .expect("append");
        }
        let (_, rec) =
            Wal::open(&tmp.0, "s0", Durability::Fsync, Arc::new(RealFs)).expect("reopen 2");
        assert_eq!(rec.ops.len(), 2);
        assert!(same_op(&rec.ops[1], &WalOp::Remove { id: 3 }));
    }

    #[test]
    fn checkpoint_truncates_log_and_recovers() {
        let tmp = TempDir::new("ckpt");
        {
            let (wal, _) =
                Wal::open(&tmp.0, "s0", Durability::Fsync, Arc::new(RealFs)).expect("open");
            wal.append_durable(&WalOp::Upsert {
                id: 1,
                vector: vec![1.0, 2.0],
            })
            .expect("append");
            wal.checkpoint(
                2,
                &[CheckpointEntry {
                    id: 1,
                    dirty: true,
                    vector: vec![1.0, 2.0],
                }],
            )
            .expect("checkpoint");
            assert_eq!(wal.log_bytes(), 0);
            wal.append_durable(&WalOp::Remove { id: 1 })
                .expect("append 2");
        }
        let (_, rec) =
            Wal::open(&tmp.0, "s0", Durability::Fsync, Arc::new(RealFs)).expect("reopen");
        let ckpt = rec.checkpoint.expect("checkpoint present");
        assert_eq!(ckpt.dim, 2);
        assert_eq!(ckpt.entries.len(), 1);
        assert!(ckpt.entries[0].dirty);
        assert_eq!(rec.ops.len(), 1, "only the post-checkpoint tail replays");
        assert!(same_op(&rec.ops[0], &WalOp::Remove { id: 1 }));
    }

    /// [`RealFs`] behind a disk whose every fsync takes 2 ms, counting
    /// them — slow enough that concurrent appenders pile up behind a
    /// group-commit leader on any host.
    #[derive(Default)]
    struct SlowSyncFs {
        fsyncs: std::sync::atomic::AtomicUsize,
    }

    impl WalFs for SlowSyncFs {
        fn create(&self, path: &Path) -> io::Result<File> {
            RealFs.create(path)
        }
        fn append(&self, file: &mut File, bytes: &[u8]) -> io::Result<()> {
            RealFs.append(file, bytes)
        }
        fn fsync(&self, file: &File) -> io::Result<()> {
            self.fsyncs
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_millis(2));
            RealFs.fsync(file)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            RealFs.rename(from, to)
        }
        fn truncate(&self, file: &File, len: u64) -> io::Result<()> {
            RealFs.truncate(file, len)
        }
        fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
            RealFs.fsync_dir(dir)
        }
    }

    // What durability may cost, as a count that repeats on any disk: under
    // 8 closed-loop appenders an fsync must cover the appends that queued
    // behind the previous one, so there are at most half as many fsyncs as
    // acknowledged records. "Every ack pays a private fsync" reads 400.
    #[test]
    fn group_commit_serves_concurrent_appenders() {
        const THREADS: u64 = 8;
        const APPENDS: u64 = 50;
        let tmp = TempDir::new("group");
        let fs = Arc::new(SlowSyncFs::default());
        let (wal, _) = Wal::open(&tmp.0, "s0", Durability::Fsync, fs.clone()).expect("open");
        let wal = Arc::new(wal);
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let wal = wal.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..APPENDS {
                    wal.append_durable(&WalOp::Remove { id: t * 100 + i })
                        .expect("append");
                }
            }));
        }
        for h in handles {
            h.join().expect("join");
        }
        drop(wal);
        let fsyncs = fs.fsyncs.load(std::sync::atomic::Ordering::Relaxed) as u64;
        assert!(
            fsyncs * 2 <= THREADS * APPENDS,
            "{fsyncs} fsyncs for {} appends: group commit is not sharing them",
            THREADS * APPENDS
        );
        let (_, rec) =
            Wal::open(&tmp.0, "s0", Durability::Fsync, Arc::new(RealFs)).expect("reopen");
        assert_eq!(rec.ops.len() as u64, THREADS * APPENDS);
        let mut ids: Vec<u64> = rec
            .ops
            .iter()
            .map(|op| match op {
                WalOp::Remove { id } => *id,
                other => panic!("unexpected record {other:?}"),
            })
            .collect();
        ids.sort_unstable();
        let want: Vec<u64> = (0..THREADS)
            .flat_map(|t| (0..APPENDS).map(move |i| t * 100 + i))
            .collect();
        assert_eq!(ids, want, "every acknowledged record replays");
    }

    #[test]
    fn atomic_write_replaces_whole_or_not_at_all() {
        let tmp = TempDir::new("atomic");
        let target = tmp.0.join("snap.bin");
        atomic_write(&RealFs, &target, b"first").expect("write 1");
        assert_eq!(std::fs::read(&target).expect("read"), b"first");
        atomic_write(&RealFs, &target, b"second, longer").expect("write 2");
        assert_eq!(std::fs::read(&target).expect("read"), b"second, longer");
        // A crash before the rename leaves the old contents untouched.
        let fs = CrashPointFs::new(2, false); // create, append, then die at fsync
        assert!(atomic_write(&fs, &target, b"torn").is_err());
        assert_eq!(std::fs::read(&target).expect("read"), b"second, longer");
    }

    fn arb_wal_op() -> impl Strategy<Value = WalOp> {
        (
            0u32..4,
            0u64..32,
            prop::collection::vec(0u32..=u32::MAX, 0..5),
        )
            .prop_map(|(kind, id, bits)| match kind {
                0 => WalOp::Compact,
                1 => WalOp::Remove { id },
                _ => WalOp::Upsert {
                    id,
                    vector: bits.into_iter().map(f32::from_bits).collect(),
                },
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // The satellite property: truncating a log at EVERY byte offset
        // recovers exactly a prefix of the appended ops — the torn final
        // record is dropped, never misparsed as a different op.
        #[test]
        fn truncation_at_every_offset_recovers_a_prefix(
            ops in prop::collection::vec(arb_wal_op(), 0..7),
        ) {
            let records: Vec<Vec<u8>> = ops.iter().map(encode_record).collect();
            let mut boundaries = vec![0usize];
            let mut stream = Vec::new();
            for r in &records {
                stream.extend_from_slice(r);
                boundaries.push(stream.len());
            }
            for cut in 0..=stream.len() {
                let (got, consumed) = replay(&stream[..cut]);
                // Exactly the records wholly inside the cut survive.
                let want = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
                prop_assert_eq!(got.len(), want, "cut {}", cut);
                prop_assert_eq!(consumed, boundaries[want]);
                for (g, w) in got.iter().zip(&ops) {
                    prop_assert!(same_op(g, w));
                }
            }
        }
    }
}
