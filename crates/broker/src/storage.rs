//! Durable broker state behind a `Storage` seam.
//!
//! Mirrors the `Transport` seam: the broker journals
//! its per-neighbor send spool through an append-only write-ahead log and
//! checkpoints its control state (subscriptions, id allocator, incarnation
//! nonce) into atomic snapshot slots, all through the [`Storage`] trait.
//! Two implementations exist:
//!
//! - [`FsStorage`] — real files under a directory: `<log>.wal` append-only
//!   logs with `sync_data` on commit, `<slot>.snap` snapshots written via
//!   temp-file + fsync + rename so a crash never exposes a half-written
//!   snapshot.
//! - [`SimStorage`] — deterministic in-memory storage for the simulated
//!   cluster models and crash tests, with injectable power-cut semantics
//!   ([`PowerCut`]):
//!   a torn tail record, a lost unsynced suffix, or an interrupted
//!   snapshot rename.
//!
//! WAL bytes are framed as CRC-guarded records (`[u32 len][u32 crc]
//! [payload]`). Recovery decodes the byte stream front to back and stops
//! at the first short or corrupt record: a torn tail is *discarded*, never
//! replayed as data. Each record payload is a batch of [`WalOp`]s that
//! commit atomically — either the whole batch survives the cut or none of
//! it does.

use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use bytes::{Buf, BufMut, Bytes};

/// Upper bound on a single WAL record payload. A record batches at most
/// one forwarded frame per neighbor link, each bounded by the 16 MiB wire
/// frame cap, so this is generous; anything larger is treated as
/// corruption by the decoder.
pub(crate) const MAX_WAL_RECORD: usize = 256 * 1024 * 1024;

/// Bytes of framing in front of every WAL record payload.
const RECORD_HEADER: usize = 8;

/// Durable storage used by a broker: named append-only byte logs plus
/// named atomic snapshot slots.
///
/// Log semantics: `append` adds bytes to the end of a log; the bytes are
/// *not* guaranteed durable until `sync` returns. `read` returns the full
/// current contents; after a crash, an implementation may surface a torn
/// tail (partial final write) — callers must frame their data so torn
/// tails are detectable (the broker's WAL frames each record with its
/// length and a CRC).
///
/// Snapshot semantics: `write_snapshot` atomically replaces the slot's
/// contents — after a crash the slot holds either the old or the new
/// bytes, never a mixture.
pub trait Storage: Send + Sync + fmt::Debug {
    /// Appends bytes to the end of the named log.
    fn append(&self, log: &str, bytes: &[u8]) -> io::Result<()>;
    /// Makes all previously appended bytes of the named log durable.
    fn sync(&self, log: &str) -> io::Result<()>;
    /// Reads the full contents of the named log (empty if absent).
    fn read(&self, log: &str) -> io::Result<Vec<u8>>;
    /// Durably resets the named log to empty.
    fn truncate(&self, log: &str) -> io::Result<()>;
    /// Atomically replaces the named snapshot slot with `bytes`.
    fn write_snapshot(&self, slot: &str, bytes: &[u8]) -> io::Result<()>;
    /// Reads the named snapshot slot, or `None` if never written.
    fn read_snapshot(&self, slot: &str) -> io::Result<Option<Vec<u8>>>;
}

// ---------------------------------------------------------------------------
// CRC-framed records
// ---------------------------------------------------------------------------

// CRC-32 (IEEE, reflected 0xedb88320) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        // analyzer:allow(index): i < 256 by the loop bound
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 checksum over `bytes` (IEEE polynomial, reflected).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        let idx = ((crc ^ b as u32) & 0xff) as usize;
        crc = CRC_TABLE.get(idx).copied().unwrap_or(0) ^ (crc >> 8);
    }
    !crc
}

/// Appends one CRC-framed record (`[u32 len][u32 crc][payload]`) to `out`.
pub(crate) fn encode_record(payload: &[u8], out: &mut Vec<u8>) {
    debug_assert!(payload.len() <= MAX_WAL_RECORD);
    out.put_u32_le(payload.len() as u32);
    out.put_u32_le(crc32(payload));
    out.extend_from_slice(payload);
}

/// Decodes CRC-framed records front to back, stopping at the first short,
/// oversized, or checksum-failing record. Returns the intact payloads and
/// the number of torn/corrupt tail records discarded (0 or 1: decoding
/// stops at the first bad frame, so everything after it is unreachable).
pub(crate) fn decode_records(data: &[u8]) -> (Vec<Bytes>, u64) {
    let mut buf = data;
    let mut records = Vec::new();
    let mut torn = 0u64;
    while buf.has_remaining() {
        if buf.remaining() < RECORD_HEADER {
            torn += 1;
            break;
        }
        let len = buf.get_u32_le() as usize;
        let want = buf.get_u32_le();
        if len > MAX_WAL_RECORD || buf.remaining() < len {
            torn += 1;
            break;
        }
        let Some(head) = buf.get(..len) else {
            torn += 1;
            break;
        };
        if crc32(head) != want {
            torn += 1;
            break;
        }
        records.push(Bytes::copy_from_slice(head));
        buf.advance(len);
    }
    (records, torn)
}

// ---------------------------------------------------------------------------
// WAL operations
// ---------------------------------------------------------------------------

const OP_RECV_MARK: u8 = 1;
const OP_APPEND: u8 = 2;
const OP_TRIM: u8 = 3;

/// One journaled spool operation. A WAL record payload is a batch of
/// these; the batch is the crash-atomicity unit, so a forward's receive
/// mark and the spool appends it caused always live in one record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WalOp {
    /// Advance of the inbound dedup window for neighbor `from`: frames up
    /// to `seq` of the peer's incarnation `incarnation` have been routed.
    RecvMark {
        /// Raw id of the upstream neighbor broker.
        from: u32,
        /// The peer incarnation the sequence belongs to.
        incarnation: u64,
        /// Highest contiguous routed sequence number.
        seq: u64,
    },
    /// A frame appended to the send spool toward `neighbor` at `seq`.
    Append {
        /// Raw id of the downstream neighbor broker.
        neighbor: u32,
        /// Spool sequence number assigned to the frame.
        seq: u64,
        /// The encoded Forward frame.
        frame: Bytes,
    },
    /// The spool toward `neighbor` was acked (and trimmed) up to `acked`.
    Trim {
        /// Raw id of the downstream neighbor broker.
        neighbor: u32,
        /// Cumulative acknowledged sequence number.
        acked: u64,
    },
}

/// Encodes a batch of WAL operations into a record payload.
pub(crate) fn encode_ops(ops: &[WalOp]) -> Vec<u8> {
    let mut out = Vec::new();
    for op in ops {
        match op {
            WalOp::RecvMark {
                from,
                incarnation,
                seq,
            } => {
                out.put_u8(OP_RECV_MARK);
                out.put_u32_le(*from);
                out.put_u64_le(*incarnation);
                out.put_u64_le(*seq);
            }
            WalOp::Append {
                neighbor,
                seq,
                frame,
            } => {
                out.put_u8(OP_APPEND);
                out.put_u32_le(*neighbor);
                out.put_u64_le(*seq);
                out.put_u32_le(frame.len() as u32);
                out.extend_from_slice(frame);
            }
            WalOp::Trim { neighbor, acked } => {
                out.put_u8(OP_TRIM);
                out.put_u32_le(*neighbor);
                out.put_u64_le(*acked);
            }
        }
    }
    out
}

/// Decodes a record payload back into WAL operations. Returns `None` on
/// any structural inconsistency — the payload already passed its CRC, so
/// a decode failure means a format bug or version skew, and the caller
/// should treat the record as unusable rather than half-apply it.
pub(crate) fn decode_ops(payload: &[u8]) -> Option<Vec<WalOp>> {
    let mut buf = payload;
    let mut ops = Vec::new();
    while buf.has_remaining() {
        let tag = buf.get_u8();
        match tag {
            OP_RECV_MARK => {
                if buf.remaining() < 20 {
                    return None;
                }
                ops.push(WalOp::RecvMark {
                    from: buf.get_u32_le(),
                    incarnation: buf.get_u64_le(),
                    seq: buf.get_u64_le(),
                });
            }
            OP_APPEND => {
                if buf.remaining() < 16 {
                    return None;
                }
                let neighbor = buf.get_u32_le();
                let seq = buf.get_u64_le();
                let frame_len = buf.get_u32_le() as usize;
                if frame_len > MAX_WAL_RECORD || buf.remaining() < frame_len {
                    return None;
                }
                let frame = Bytes::copy_from_slice(buf.get(..frame_len)?);
                buf.advance(frame_len);
                ops.push(WalOp::Append {
                    neighbor,
                    seq,
                    frame,
                });
            }
            OP_TRIM => {
                if buf.remaining() < 12 {
                    return None;
                }
                ops.push(WalOp::Trim {
                    neighbor: buf.get_u32_le(),
                    acked: buf.get_u64_le(),
                });
            }
            _ => return None,
        }
    }
    Some(ops)
}

// ---------------------------------------------------------------------------
// FsStorage
// ---------------------------------------------------------------------------

/// File-backed [`Storage`]: append-only `<log>.wal` files with
/// `sync_data` durability and `<slot>.snap` snapshots replaced via
/// temp-file + fsync + rename.
pub struct FsStorage {
    root: PathBuf,
    /// Cached append handles, one per log name (lock order: `store` is
    /// innermost — see docs/LOCK_ORDER.md). File writes happen on clones
    /// of the handle *outside* the guard.
    store: Mutex<HashMap<String, File>>,
}

impl FsStorage {
    /// Opens (creating if needed) a storage directory.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<FsStorage> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(FsStorage {
            root,
            store: Mutex::new(HashMap::new()),
        })
    }

    fn log_path(&self, log: &str) -> PathBuf {
        self.root.join(format!("{log}.wal"))
    }

    fn snap_path(&self, slot: &str) -> PathBuf {
        self.root.join(format!("{slot}.snap"))
    }

    /// Returns an owned clone of the cached append handle for `log`,
    /// opening it on first use. Appends on the clone are positioned by
    /// `O_APPEND`, so cloning is safe.
    fn handle(&self, log: &str) -> io::Result<File> {
        let mut store = self.store.lock().unwrap_or_else(|e| e.into_inner());
        if !store.contains_key(log) {
            let file = OpenOptions::new()
                .append(true)
                .create(true)
                .open(self.log_path(log))?;
            store.insert(log.to_string(), file);
        }
        match store.get(log) {
            Some(file) => file.try_clone(),
            None => Err(io::Error::new(io::ErrorKind::NotFound, "log handle")),
        }
    }
}

impl fmt::Debug for FsStorage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FsStorage({})", self.root.display())
    }
}

impl Storage for FsStorage {
    fn append(&self, log: &str, bytes: &[u8]) -> io::Result<()> {
        let mut file = self.handle(log)?;
        file.write_all(bytes)
    }

    fn sync(&self, log: &str) -> io::Result<()> {
        self.handle(log)?.sync_data()
    }

    fn read(&self, log: &str) -> io::Result<Vec<u8>> {
        match std::fs::read(self.log_path(log)) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    fn truncate(&self, log: &str) -> io::Result<()> {
        let file = self.handle(log)?;
        file.set_len(0)?;
        file.sync_data()
    }

    fn write_snapshot(&self, slot: &str, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.root.join(format!("{slot}.snap.tmp"));
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, self.snap_path(slot))?;
        // Durable directory entry for the rename; best effort — some
        // filesystems refuse fsync on directories.
        if let Ok(dir) = File::open(&self.root) {
            let _ = dir.sync_all();
        }
        Ok(())
    }

    fn read_snapshot(&self, slot: &str) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.snap_path(slot)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// SimStorage
// ---------------------------------------------------------------------------

/// A power-cut mode for [`SimStorage::power_cut`]: what the simulated
/// disk looks like when the plug is pulled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerCut {
    /// The unsynced suffix of each log is partially written: roughly half
    /// of it survives, tearing the tail record mid-frame.
    TornTail,
    /// The unsynced suffix of each log is lost entirely; logs revert to
    /// their last synced length.
    LostSuffix,
    /// The most recent snapshot write was interrupted before its rename
    /// committed: the slot reverts to its previous contents (or to
    /// absent). Unsynced log suffixes are lost as well.
    ///
    /// "Interrupted" means the process died inside the write call: any
    /// storage operation performed *after* `write_snapshot` returned
    /// proves the process survived it, and the rename is then taken as
    /// committed ([`FsStorage`] forces exactly this with an fsync of the
    /// directory inside the call). Without that rule, a cut could revert
    /// a snapshot while keeping the WAL truncate that followed it — a
    /// disk state no real crash can produce, and one the recovery
    /// protocol is deliberately not asked to survive.
    SnapshotTorn,
}

impl PowerCut {
    /// Parses the CLI/env spelling of a mode (`torn-tail`,
    /// `lost-suffix`, `snapshot-torn`).
    pub fn parse(s: &str) -> Option<PowerCut> {
        match s {
            "torn-tail" => Some(PowerCut::TornTail),
            "lost-suffix" => Some(PowerCut::LostSuffix),
            "snapshot-torn" => Some(PowerCut::SnapshotTorn),
            _ => None,
        }
    }
}

#[derive(Default)]
struct SimLog {
    data: Vec<u8>,
    synced: usize,
}

#[derive(Default)]
struct SimState {
    logs: HashMap<String, SimLog>,
    snaps: HashMap<String, Vec<u8>>,
    /// Armed while the most recent storage operation was a snapshot
    /// write: `(slot, previous contents)` — what an interrupted rename
    /// reverts. Any later log operation disarms it (the process provably
    /// survived the write call, so the rename committed — see
    /// [`PowerCut::SnapshotTorn`]).
    last_snap: Option<(String, Option<Vec<u8>>)>,
}

/// Deterministic in-memory [`Storage`] for crash tests: the simulator's
/// crash model and the TCP tests that crash a `BrokerNode`. The harness
/// holds the `Arc` across a crash (the broker's state is dropped, the
/// storage survives) and injects a [`PowerCut`] to model what a real disk
/// would retain.
#[derive(Default)]
pub struct SimStorage {
    store: Mutex<SimState>,
}

impl SimStorage {
    /// Creates empty storage.
    pub fn new() -> SimStorage {
        SimStorage::default()
    }

    fn locked(&self) -> MutexGuard<'_, SimState> {
        self.store.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Applies power-cut semantics: everything not durable at the moment
    /// of the cut is degraded according to `mode`. Call between dropping
    /// the crashed broker and booting its replacement.
    pub fn power_cut(&self, mode: PowerCut) {
        let mut state = self.locked();
        for log in state.logs.values_mut() {
            let keep = match mode {
                // Half of the unsynced suffix made it to the platter.
                PowerCut::TornTail => log.synced + (log.data.len() - log.synced) / 2,
                PowerCut::LostSuffix | PowerCut::SnapshotTorn => log.synced,
            };
            log.data.truncate(keep);
            log.synced = log.data.len();
        }
        if mode == PowerCut::SnapshotTorn {
            if let Some((slot, prev)) = state.last_snap.take() {
                match prev {
                    Some(bytes) => {
                        state.snaps.insert(slot, bytes);
                    }
                    None => {
                        state.snaps.remove(&slot);
                    }
                }
            }
        }
        // Whatever survived the cut is, by definition, durable now; and
        // any snapshot older than the reverted one committed long ago.
        state.last_snap = None;
    }
}

impl fmt::Debug for SimStorage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SimStorage")
    }
}

impl Storage for SimStorage {
    fn append(&self, log: &str, bytes: &[u8]) -> io::Result<()> {
        let mut state = self.locked();
        state.last_snap = None; // see `SimState::last_snap`
        let entry = state.logs.entry(log.to_string()).or_default();
        entry.data.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&self, log: &str) -> io::Result<()> {
        let mut state = self.locked();
        state.last_snap = None;
        let entry = state.logs.entry(log.to_string()).or_default();
        entry.synced = entry.data.len();
        Ok(())
    }

    fn read(&self, log: &str) -> io::Result<Vec<u8>> {
        let state = self.locked();
        Ok(state
            .logs
            .get(log)
            .map(|l| l.data.clone())
            .unwrap_or_default())
    }

    fn truncate(&self, log: &str) -> io::Result<()> {
        let mut state = self.locked();
        state.last_snap = None;
        let entry = state.logs.entry(log.to_string()).or_default();
        entry.data.clear();
        entry.synced = 0;
        Ok(())
    }

    fn write_snapshot(&self, slot: &str, bytes: &[u8]) -> io::Result<()> {
        let mut state = self.locked();
        let prev = state.snaps.insert(slot.to_string(), bytes.to_vec());
        state.last_snap = Some((slot.to_string(), prev));
        Ok(())
    }

    fn read_snapshot(&self, slot: &str) -> io::Result<Option<Vec<u8>>> {
        let state = self.locked();
        Ok(state.snaps.get(slot).cloned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn record(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_record(payload, &mut out);
        out
    }

    #[test]
    fn records_roundtrip() {
        let mut bytes = Vec::new();
        encode_record(b"alpha", &mut bytes);
        encode_record(b"", &mut bytes);
        encode_record(&[0xab; 300], &mut bytes);
        let (records, torn) = decode_records(&bytes);
        assert_eq!(torn, 0);
        assert_eq!(records.len(), 3);
        assert_eq!(&records[0][..], b"alpha");
        assert_eq!(&records[1][..], b"");
        assert_eq!(&records[2][..], &[0xab; 300][..]);
    }

    #[test]
    fn torn_tail_record_is_discarded_not_replayed() {
        let mut bytes = record(b"intact");
        let second = record(b"torn-away");
        // Simulate a crash mid-write of the second record.
        bytes.extend_from_slice(&second[..second.len() - 3]);
        let (records, torn) = decode_records(&bytes);
        assert_eq!(records.len(), 1, "torn tail must never surface as data");
        assert_eq!(&records[0][..], b"intact");
        assert_eq!(torn, 1);
    }

    #[test]
    fn corrupt_crc_stops_decoding() {
        let mut bytes = record(b"first");
        let mut second = record(b"second");
        second[10] ^= 0x40; // flip a payload bit: CRC mismatch
        bytes.extend_from_slice(&second);
        let (records, torn) = decode_records(&bytes);
        assert_eq!(records.len(), 1);
        assert_eq!(torn, 1);
    }

    #[test]
    fn oversized_length_field_is_corruption() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[1, 2, 3]);
        let (records, torn) = decode_records(&bytes);
        assert!(records.is_empty());
        assert_eq!(torn, 1);
    }

    #[test]
    fn ops_roundtrip() {
        let ops = vec![
            WalOp::RecvMark {
                from: 3,
                incarnation: 0xdead_beef,
                seq: 41,
            },
            WalOp::Append {
                neighbor: 2,
                seq: 7,
                frame: Bytes::from_static(b"frame-bytes"),
            },
            WalOp::Trim {
                neighbor: 2,
                acked: 6,
            },
        ];
        let payload = encode_ops(&ops);
        assert_eq!(decode_ops(&payload).unwrap(), ops);
    }

    #[test]
    fn truncated_ops_payload_is_rejected_whole() {
        let payload = encode_ops(&[WalOp::Append {
            neighbor: 1,
            seq: 1,
            frame: Bytes::from_static(b"0123456789"),
        }]);
        assert!(decode_ops(&payload[..payload.len() - 1]).is_none());
        assert!(decode_ops(&[0x7f]).is_none(), "unknown tag");
    }

    #[test]
    fn sim_torn_tail_tears_only_unsynced_suffix() {
        let s = SimStorage::new();
        s.append("wal", &record(b"durable")).unwrap();
        s.sync("wal").unwrap();
        s.append("wal", &record(b"in-flight")).unwrap();
        s.power_cut(PowerCut::TornTail);
        let (records, torn) = decode_records(&s.read("wal").unwrap());
        assert_eq!(records.len(), 1);
        assert_eq!(&records[0][..], b"durable");
        assert_eq!(torn, 1, "the half-written tail must decode as torn");
    }

    #[test]
    fn sim_lost_suffix_reverts_to_synced_prefix() {
        let s = SimStorage::new();
        s.append("wal", &record(b"one")).unwrap();
        s.append("wal", &record(b"two")).unwrap();
        s.sync("wal").unwrap();
        s.append("wal", &record(b"three")).unwrap();
        s.power_cut(PowerCut::LostSuffix);
        let (records, torn) = decode_records(&s.read("wal").unwrap());
        assert_eq!(records.len(), 2);
        assert_eq!(torn, 0, "a clean suffix loss leaves no torn record");
    }

    #[test]
    fn sim_snapshot_torn_reverts_to_previous_snapshot() {
        let s = SimStorage::new();
        s.write_snapshot("state", b"v1").unwrap();
        s.write_snapshot("state", b"v2").unwrap();
        s.power_cut(PowerCut::SnapshotTorn);
        assert_eq!(s.read_snapshot("state").unwrap().unwrap(), b"v1");
        // A second cut must not revert further: v1's rename committed.
        s.power_cut(PowerCut::SnapshotTorn);
        assert_eq!(s.read_snapshot("state").unwrap().unwrap(), b"v1");
    }

    #[test]
    fn sim_snapshot_commits_once_a_later_log_op_runs() {
        // The checkpoint protocol is snapshot-then-truncate: the truncate
        // (or any later log op) proves the process survived the snapshot
        // write, so a cut after it must not revert the slot — otherwise
        // the cut would fabricate a disk holding the *old* snapshot and
        // the *new* (truncated) WAL, which no real crash produces.
        let s = SimStorage::new();
        s.write_snapshot("state", b"v1").unwrap();
        s.write_snapshot("state", b"v2").unwrap();
        s.truncate("wal").unwrap();
        s.power_cut(PowerCut::SnapshotTorn);
        assert_eq!(s.read_snapshot("state").unwrap().unwrap(), b"v2");
    }

    #[test]
    fn sim_snapshot_torn_first_write_reverts_to_absent() {
        let s = SimStorage::new();
        s.write_snapshot("state", b"v1").unwrap();
        s.power_cut(PowerCut::SnapshotTorn);
        assert!(s.read_snapshot("state").unwrap().is_none());
    }

    #[test]
    fn sim_truncate_and_committed_snapshot_survive_cuts() {
        let s = SimStorage::new();
        s.append("wal", &record(b"old")).unwrap();
        s.sync("wal").unwrap();
        s.write_snapshot("state", b"v1").unwrap();
        s.truncate("wal").unwrap();
        s.append("wal", &record(b"new")).unwrap();
        s.sync("wal").unwrap();
        s.power_cut(PowerCut::TornTail);
        let (records, torn) = decode_records(&s.read("wal").unwrap());
        assert_eq!(records.len(), 1);
        assert_eq!(&records[0][..], b"new");
        assert_eq!(torn, 0);
        assert_eq!(s.read_snapshot("state").unwrap().unwrap(), b"v1");
    }

    #[test]
    fn power_cut_modes_parse() {
        assert_eq!(PowerCut::parse("torn-tail"), Some(PowerCut::TornTail));
        assert_eq!(PowerCut::parse("lost-suffix"), Some(PowerCut::LostSuffix));
        assert_eq!(
            PowerCut::parse("snapshot-torn"),
            Some(PowerCut::SnapshotTorn)
        );
        assert_eq!(PowerCut::parse("yank-the-plug"), None);
    }

    fn temp_root() -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        std::env::temp_dir().join(format!(
            "linkcast-fsstorage-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn fs_log_roundtrip_and_truncate() {
        let root = temp_root();
        let s = FsStorage::open(&root).unwrap();
        assert!(s.read("wal").unwrap().is_empty(), "missing log reads empty");
        s.append("wal", &record(b"one")).unwrap();
        s.append("wal", &record(b"two")).unwrap();
        s.sync("wal").unwrap();
        let (records, torn) = decode_records(&s.read("wal").unwrap());
        assert_eq!((records.len(), torn), (2, 0));
        s.truncate("wal").unwrap();
        assert!(s.read("wal").unwrap().is_empty());
        s.append("wal", &record(b"three")).unwrap();
        let (records, _) = decode_records(&s.read("wal").unwrap());
        assert_eq!(&records[0][..], b"three");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn fs_snapshot_replace_and_reopen() {
        let root = temp_root();
        {
            let s = FsStorage::open(&root).unwrap();
            assert!(s.read_snapshot("state").unwrap().is_none());
            s.write_snapshot("state", b"v1").unwrap();
            s.write_snapshot("state", b"v2").unwrap();
            assert_eq!(s.read_snapshot("state").unwrap().unwrap(), b"v2");
            s.append("wal", &record(b"persisted")).unwrap();
            s.sync("wal").unwrap();
        }
        // A fresh FsStorage over the same directory sees the same state —
        // the recovery path after a process restart.
        let s = FsStorage::open(&root).unwrap();
        assert_eq!(s.read_snapshot("state").unwrap().unwrap(), b"v2");
        let (records, torn) = decode_records(&s.read("wal").unwrap());
        assert_eq!((records.len(), torn), (1, 0));
        assert_eq!(&records[0][..], b"persisted");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
