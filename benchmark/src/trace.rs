//! Benchmark-owned tracing at the two seams `BrokerConfig` exposes:
//! [`TracedTransport`] wraps the `Transport` a broker binds and dials
//! through, [`TracedStorage`] the `Storage` it journals to. Every call
//! across a seam becomes one span (name, start, end, parent phase,
//! connection or log label, frames, bytes). Counts and time totals are
//! kept for *every* call; the spans themselves go to per-thread buffers
//! of fixed capacity that are written out once, when the run ends.
//!
//! Tracing is switched on only for the phases of a `--trace 1` run that
//! ask for it; while off, a wrapper costs one relaxed atomic load per
//! call, so the same cluster can be measured both ways and the difference
//! reported as tracing overhead.

use std::cell::RefCell;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use linkcast_broker::{Connection, LinkReader, LinkWriter, Listener, Storage, Transport};

use crate::schedule::now_ns;

/// Spans kept per thread; later ones are counted in the totals but not
/// stored (the totals, not the stored sample, feed the metrics).
pub const SPANS_PER_THREAD: usize = 4096;
/// Distinct phases one tracer can tell apart.
pub const MAX_PHASES: usize = 8;

/// What a span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A run phase; the parent of everything recorded during it.
    Phase,
    /// `LinkWriter::write_batch`.
    Write,
    /// A `LinkReader::read` that returned bytes (its start is when the
    /// thread began waiting, so only its count and bytes are used).
    Read,
    /// `Storage::append`.
    Append,
    /// `Storage::sync`.
    Sync,
    /// `Storage::write_snapshot`.
    Snapshot,
    /// `Storage::truncate`.
    Truncate,
    /// `Storage::read` / `read_snapshot` (recovery at boot).
    Load,
    /// The generator handing one sampled event to its socket.
    GenPublish,
    /// The generator receiving that event.
    GenDeliver,
}

const KINDS: usize = 10;

impl Kind {
    /// Span name as written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Phase => "phase",
            Kind::Write => "broker.transport.write",
            Kind::Read => "broker.transport.read",
            Kind::Append => "broker.storage.append",
            Kind::Sync => "broker.storage.sync",
            Kind::Snapshot => "broker.storage.snapshot",
            Kind::Truncate => "broker.storage.truncate",
            Kind::Load => "broker.storage.load",
            Kind::GenPublish => "gen.publish",
            Kind::GenDeliver => "gen.deliver",
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was measured.
    pub kind: Kind,
    /// Phase spans: the phase id. Generator spans: the event's `ts`, so
    /// the publish and deliver span of one event share it. Otherwise 0.
    pub id: i64,
    /// Id of the phase span this one ran under (0 = none).
    pub parent: u32,
    /// Connection, log or phase label.
    pub label: Arc<str>,
    /// Start, ns on the run clock.
    pub start_ns: i64,
    /// End, ns on the run clock.
    pub end_ns: i64,
    /// Frames in a write batch; 1 for other calls.
    pub frames: u32,
    /// Bytes moved.
    pub bytes: u64,
}

/// Totals of one kind of call within one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Calls.
    pub calls: u64,
    /// Σ duration, ns.
    pub ns: u64,
    /// Σ frames.
    pub frames: u64,
    /// Σ bytes.
    pub bytes: u64,
}

impl Totals {
    /// Mean duration of one call, ns (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

#[derive(Default)]
struct Cell {
    calls: AtomicU64,
    ns: AtomicU64,
    frames: AtomicU64,
    bytes: AtomicU64,
}

type Buffer = Arc<Mutex<Vec<Span>>>;

thread_local! {
    /// This thread's span buffer and the tracer it is registered with.
    static LOCAL: RefCell<Option<(usize, Buffer)>> = const { RefCell::new(None) };
}

/// Collects spans and totals for one cluster's lifetime.
pub struct Tracer {
    /// Process-unique, so a thread's cached buffer is never mistaken for
    /// one registered with an earlier tracer at a reused address.
    serial: usize,
    enabled: AtomicBool,
    phase: AtomicU32,
    next_phase: AtomicU32,
    phase_labels: Mutex<Vec<Arc<str>>>,
    cells: Vec<Cell>,
    buffers: Mutex<Vec<Buffer>>,
    dropped: AtomicU64,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Tracer {
    /// A tracer that records nothing until a phase enables it.
    pub fn new() -> Arc<Self> {
        static SERIAL: AtomicUsize = AtomicUsize::new(1);
        Arc::new(Tracer {
            serial: SERIAL.fetch_add(1, Ordering::Relaxed),
            enabled: AtomicBool::new(false),
            phase: AtomicU32::new(0),
            next_phase: AtomicU32::new(1),
            phase_labels: Mutex::new(vec![Arc::from("none")]),
            cells: (0..MAX_PHASES * KINDS).map(|_| Cell::default()).collect(),
            buffers: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        })
    }

    /// Whether calls are being recorded right now.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Opens a phase: spans recorded from now on name it as parent.
    /// `record` switches recording on or off for its duration.
    pub fn begin_phase(&self, label: &str, record: bool) -> Phase {
        let id = self.next_phase.fetch_add(1, Ordering::Relaxed);
        assert!((id as usize) < MAX_PHASES, "too many trace phases");
        self.phase_labels
            .lock()
            .expect("no panic while labelling")
            .push(Arc::from(label));
        self.phase.store(id, Ordering::Relaxed);
        self.enabled.store(record, Ordering::Relaxed);
        Phase {
            id,
            start_ns: now_ns(),
        }
    }

    /// Closes a phase, recording its own span and switching recording off.
    pub fn end_phase(&self, phase: Phase) {
        let end = now_ns();
        let was_on = self.enabled.swap(false, Ordering::Relaxed);
        self.phase.store(0, Ordering::Relaxed);
        if was_on {
            let label = self.phase_label(phase.id);
            self.push(Span {
                kind: Kind::Phase,
                id: i64::from(phase.id),
                parent: 0,
                label,
                start_ns: phase.start_ns,
                end_ns: end,
                frames: 0,
                bytes: 0,
            });
        }
    }

    fn phase_label(&self, id: u32) -> Arc<str> {
        self.phase_labels
            .lock()
            .expect("no panic while labelling")
            .get(id as usize)
            .cloned()
            .unwrap_or_else(|| Arc::from("?"))
    }

    /// Records one call across a seam (no-op while recording is off).
    #[allow(clippy::too_many_arguments)] // a span's fields, passed once
    pub fn record(
        &self,
        kind: Kind,
        label: &Arc<str>,
        id: i64,
        start_ns: i64,
        end_ns: i64,
        frames: u32,
        bytes: u64,
    ) {
        if !self.enabled() {
            return;
        }
        let parent = self.phase.load(Ordering::Relaxed);
        let cell = &self.cells[parent as usize * KINDS + kind as usize];
        cell.calls.fetch_add(1, Ordering::Relaxed);
        cell.ns
            .fetch_add((end_ns - start_ns).max(0) as u64, Ordering::Relaxed);
        cell.frames.fetch_add(u64::from(frames), Ordering::Relaxed);
        cell.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.push(Span {
            kind,
            id,
            parent,
            label: Arc::clone(label),
            start_ns,
            end_ns,
            frames,
            bytes,
        });
    }

    fn push(&self, span: Span) {
        let me = self.serial;
        LOCAL.with(|local| {
            let mut local = local.borrow_mut();
            if local.as_ref().map(|(owner, _)| *owner) != Some(me) {
                // First span of this thread under this tracer: pre-size
                // its buffer once and register it for the final dump.
                let buffer: Buffer = Arc::new(Mutex::new(Vec::with_capacity(SPANS_PER_THREAD)));
                self.buffers
                    .lock()
                    .expect("no panic while registering")
                    .push(Arc::clone(&buffer));
                *local = Some((me, buffer));
            }
            let (_, buffer) = local.as_ref().expect("registered above");
            // Uncontended: only this thread pushes, the dump runs after
            // the cluster is down.
            let mut spans = buffer.lock().expect("no panic while pushing");
            if spans.len() < SPANS_PER_THREAD {
                spans.push(span);
            } else {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        });
    }

    /// Totals of `kind` within `phase`.
    pub fn totals(&self, phase: &Phase, kind: Kind) -> Totals {
        let cell = &self.cells[phase.id as usize * KINDS + kind as usize];
        Totals {
            calls: cell.calls.load(Ordering::Relaxed),
            ns: cell.ns.load(Ordering::Relaxed),
            frames: cell.frames.load(Ordering::Relaxed),
            bytes: cell.bytes.load(Ordering::Relaxed),
        }
    }

    /// Every stored span, ordered by start time, plus how many more were
    /// counted but not stored.
    pub fn spans(&self) -> (Vec<Span>, u64) {
        let mut all: Vec<Span> = Vec::new();
        for buffer in self.buffers.lock().expect("no panic while dumping").iter() {
            all.extend(
                buffer
                    .lock()
                    .expect("no panic while dumping")
                    .iter()
                    .cloned(),
            );
        }
        all.sort_by_key(|s| (s.start_ns, s.end_ns));
        (all, self.dropped.load(Ordering::Relaxed))
    }

    /// Writes the stored spans as one JSON document.
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing the file.
    pub fn write_json(&self, path: &Path, workload: &str) -> io::Result<usize> {
        let (spans, dropped) = self.spans();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"clock\":\"ns since process start\",\
             \"spans_per_thread_cap\":{SPANS_PER_THREAD},\"spans_not_stored\":{dropped},\"spans\":[",
        )?;
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            write!(
                out,
                "\n{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"label\":\"{}\",\"start\":{},\"end\":{},\"frames\":{},\"bytes\":{}}}",
                s.kind.name(),
                s.id,
                s.parent,
                s.label,
                s.start_ns,
                s.end_ns,
                s.frames,
                s.bytes
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()?;
        Ok(spans.len())
    }
}

/// An open phase, returned by [`Tracer::begin_phase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// Phase span id (the `parent` of spans recorded under it).
    pub id: u32,
    /// When the phase began.
    pub start_ns: i64,
}

// ---------------------------------------------------------------------------
// Transport seam
// ---------------------------------------------------------------------------

/// A [`Transport`] that records every read and write of the connections
/// it creates.
#[derive(Debug)]
pub struct TracedTransport {
    inner: Arc<dyn Transport>,
    tracer: Arc<Tracer>,
    /// Broker label prefixed to connection labels.
    who: String,
    conns: Arc<AtomicU32>,
}

impl TracedTransport {
    /// Wraps `inner` for the broker called `who`.
    pub fn new(inner: Arc<dyn Transport>, tracer: Arc<Tracer>, who: &str) -> Self {
        TracedTransport {
            inner,
            tracer,
            who: who.to_string(),
            conns: Arc::new(AtomicU32::new(0)),
        }
    }
}

fn traced_connection(connection: Connection, tracer: &Arc<Tracer>, label: String) -> Connection {
    let label: Arc<str> = Arc::from(label);
    Connection {
        reader: Box::new(TracedReader {
            inner: connection.reader,
            tracer: Arc::clone(tracer),
            label: Arc::clone(&label),
        }),
        writer: Arc::new(TracedWriter {
            inner: connection.writer,
            tracer: Arc::clone(tracer),
            label,
        }),
    }
}

impl Transport for TracedTransport {
    fn bind(&self, addr: SocketAddr) -> io::Result<Box<dyn Listener>> {
        Ok(Box::new(TracedListener {
            inner: self.inner.bind(addr)?,
            tracer: Arc::clone(&self.tracer),
            who: self.who.clone(),
            conns: Arc::clone(&self.conns),
        }))
    }

    fn dial(&self, addr: SocketAddr) -> io::Result<Connection> {
        let n = self.conns.fetch_add(1, Ordering::Relaxed);
        let label = format!("{}.dial{n}:{}", self.who, addr.port());
        Ok(traced_connection(
            self.inner.dial(addr)?,
            &self.tracer,
            label,
        ))
    }
}

struct TracedListener {
    inner: Box<dyn Listener>,
    tracer: Arc<Tracer>,
    who: String,
    conns: Arc<AtomicU32>,
}

impl Listener for TracedListener {
    fn accept(&self) -> io::Result<Connection> {
        let connection = self.inner.accept()?;
        let n = self.conns.fetch_add(1, Ordering::Relaxed);
        Ok(traced_connection(
            connection,
            &self.tracer,
            format!("{}.accept{n}", self.who),
        ))
    }

    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }
}

struct TracedReader {
    inner: LinkReader,
    tracer: Arc<Tracer>,
    label: Arc<str>,
}

impl Read for TracedReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if !self.tracer.enabled() {
            return self.inner.read(buf);
        }
        let start = now_ns();
        let result = self.inner.read(buf);
        if let Ok(n) = result {
            if n > 0 {
                self.tracer
                    .record(Kind::Read, &self.label, 0, start, now_ns(), 1, n as u64);
            }
        }
        result
    }
}

struct TracedWriter {
    inner: Arc<dyn LinkWriter>,
    tracer: Arc<Tracer>,
    label: Arc<str>,
}

impl LinkWriter for TracedWriter {
    fn write_batch(&self, batch: &[Bytes]) -> io::Result<()> {
        if !self.tracer.enabled() {
            return self.inner.write_batch(batch);
        }
        let start = now_ns();
        let result = self.inner.write_batch(batch);
        let bytes: usize = batch.iter().map(Bytes::len).sum();
        self.tracer.record(
            Kind::Write,
            &self.label,
            0,
            start,
            now_ns(),
            batch.len() as u32,
            bytes as u64,
        );
        result
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }

    fn set_write_timeout(&self, timeout: Option<Duration>) {
        self.inner.set_write_timeout(timeout);
    }
}

// ---------------------------------------------------------------------------
// Storage seam
// ---------------------------------------------------------------------------

/// A [`Storage`] that records every call.
#[derive(Debug)]
pub struct TracedStorage {
    inner: Arc<dyn Storage>,
    tracer: Arc<Tracer>,
    who: String,
    /// `who.log` labels by log or slot name (a broker uses two), so a
    /// traced call does not format a string.
    labels: Mutex<Vec<(String, Arc<str>)>>,
}

impl TracedStorage {
    /// Wraps `inner` for the broker called `who`.
    pub fn new(inner: Arc<dyn Storage>, tracer: Arc<Tracer>, who: &str) -> Self {
        TracedStorage {
            inner,
            tracer,
            who: who.to_string(),
            labels: Mutex::new(Vec::new()),
        }
    }

    fn label(&self, name: &str) -> Arc<str> {
        let mut labels = self.labels.lock().expect("no panic while labelling");
        if let Some((_, label)) = labels.iter().find(|(n, _)| n == name) {
            return Arc::clone(label);
        }
        let label: Arc<str> = Arc::from(format!("{}.{name}", self.who));
        labels.push((name.to_string(), Arc::clone(&label)));
        label
    }

    fn call<T>(
        &self,
        kind: Kind,
        name: &str,
        bytes: u64,
        f: impl FnOnce() -> io::Result<T>,
    ) -> io::Result<T> {
        if !self.tracer.enabled() {
            return f();
        }
        let start = now_ns();
        let result = f();
        self.tracer
            .record(kind, &self.label(name), 0, start, now_ns(), 1, bytes);
        result
    }
}

impl Storage for TracedStorage {
    fn append(&self, log: &str, bytes: &[u8]) -> io::Result<()> {
        self.call(Kind::Append, log, bytes.len() as u64, || {
            self.inner.append(log, bytes)
        })
    }

    fn sync(&self, log: &str) -> io::Result<()> {
        self.call(Kind::Sync, log, 0, || self.inner.sync(log))
    }

    fn read(&self, log: &str) -> io::Result<Vec<u8>> {
        self.call(Kind::Load, log, 0, || self.inner.read(log))
    }

    fn truncate(&self, log: &str) -> io::Result<()> {
        self.call(Kind::Truncate, log, 0, || self.inner.truncate(log))
    }

    fn write_snapshot(&self, slot: &str, bytes: &[u8]) -> io::Result<()> {
        self.call(Kind::Snapshot, slot, bytes.len() as u64, || {
            self.inner.write_snapshot(slot, bytes)
        })
    }

    fn read_snapshot(&self, slot: &str) -> io::Result<Option<Vec<u8>>> {
        self.call(Kind::Load, slot, 0, || self.inner.read_snapshot(slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkcast_broker::SimStorage;

    #[test]
    fn storage_wrapper_books_one_span_per_call_under_the_open_phase() {
        let tracer = Tracer::new();
        let storage = TracedStorage::new(Arc::new(SimStorage::new()), Arc::clone(&tracer), "A");
        // Off: delegated, nothing recorded.
        storage.append("wal", b"abcd").unwrap();
        assert_eq!(tracer.spans().0.len(), 0);

        let phase = tracer.begin_phase("closed", true);
        storage.append("wal", b"efghij").unwrap();
        storage.append("wal", b"kl").unwrap();
        storage.sync("wal").unwrap();
        storage.write_snapshot("state", b"xyz").unwrap();
        tracer.end_phase(phase);
        storage.sync("wal").unwrap(); // off again

        assert_eq!(storage.read("wal").unwrap(), b"abcdefghijkl");
        let appends = tracer.totals(&phase, Kind::Append);
        assert_eq!((appends.calls, appends.bytes), (2, 8));
        assert_eq!(tracer.totals(&phase, Kind::Sync).calls, 1);
        assert_eq!(tracer.totals(&phase, Kind::Snapshot).bytes, 3);

        let (spans, dropped) = tracer.spans();
        assert_eq!(dropped, 0);
        assert_eq!(spans.len(), 5); // 4 calls + the phase span
        let parent = spans.iter().find(|s| s.kind == Kind::Phase).unwrap();
        assert_eq!(parent.id, i64::from(phase.id));
        for s in spans.iter().filter(|s| s.kind != Kind::Phase) {
            assert_eq!(s.parent, phase.id);
            assert!(s.start_ns >= parent.start_ns && s.end_ns <= parent.end_ns);
        }
        assert!(spans
            .iter()
            .any(|s| s.kind == Kind::Append && &*s.label == "A.wal"));
    }

    #[test]
    fn buffer_is_bounded_and_overflow_is_counted() {
        let tracer = Tracer::new();
        let label: Arc<str> = Arc::from("x");
        let phase = tracer.begin_phase("p", true);
        for i in 0..(SPANS_PER_THREAD as i64 + 10) {
            tracer.record(Kind::Write, &label, 0, i, i + 1, 2, 3);
        }
        let (spans, dropped) = tracer.spans();
        assert_eq!(spans.len(), SPANS_PER_THREAD);
        assert_eq!(dropped, 10);
        let t = tracer.totals(&phase, Kind::Write);
        assert_eq!(t.calls, SPANS_PER_THREAD as u64 + 10);
        assert_eq!(t.frames, 2 * t.calls);
        assert_eq!(t.mean_ns(), 1.0);
    }
}
