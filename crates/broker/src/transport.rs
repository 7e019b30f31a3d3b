//! The transport abstraction: the byte-stream surface the broker needs
//! from its network, factored behind traits so the default TCP stack
//! ([`crate::tcp::TcpTransport`]) and the deterministic in-memory network
//! ([`crate::simnet::SimNet`]) are interchangeable.
//!
//! The contract the broker relies on (DESIGN.md §12):
//!
//! - A connection is a reliable, ordered duplex byte stream. Frames are
//!   `[u32 LE length][payload]`; ordering per direction is what the
//!   per-link cumulative sequence dedup assumes.
//! - A listener's `accept` may block for as long as nothing dials it: the
//!   accept loop is woken for shutdown by a dial to its own address, never
//!   by a timer. A listener may instead return `WouldBlock` when idle and
//!   be polled.
//! - Readers block in short quanta: a read that has nothing to deliver
//!   returns `WouldBlock`/`TimedOut` within ~200 ms so reader threads can
//!   observe shutdown flags and handshake deadlines. `Ok(0)` means the
//!   peer really closed (EOF), never a timeout.
//! - [`LinkWriter::shutdown`] closes *both* directions, so the peer's
//!   reader and any local reader clone observe EOF — the teardown paths
//!   (`unregister`, `close_after_flush`) depend on that to unwedge reader
//!   threads and make dial-side supervisors redial.
//! - [`LinkWriter::set_write_timeout`] bounds how long a single write may
//!   block (SO_SNDTIMEO on TCP); a timed-out write fails the connection
//!   instead of wedging a sender-pool thread.

use std::fmt;
use std::io::{self, ErrorKind, Read};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::Sender;

use crate::broker::Command;
use crate::outbox::{ConnId, Outbox, Sink};
use crate::protocol::MAX_FRAME;

/// The read half of one connection. Reads must time out in short quanta
/// (returning `WouldBlock` or `TimedOut`) rather than blocking forever,
/// and `Ok(0)` must mean EOF — both are configured by the transport when
/// the connection is created.
pub type LinkReader = Box<dyn Read + Send>;

/// The write half of one connection, shared between the outbox sender
/// pool (writes) and teardown paths (shutdown).
pub trait LinkWriter: Send + Sync {
    /// Writes every buffer in `batch`, in order, completely (advancing
    /// through partial writes). Called by exactly one sender-pool thread
    /// at a time per connection.
    ///
    /// # Errors
    ///
    /// Any I/O failure, including a write stalled past the configured
    /// write timeout; the connection is declared dead either way.
    fn write_batch(&self, batch: &[Bytes]) -> io::Result<()>;
    /// Closes both directions of the connection so the peer (and any
    /// local reader handle on the same stream) observes EOF. Best-effort
    /// and idempotent.
    fn shutdown(&self);
    /// Bounds how long one write may block before failing (`None` removes
    /// the bound). Best-effort: a transport that cannot honor it merely
    /// loses the stalled-writer protection.
    fn set_write_timeout(&self, timeout: Option<Duration>);
}

/// A connected duplex link, split into the broker's two halves.
pub struct Connection {
    /// The read half (owned by a reader thread).
    pub reader: LinkReader,
    /// The write half (registered with the outbox).
    pub writer: Arc<dyn LinkWriter>,
}

/// A bound accept socket.
pub trait Listener: Send {
    /// Accepts one connection: blocks until one is pending (TCP), or
    /// returns `ErrorKind::WouldBlock` when none is (SimNet) — the accept
    /// loop copes with either, re-checking its shutdown flag after every
    /// return.
    ///
    /// # Errors
    ///
    /// `WouldBlock` when nothing is pending; any other error is treated
    /// as transient too. Both are retried after a pause.
    fn accept(&self) -> io::Result<Connection>;
    /// The bound address (with the OS- or net-assigned port resolved).
    ///
    /// # Errors
    ///
    /// Transport-level failures resolving the local address.
    fn local_addr(&self) -> io::Result<SocketAddr>;
}

/// A network: binds listeners and dials peers. Brokers and clients hold
/// one (`Arc`-shared) and never name `TcpStream` directly.
pub trait Transport: Send + Sync + fmt::Debug {
    /// Binds a listener on `addr` (port 0 lets the transport pick).
    ///
    /// # Errors
    ///
    /// Transport-level bind failures (address in use, etc.).
    fn bind(&self, addr: SocketAddr) -> io::Result<Box<dyn Listener>>;
    /// Dials a peer and returns the connected link with all per-connection
    /// options (read-timeout quanta, nodelay) already applied.
    ///
    /// # Errors
    ///
    /// Connection failures (refused, unreachable, link down).
    fn dial(&self, addr: SocketAddr) -> io::Result<Connection>;
}

/// Spawns the accept loop. It makes no timed wake-ups while the listener
/// blocks in `accept`: whoever sets `shutdown` must then dial the listener's
/// address, and the loop — which looks at the flag after every `accept`
/// returns, before anything is registered — drops that connection and
/// exits. A listener that polls instead (`WouldBlock` when idle) is
/// re-asked after a pause and needs no waking.
///
/// Returns the acceptor's join handle: shutdown must join it so the
/// listener is provably unbound (not merely doomed) before `shutdown`
/// returns — a restart that re-binds the same address races the old
/// acceptor's final wakeup otherwise.
pub(crate) fn spawn_acceptor(
    listener: Box<dyn Listener>,
    cmd_tx: Sender<Command>,
    outbox: Arc<Outbox>,
    next_conn: Arc<AtomicU64>,
    shutdown: Arc<AtomicBool>,
) -> io::Result<std::thread::JoinHandle<()>> {
    std::thread::Builder::new()
        .name("acceptor".into())
        .spawn(move || {
            while !shutdown.load(Ordering::Acquire) {
                let accepted = listener.accept();
                if shutdown.load(Ordering::Acquire) {
                    break;
                }
                match accepted {
                    Ok(connection) => {
                        let conn = next_conn.fetch_add(1, Ordering::Relaxed);
                        outbox.register(conn, Sink::Link(connection.writer));
                        spawn_reader(
                            connection.reader,
                            conn,
                            cmd_tx.clone(),
                            Arc::clone(&shutdown),
                        );
                    }
                    // Nothing pending on a polling listener, or a
                    // transient failure: ask again shortly.
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        })
}

/// Spawns a framed reader for one connection: reads `[u32 LE length]`
/// frames and forwards payloads to the engine. EOF or error reports a
/// disconnect.
pub(crate) fn spawn_reader(
    reader: LinkReader,
    conn: ConnId,
    cmd_tx: Sender<Command>,
    shutdown: Arc<AtomicBool>,
) {
    let _ = std::thread::Builder::new()
        .name(format!("reader-{conn}"))
        .spawn(move || {
            // Buffered reads pull bursts of small frames out of the stream
            // in one underlying read; timeouts still surface when the
            // buffer runs dry between frames.
            let mut reader = std::io::BufReader::with_capacity(32 * 1024, reader);
            loop {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
                match read_frame(&mut reader) {
                    Ok(Some(payload)) => {
                        if cmd_tx.send(Command::Frame(conn, payload)).is_err() {
                            return;
                        }
                    }
                    Ok(None) => continue, // timeout between frames
                    Err(_) => {
                        let _ = cmd_tx.send(Command::Disconnected(conn));
                        return;
                    }
                }
            }
        });
}

/// Reads one `[u32 LE length][payload]` frame. `Ok(None)` means the read
/// timed out *between* frames (safe to retry); timeouts mid-frame keep
/// blocking until the frame completes or the peer dies.
///
/// # Errors
///
/// EOF (clean or mid-frame), oversized length prefixes, and transport
/// errors; all of them mean the connection is done.
pub(crate) fn read_frame(stream: &mut impl Read) -> io::Result<Option<Bytes>> {
    let mut header = [0u8; 4];
    match read_exact_or_eof(stream, &mut header, true)? {
        ReadOutcome::TimedOutClean => return Ok(None),
        ReadOutcome::Done => {}
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::other(format!(
            "frame of {len} bytes exceeds limit"
        )));
    }
    let mut payload = vec![0u8; len];
    match read_exact_or_eof(stream, &mut payload, false)? {
        ReadOutcome::Done => Ok(Some(Bytes::from(payload))),
        // `read_exact_or_eof` reports a clean timeout only when allowed
        // (`clean_timeout = true`); mid-frame it retries internally, so
        // this arm is unreachable — fail the stream rather than panic on
        // a hot path if that invariant ever breaks.
        ReadOutcome::TimedOutClean => Err(io::Error::other("mid-frame timeout escaped retry")),
    }
}

enum ReadOutcome {
    Done,
    /// Timed out before the first byte (only when `clean_timeout` allowed).
    TimedOutClean,
}

fn read_exact_or_eof(
    stream: &mut impl Read,
    buf: &mut [u8],
    clean_timeout: bool,
) -> io::Result<ReadOutcome> {
    let mut read = 0;
    while read < buf.len() {
        // analyzer:allow(index): read < buf.len() is the loop condition, so the slice start is in range
        match stream.read(&mut buf[read..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "peer closed the connection",
                ))
            }
            Ok(n) => read += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if read == 0 && clean_timeout {
                    return Ok(ReadOutcome::TimedOutClean);
                }
                // Mid-frame: keep waiting for the rest.
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome::Done)
}
