//! The transport abstraction: the byte-stream surface the broker needs
//! from its network, factored behind traits so the default TCP stack
//! ([`crate::tcp::TcpTransport`]) can be wrapped or replaced — the
//! benchmark, for one, counts and traces every read and write through it.
//! The protocol itself runs without any transport on the simulator
//! (DESIGN.md §12.2).
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
//!   peer really closed (EOF), never a timeout. A timeout may fall
//!   anywhere, inside a frame as well as between two: [`FrameReader`] keeps
//!   the bytes it has and gives control back either way, so a peer that
//!   stalls half-way through a frame holds nobody past a flag or deadline.
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
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::Sender;
use linkcast_types::wire::{limits, Count, Reader};

use crate::broker::Command;
use crate::outbox::{ConnId, Outbox};
use crate::protocol::{FRAME_PREFIX, MAX_FRAME};

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
    /// returns `ErrorKind::WouldBlock` when none is (a polled listener) —
    /// the accept loop copes with either, re-checking its shutdown flag
    /// after every return.
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
                        outbox.register(conn, connection.writer);
                        // The peer speaks first or not at all: no
                        // handshake deadline.
                        let (cmd_tx, shutdown) = (cmd_tx.clone(), Arc::clone(&shutdown));
                        let _ = std::thread::Builder::new()
                            .name(format!("reader-{conn}"))
                            .spawn(move || {
                                read_frames(connection.reader, conn, &cmd_tx, &shutdown, None)
                            });
                    }
                    // Nothing pending on a polling listener, or a
                    // transient failure: ask again shortly.
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        })
}

/// Reads one connection until it ends — the one loop that polls a
/// broker-side [`FrameReader`], run by an accepted connection's reader
/// thread and by a dialled link's supervisor alike. Every read's complete
/// frames go to the engine as one command; EOF or an error reports a
/// disconnect, and so does a peer that has sent no frame by
/// `handshake_deadline` (a silent peer and one stalled part-way through
/// its `Hello` look the same from here; the engine unregisters the conn,
/// closing the socket). Returns at the next poll once `shutdown` is set.
/// The result is whether the peer ever sent a frame.
#[expect(
    clippy::disallowed_methods,
    reason = "shell: the handshake deadline reads the clock"
)]
pub(crate) fn read_frames(
    reader: LinkReader,
    conn: ConnId,
    cmd_tx: &Sender<Command>,
    shutdown: &AtomicBool,
    handshake_deadline: Option<Instant>,
) -> bool {
    let mut frames = FrameReader::new(reader);
    let mut greeted = false;
    while !shutdown.load(Ordering::Acquire) {
        match frames.poll() {
            Ok(Polled::Frames(batch)) => {
                greeted = true;
                if cmd_tx.send(Command::Frames(conn, batch)).is_err() {
                    break;
                }
            }
            Ok(Polled::Idle) => {
                if !greeted && handshake_deadline.is_some_and(|at| Instant::now() >= at) {
                    let _ = cmd_tx.send(Command::Disconnected(conn));
                    break;
                }
            }
            Ok(Polled::Closed) | Err(_) => {
                let _ = cmd_tx.send(Command::Disconnected(conn));
                break;
            }
        }
    }
    greeted
}

/// Complete `[u32 LE length][payload]` frames laid end to end in one shared
/// buffer: what one read of a connection produced. Iterating yields each
/// frame *with* its length prefix, as a slice of that buffer — so a frame
/// that is passed on unchanged (a control-plane flood) is sent as the bytes
/// that arrived, and nothing is copied per frame.
#[derive(Debug, Clone, Default)]
pub struct FrameBatch {
    /// Whole frames only, every length at most [`MAX_FRAME`].
    frames: Bytes,
}

impl FrameBatch {
    /// A batch of the one `frame` (length prefix included), as an encoder
    /// returns it.
    pub(crate) fn single(frame: Bytes) -> Self {
        debug_assert!(matches!(frame_len(&frame), Ok(Some(n)) if n.get() == frame.len()));
        FrameBatch { frames: frame }
    }
}

impl Iterator for FrameBatch {
    type Item = Bytes;

    fn next(&mut self) -> Option<Bytes> {
        match frame_len(&self.frames) {
            Ok(Some(len)) if len.get() <= self.frames.len() => {
                Some(self.frames.split_to(len.get()))
            }
            _ => None,
        }
    }
}

/// Length of the frame `bytes` starts with, its prefix included, as soon as
/// the prefix is all there (`None` until then). The frame itself may still
/// be incomplete: compare against `bytes.len()`.
///
/// # Errors
///
/// A length prefix above [`MAX_FRAME`]: the stream is corrupt or hostile,
/// and nothing may be sized by it.
fn frame_len(bytes: &[u8]) -> io::Result<Option<Count>> {
    let Ok(payload) = Reader::new(bytes).u32() else {
        return Ok(None);
    };
    let payload = payload as usize;
    limits::checked_count(
        FRAME_PREFIX + payload,
        FRAME_PREFIX + MAX_FRAME,
        1,
        "a frame",
    )
    .map(Some)
    .map_err(|_| io::Error::other(format!("frame of {payload} bytes exceeds limit")))
}

/// What one [`FrameReader::poll`] came back with.
#[derive(Debug)]
pub enum Polled {
    /// At least one frame completed.
    Frames(FrameBatch),
    /// The read timed out, or what arrived completes no frame yet. Partial
    /// bytes are kept; the caller looks at its flags and deadlines and
    /// polls again.
    Idle,
    /// The peer closed the stream on a frame boundary.
    Closed,
}

/// Size a connection's read buffer starts at. It doubles while reads fill
/// it, so a quiet connection stays at one page and a busy one batches up
/// to [`READ_BUF_MAX`] per read.
const READ_BUF_MIN: usize = 4 * 1024;
/// Size past which the read buffer grows only for the one frame that needs
/// it, and to which it shrinks back afterwards.
const READ_BUF_MAX: usize = 64 * 1024;

/// Cuts a connection's byte stream into frames, a read at a time: each
/// [`poll`](Self::poll) makes one `read` into a reusable buffer and hands
/// back every frame that is complete by then as one [`FrameBatch`] (one
/// buffer per read, however many frames it holds). Bytes of a frame still
/// in flight stay in the buffer for the next poll.
pub struct FrameReader {
    reader: LinkReader,
    /// `buf[..filled]` is what has been read and not handed on; it starts
    /// on a frame boundary, and `buf` always has room past it.
    buf: Vec<u8>,
    filled: usize,
}

impl FrameReader {
    /// Wraps the read half of a connection.
    pub fn new(reader: LinkReader) -> Self {
        FrameReader {
            reader,
            buf: vec![0; READ_BUF_MIN],
            filled: 0,
        }
    }

    /// Current size of the read buffer.
    pub fn buffer_len(&self) -> usize {
        self.buf.len()
    }

    /// Reads once and returns the frames completed by it.
    ///
    /// # Errors
    ///
    /// EOF inside a frame, a length prefix above [`MAX_FRAME`], and
    /// transport errors; all of them mean the connection is done.
    pub fn poll(&mut self) -> io::Result<Polled> {
        // An oversized prefix the last poll found behind whole frames: those
        // went out first, now it heads the buffer.
        frame_len(self.buf.get(..self.filled).unwrap_or_default())?;
        let room = self.buf.get_mut(self.filled..).unwrap_or_default();
        let was_full = match self.reader.read(room) {
            Ok(0) if self.filled == 0 => return Ok(Polled::Closed),
            Ok(0) => {
                return Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "peer closed the connection inside a frame",
                ))
            }
            Ok(n) => {
                self.filled += n;
                self.filled >= self.buf.len()
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                return Ok(Polled::Idle)
            }
            Err(e) => return Err(e),
        };

        // `end`: where the last complete frame stops. `pending`: length of
        // the incomplete one behind it, once its prefix says.
        let (mut end, mut pending) = (0, 0);
        loop {
            let rest = self.buf.get(end..self.filled).unwrap_or_default();
            match frame_len(rest) {
                Ok(Some(len)) if len.get() <= rest.len() => end += len.get(),
                Ok(Some(len)) => {
                    pending = len.get();
                    break;
                }
                Ok(None) => break,
                Err(e) if end == 0 => return Err(e),
                Err(_) => break,
            }
        }
        let batch = self
            .buf
            .get(..end)
            .filter(|b| !b.is_empty())
            .map(|b| FrameBatch {
                frames: Bytes::copy_from_slice(b),
            });
        if end > 0 {
            self.buf.copy_within(end..self.filled, 0);
            self.filled -= end;
        }

        // A frame longer than the buffer grows it by doubling as its bytes
        // arrive, never ahead of them: a length prefix alone sizes nothing
        // past twice what the peer has sent.
        let len = self.buf.len();
        let target = if pending > len {
            if was_full {
                pending.min(len * 2)
            } else {
                len
            }
        } else if len > READ_BUF_MAX {
            pending.max(READ_BUF_MAX)
        } else if was_full {
            (len * 2).min(READ_BUF_MAX)
        } else {
            len
        };
        if target != len {
            self.buf.resize(target, 0);
            if target < len {
                self.buf.shrink_to_fit();
            }
        }
        Ok(batch.map_or(Polled::Idle, Polled::Frames))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::{unbounded, RecvTimeoutError};

    /// A peer that sent half a length prefix and went quiet.
    struct Stalled {
        sent: bool,
    }

    impl Read for Stalled {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.sent {
                std::thread::sleep(Duration::from_millis(1));
                return Err(ErrorKind::WouldBlock.into());
            }
            self.sent = true;
            out[..2].copy_from_slice(&[9, 0]);
            Ok(2)
        }
    }

    #[test]
    fn reader_holding_half_a_frame_still_sees_the_shutdown_flag() {
        let (cmd_tx, cmd_rx) = unbounded::<Command>();
        let shutdown = Arc::new(AtomicBool::new(false));
        let reader_shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            read_frames(
                Box::new(Stalled { sent: false }),
                1,
                &cmd_tx,
                &reader_shutdown,
                None,
            )
        });
        // Half a frame is no frame, and no reason to hang up either.
        assert!(matches!(
            cmd_rx.recv_timeout(Duration::from_millis(50)),
            Err(RecvTimeoutError::Timeout)
        ));
        shutdown.store(true, Ordering::Release);
        // The thread owns the only sender: the channel disconnects when —
        // and only when — the thread has returned.
        assert!(matches!(
            cmd_rx.recv_timeout(Duration::from_secs(5)),
            Err(RecvTimeoutError::Disconnected)
        ));
    }
}
