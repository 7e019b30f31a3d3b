//! The transport's send side: one outgoing queue per connection, drained by
//! a pool of sending threads (paper §4.2: "a broker thread sends a message
//! by en-queueing it in the appropriate queue. A pool of sending threads is
//! responsible for monitoring these queues for outgoing messages").
//!
//! Multicast fan-out goes through [`Outbox::send_many`], which enqueues the
//! same `Bytes` handle on every target queue — a reference-count bump per
//! link, never a copy. Pool threads drain queues in bounded batches with
//! vectored writes, so one saturated connection cannot monopolize a sender
//! thread, and aggregate queue depth is observable for backpressure.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};

use crate::broker::Command;
use crate::transport::LinkWriter;

/// Identifies one connection within a broker node.
pub(crate) type ConnId = u64;

/// Maximum frames drained from one connection per pool-thread turn.
/// Bounds the time one busy connection can hold a sender thread; a queue
/// with more work is handed back to the pool so other connections
/// interleave.
const DRAIN_BATCH: usize = 64;

/// Where a connection's frames go.
pub(crate) enum Sink {
    /// A transport peer (client or neighbor broker) — the write half of a
    /// [`crate::transport::Connection`].
    Link(Arc<dyn LinkWriter>),
    /// An in-process peer (used by tests and the throughput benchmark to
    /// bypass the kernel).
    Chan(Sender<Bytes>),
}

pub(crate) struct Conn {
    id: ConnId,
    sink: Sink,
    queue: Mutex<VecDeque<Bytes>>,
    /// Whether a drain task is scheduled or running for this connection;
    /// guarantees a single writer per sink.
    draining: AtomicBool,
    dead: AtomicBool,
    /// Set by [`Outbox::close_after_flush`]: the drain loop shuts the sink
    /// down once the queue empties instead of parking the connection.
    closing: AtomicBool,
    /// Bytes currently queued on this connection — the per-connection half
    /// of the depth counters, read by the overflow check on every enqueue.
    queued_bytes: AtomicU64,
    /// Whether [`Command::QueueOverflow`] has already been sent for this
    /// connection (the engine is told exactly once; its policy decides what
    /// follows).
    overflowed: AtomicBool,
}

impl Conn {
    /// Closes the underlying link so both the peer and the local reader
    /// thread (which holds a handle on the same stream, so merely dropping
    /// our write half would never send a FIN) observe the disconnect. A
    /// no-op for channel sinks — dropping the `Conn` drops the sender and
    /// the receiver sees the hangup.
    fn shutdown_sink(&self) {
        if let Sink::Link(writer) = &self.sink {
            writer.shutdown();
        }
    }
}

/// The send half of the transport: registry of connections plus the sender
/// pool.
pub(crate) struct Outbox {
    conns: RwLock<HashMap<ConnId, Arc<Conn>>>,
    /// `None` after [`Outbox::close`]: the pool threads drain out and exit.
    work_tx: Mutex<Option<Sender<Arc<Conn>>>>,
    /// The engine's mailbox: a write failure is reported on it as
    /// [`Command::Disconnected`], a queue crossing `queue_bound` as
    /// [`Command::QueueOverflow`] (once per connection; the engine owns the
    /// peer table, so only it can pick eviction or disconnect).
    cmd_tx: Sender<Command>,
    /// Frames currently enqueued across all connections.
    queued_frames: AtomicU64,
    /// Bytes currently enqueued across all connections.
    queued_bytes: AtomicU64,
    /// Per-connection cap on queued bytes. Frames enqueued past the cap are
    /// dropped (broker peers replay from their spool, clients from their
    /// log) so one stalled consumer bounds the broker's memory instead of
    /// exhausting it.
    queue_bound: u64,
    /// SO_SNDTIMEO applied to TCP sinks at registration: a peer that stops
    /// reading while the kernel buffer is full fails the write instead of
    /// wedging a sender-pool thread forever.
    write_stall_timeout: Option<Duration>,
}

impl Outbox {
    /// Creates the outbox and spawns `senders` pool threads, each draining
    /// up to [`DRAIN_BATCH`] frames per connection turn. Dead connections
    /// and connections crossing `queue_bound` queued bytes are
    /// announced (once each) on `cmd_tx`.
    pub(crate) fn new(
        senders: usize,
        queue_bound: u64,
        write_stall_timeout: Option<Duration>,
        cmd_tx: Sender<Command>,
    ) -> io::Result<Arc<Outbox>> {
        let (work_tx, work_rx) = unbounded::<Arc<Conn>>();
        let outbox = Arc::new(Outbox {
            conns: RwLock::new(HashMap::new()),
            work_tx: Mutex::new(Some(work_tx)),
            cmd_tx,
            queued_frames: AtomicU64::new(0),
            queued_bytes: AtomicU64::new(0),
            queue_bound: queue_bound.max(1),
            write_stall_timeout,
        });
        for i in 0..senders {
            let rx: Receiver<Arc<Conn>> = work_rx.clone();
            let ob = Arc::clone(&outbox);
            let spawned = std::thread::Builder::new()
                .name(format!("sender-{i}"))
                .spawn(move || {
                    for conn in rx.iter() {
                        ob.drain_conn(&conn);
                    }
                });
            if let Err(e) = spawned {
                // Threads 0..i hold `Arc<Outbox>` (and thus the work
                // sender); drop it so their `rx.iter()` terminates instead
                // of leaking blocked threads.
                outbox.work_tx.lock().take();
                return Err(e);
            }
        }
        Ok(outbox)
    }

    /// Registers a connection.
    pub(crate) fn register(&self, id: ConnId, sink: Sink) {
        if let Sink::Link(writer) = &sink {
            writer.set_write_timeout(self.write_stall_timeout);
        }
        let conn = Arc::new(Conn {
            id,
            sink,
            queue: Mutex::new(VecDeque::new()),
            draining: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            closing: AtomicBool::new(false),
            queued_bytes: AtomicU64::new(0),
            overflowed: AtomicBool::new(false),
        });
        self.conns.write().insert(id, conn);
    }

    /// Removes a connection immediately: queued frames are dropped and the
    /// socket is shut down so the peer sees the disconnect right away.
    pub(crate) fn unregister(&self, id: ConnId) {
        let removed = self.conns.write().remove(&id);
        if let Some(conn) = removed {
            conn.dead.store(true, Ordering::Release);
            self.discard_queue(&conn);
            conn.shutdown_sink();
        }
    }

    /// Removes a connection once its queued frames have flushed: the entry
    /// leaves the map immediately (no new frames can be enqueued), the
    /// sender pool writes out whatever is already queued, and only then is
    /// the socket shut down — so a final notification (e.g. a protocol
    /// [`Error`](crate::protocol::BrokerToClient::Error) frame) reaches
    /// the peer before the FIN.
    pub(crate) fn close_after_flush(&self, id: ConnId) {
        let removed = self.conns.write().remove(&id);
        if let Some(conn) = removed {
            // Set under the queue lock so the drain loop's locked re-check
            // cannot miss it — the same lost-wakeup protocol that keeps a
            // concurrently-enqueued frame from being stranded (modelled in
            // `tests/loom_model.rs`).
            {
                let _queue = conn.queue.lock();
                conn.closing.store(true, Ordering::Release);
            }
            // If a drain is mid-flight it observes `closing` when the
            // queue empties; otherwise this schedules the final drain.
            self.schedule(conn);
        }
    }

    /// Evicts a connection that overran its queue bound: the backlog is
    /// discarded (a slow consumer's own socket is what backed it up — it
    /// cannot be flushed), the optional `notice` frame is written out, and
    /// the socket is shut down. The write-stall timeout bounds how long the
    /// notice write can occupy a pool thread against a full kernel buffer.
    pub(crate) fn evict(&self, id: ConnId, notice: Option<Bytes>) {
        let removed = self.conns.write().remove(&id);
        let Some(conn) = removed else {
            return;
        };
        self.discard_queue(&conn);
        match notice {
            Some(frame) => {
                {
                    let mut q = conn.queue.lock();
                    self.queued_frames.fetch_add(1, Ordering::Relaxed);
                    self.queued_bytes
                        .fetch_add(frame.len() as u64, Ordering::Relaxed);
                    conn.queued_bytes
                        .fetch_add(frame.len() as u64, Ordering::Relaxed);
                    q.push_back(frame);
                    // Same lost-wakeup protocol as `close_after_flush`: set
                    // under the queue lock so a mid-flight drain cannot
                    // park without observing it.
                    conn.closing.store(true, Ordering::Release);
                }
                self.schedule(conn);
            }
            None => {
                conn.dead.store(true, Ordering::Release);
                conn.shutdown_sink();
            }
        }
    }

    /// Graceful-shutdown drain: switches every connection to
    /// close-after-flush (each FINs as its queue empties) and blocks until
    /// all of them have finished or `deadline` passes, after which the
    /// stragglers are cut off. Always closes the work channel so the
    /// sender pool exits. Returns whether every queue flushed in time.
    pub(crate) fn drain_all(&self, deadline: Duration) -> bool {
        let conns: Vec<Arc<Conn>> = self.conns.read().values().cloned().collect();
        for conn in &conns {
            self.close_after_flush(conn.id);
        }
        let start = std::time::Instant::now();
        let mut clean = true;
        for conn in &conns {
            // `dead` is the drain loop's completion mark: set only after
            // the queue emptied (or the write failed) and the FIN went out.
            while !conn.dead.load(Ordering::Acquire) {
                if start.elapsed() >= deadline {
                    clean = false;
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        self.close();
        clean
    }

    /// Enqueues a frame for asynchronous sending. Unknown or dead
    /// connections drop the frame silently (the engine hears about the
    /// death separately).
    pub(crate) fn send(&self, id: ConnId, frame: Bytes) {
        let conn = {
            let conns = self.conns.read();
            match conns.get(&id) {
                Some(c) => Arc::clone(c),
                None => return,
            }
        };
        self.enqueue(conn, frame);
    }

    /// Enqueues one frame on many connections, sharing the underlying
    /// buffer: fan-out to N links costs N reference-count bumps, not N
    /// copies (the transport half of the encode-once invariant) — and no
    /// allocation: the connections are looked up and enqueued on under the
    /// one read lock (`conns` precedes `queue` and `work_tx`).
    pub(crate) fn send_many(&self, ids: impl IntoIterator<Item = ConnId>, frame: &Bytes) {
        let conns = self.conns.read();
        for conn in ids.into_iter().filter_map(|id| conns.get(&id)) {
            self.enqueue(Arc::clone(conn), frame.clone());
        }
    }

    /// Current aggregate queue depth as `(frames, bytes)`, for stats and
    /// backpressure decisions.
    pub(crate) fn queue_depth(&self) -> (u64, u64) {
        (
            self.queued_frames.load(Ordering::Relaxed),
            self.queued_bytes.load(Ordering::Relaxed),
        )
    }

    /// Number of live registered connections — a gauge for
    /// [`crate::BrokerStats`], and the evidence that per-flap conn state
    /// does not leak (each `Disconnected` must unregister its conn).
    pub(crate) fn connections(&self) -> usize {
        self.conns.read().len()
    }

    /// Number of live registered connections (test alias).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.connections()
    }

    fn enqueue(&self, conn: Arc<Conn>, frame: Bytes) {
        if conn.dead.load(Ordering::Acquire) {
            return;
        }
        let len = frame.len() as u64;
        let queued = conn.queued_bytes.fetch_add(len, Ordering::Relaxed) + len;
        if queued > self.queue_bound {
            // Past the cap: drop the frame (reliability lives upstream —
            // broker links replay from their spool, clients from their
            // log) and tell the engine once so it can apply its policy.
            conn.queued_bytes.fetch_sub(len, Ordering::Relaxed);
            if !conn.overflowed.swap(true, Ordering::AcqRel) {
                // analyzer:allow(hold-across-blocking): unbounded channel, the send never blocks
                let _ = self.cmd_tx.send(Command::QueueOverflow(conn.id));
            }
            return;
        }
        self.queued_frames.fetch_add(1, Ordering::Relaxed);
        self.queued_bytes.fetch_add(len, Ordering::Relaxed);
        conn.queue.lock().push_back(frame);
        self.schedule(conn);
    }

    fn schedule(&self, conn: Arc<Conn>) {
        if !conn.draining.swap(true, Ordering::AcqRel) {
            if let Some(tx) = self.work_tx.lock().as_ref() {
                // analyzer:allow(hold-across-blocking): unbounded channel, the send never blocks
                let _ = tx.send(conn);
            }
        }
    }

    /// Subtracts a connection's remaining queue from the depth counters and
    /// drops the frames.
    fn discard_queue(&self, conn: &Conn) {
        let mut q = conn.queue.lock();
        let bytes: usize = q.iter().map(Bytes::len).sum();
        self.queued_frames
            .fetch_sub(q.len() as u64, Ordering::Relaxed);
        self.queued_bytes.fetch_sub(bytes as u64, Ordering::Relaxed);
        conn.queued_bytes.fetch_sub(bytes as u64, Ordering::Relaxed);
        q.clear();
    }

    /// Shuts the transport down: drops every connection (closing the
    /// broker's half of each socket so peers see EOF) and closes the work
    /// channel so the sender pool exits.
    pub(crate) fn close(&self) {
        let drained: Vec<_> = self.conns.write().drain().collect();
        for (_, conn) in drained {
            conn.dead.store(true, Ordering::Release);
            self.discard_queue(&conn);
            conn.shutdown_sink();
        }
        self.work_tx.lock().take();
    }

    /// Drains one connection's queue to its sink in bounded batches (runs
    /// on a pool thread; the `draining` flag guarantees exclusive sink
    /// access).
    fn drain_conn(&self, conn: &Arc<Conn>) {
        loop {
            // `closing` is read under the same lock that guards the queue:
            // `close_after_flush` sets it under that lock, so a drain that
            // sees the queue empty either sees `closing` too or is ordered
            // before it — in which case the re-check below (or the drain
            // scheduled by `close_after_flush`) picks it up.
            let (batch, closing): (Vec<Bytes>, bool) = {
                let mut q = conn.queue.lock();
                let n = q.len().min(DRAIN_BATCH);
                (q.drain(..n).collect(), conn.closing.load(Ordering::Acquire))
            };
            if batch.is_empty() {
                if closing {
                    // Flush complete for a connection being closed
                    // gracefully: now send the FIN. A sender that cloned
                    // the conn before it left the map may still enqueue a
                    // late frame; discard it so the depth counters stay
                    // balanced (same as `unregister`).
                    conn.dead.store(true, Ordering::Release);
                    self.discard_queue(conn);
                    conn.shutdown_sink();
                    return;
                }
                conn.draining.store(false, Ordering::Release);
                // Re-check: a frame may have been enqueued (or the
                // connection marked closing) between the drain and the
                // flag store.
                let retry = {
                    let q = conn.queue.lock();
                    !q.is_empty() || conn.closing.load(Ordering::Acquire)
                };
                if retry && !conn.draining.swap(true, Ordering::AcqRel) {
                    continue;
                }
                return;
            }
            let bytes: usize = batch.iter().map(Bytes::len).sum();
            self.queued_frames
                .fetch_sub(batch.len() as u64, Ordering::Relaxed);
            self.queued_bytes.fetch_sub(bytes as u64, Ordering::Relaxed);
            conn.queued_bytes.fetch_sub(bytes as u64, Ordering::Relaxed);
            if conn.dead.load(Ordering::Acquire) {
                return;
            }
            let result = match &conn.sink {
                Sink::Link(writer) => writer.write_batch(&batch),
                Sink::Chan(tx) => batch.into_iter().try_for_each(|frame| {
                    tx.send(frame)
                        .map_err(|_| io::Error::other("in-process peer hung up"))
                }),
            };
            if result.is_err() {
                conn.dead.store(true, Ordering::Release);
                // Close the socket now rather than when the engine
                // processes the death: the local reader thread shares the
                // fd and unblocks immediately.
                conn.shutdown_sink();
                let _ = self.cmd_tx.send(Command::Disconnected(conn.id));
                return;
            }
            // Fairness: if the queue refilled past this batch, hand the
            // connection back to the pool instead of looping, so other
            // connections' queues get a turn on this thread.
            if !conn.queue.lock().is_empty() {
                if let Some(tx) = self.work_tx.lock().as_ref() {
                    // analyzer:allow(hold-across-blocking): unbounded channel, the send never blocks
                    let _ = tx.send(Arc::clone(conn));
                    return;
                }
                // Work channel already closed (shutdown): finish inline.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// An outbox with no overflow cap and no write timeout — the shape
    /// most tests want.
    fn test_outbox(senders: usize, cmd_tx: Sender<Command>) -> Arc<Outbox> {
        Outbox::new(senders, u64::MAX, None, cmd_tx).unwrap()
    }

    #[test]
    fn frames_arrive_in_order_per_connection() {
        let (cmd_tx, _cmd_rx) = unbounded();
        let outbox = test_outbox(4, cmd_tx);
        let (tx, rx) = unbounded::<Bytes>();
        outbox.register(1, Sink::Chan(tx));
        for i in 0..100u8 {
            outbox.send(1, Bytes::from(vec![i]));
        }
        let mut got = Vec::new();
        for _ in 0..100 {
            got.push(rx.recv_timeout(Duration::from_secs(2)).unwrap()[0]);
        }
        assert_eq!(got, (0..100).collect::<Vec<u8>>());
        assert_eq!(outbox.len(), 1);
    }

    #[test]
    fn many_connections_share_the_pool() {
        let (cmd_tx, _cmd_rx) = unbounded();
        let outbox = test_outbox(2, cmd_tx);
        let mut receivers = Vec::new();
        for id in 0..20u64 {
            let (tx, rx) = unbounded::<Bytes>();
            outbox.register(id, Sink::Chan(tx));
            receivers.push(rx);
        }
        for round in 0..10u8 {
            for id in 0..20u64 {
                outbox.send(id, Bytes::from(vec![round]));
            }
        }
        for rx in &receivers {
            for round in 0..10u8 {
                assert_eq!(rx.recv_timeout(Duration::from_secs(2)).unwrap()[0], round);
            }
        }
    }

    #[test]
    fn send_many_shares_one_buffer_across_links() {
        let (cmd_tx, _cmd_rx) = unbounded();
        let outbox = test_outbox(2, cmd_tx);
        let mut receivers = Vec::new();
        for id in 0..8u64 {
            let (tx, rx) = unbounded::<Bytes>();
            outbox.register(id, Sink::Chan(tx));
            receivers.push(rx);
        }
        let frame = Bytes::from(vec![7u8; 512]);
        outbox.send_many(0..8, &frame);
        for rx in &receivers {
            let got = rx.recv_timeout(Duration::from_secs(2)).unwrap();
            // Same backing allocation, not a copy.
            assert_eq!(got.as_ptr(), frame.as_ptr());
        }
    }

    /// Flooding a received frame onward — to every neighbor but the one it
    /// came from — allocates nothing on the flooding thread: no list of
    /// targets, no list of connections, and the frame itself is shared. (It
    /// was two vectors per flooded frame.) The first flood grows the queues
    /// to what this traffic needs; the second is the steady state.
    #[cfg(not(miri))]
    #[test]
    fn a_flood_to_two_neighbors_allocates_nothing() {
        let (cmd_tx, _cmd_rx) = unbounded();
        let outbox = test_outbox(1, cmd_tx);
        let mut neighbors = HashMap::new();
        let mut receivers = Vec::new();
        for (broker, conn) in [(10u32, 1 as ConnId), (11, 2), (12, 3)] {
            let (tx, rx) = unbounded::<Bytes>();
            outbox.register(conn, Sink::Chan(tx));
            neighbors.insert(broker, conn);
            receivers.push((conn, rx));
        }
        let flood = |frame: &Bytes, except: ConnId| {
            let targets = neighbors.values().copied().filter(|conn| *conn != except);
            outbox.send_many(targets, frame);
        };
        let received = Bytes::from(vec![7u8; 96]);
        flood(&received, 1);
        let (allocations, ()) = linkcast_alloc_count::allocations_in(|| flood(&received, 1));
        assert_eq!(allocations, 0);
        for (conn, rx) in &receivers {
            for _ in 0..2 {
                match rx.recv_timeout(Duration::from_millis(if *conn == 1 { 50 } else { 2000 })) {
                    Ok(got) => assert!(*conn != 1 && got.as_ptr() == received.as_ptr()),
                    Err(_) => assert_eq!(*conn, 1, "a neighbor went without"),
                }
            }
        }
    }

    #[test]
    fn queue_depth_returns_to_zero_after_drain() {
        let (cmd_tx, _cmd_rx) = unbounded();
        let outbox = test_outbox(1, cmd_tx);
        let (tx, rx) = unbounded::<Bytes>();
        outbox.register(1, Sink::Chan(tx));
        // 3 * DRAIN_BATCH frames exercises the bounded-batch path.
        let total = 3 * DRAIN_BATCH;
        for _ in 0..total {
            outbox.send(1, Bytes::from(vec![0u8; 16]));
        }
        for _ in 0..total {
            rx.recv_timeout(Duration::from_secs(2)).unwrap();
        }
        // Drain loop may still be between counter update and flag store;
        // poll briefly.
        for _ in 0..100 {
            if outbox.queue_depth() == (0, 0) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(outbox.queue_depth(), (0, 0));
    }

    #[test]
    fn dead_peers_are_reported_once_and_dropped() {
        let (cmd_tx, cmd_rx) = unbounded();
        let outbox = test_outbox(1, cmd_tx);
        let (tx, rx) = unbounded::<Bytes>();
        outbox.register(7, Sink::Chan(tx));
        drop(rx); // peer hangs up
        outbox.send(7, Bytes::from_static(b"x"));
        assert!(matches!(
            cmd_rx.recv_timeout(Duration::from_secs(2)),
            Ok(Command::Disconnected(7))
        ));
        // Further sends are silently dropped.
        outbox.send(7, Bytes::from_static(b"y"));
        assert!(cmd_rx.recv_timeout(Duration::from_millis(100)).is_err());
    }

    #[test]
    fn unregister_shuts_down_the_tcp_socket() {
        use std::io::Read;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut buf = [0u8; 1];
            s.read(&mut buf)
        });
        let (stream, _) = listener.accept().unwrap();
        // A second handle on the same fd, standing in for the broker's
        // reader thread: dropping the outbox's write half alone would
        // close neither.
        let mut reader_half = stream.try_clone().unwrap();
        reader_half
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let (cmd_tx, _cmd_rx) = unbounded();
        let outbox = test_outbox(1, cmd_tx);
        outbox.register(1, Sink::Link(Arc::new(crate::tcp::TcpWriter(stream))));
        outbox.unregister(1);
        // The remote peer sees the FIN...
        assert_eq!(peer.join().unwrap().unwrap(), 0, "peer must observe EOF");
        // ...and the local reader clone unblocks with EOF too.
        let mut buf = [0u8; 1];
        assert_eq!(reader_half.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn close_after_flush_delivers_queued_frames_then_hangs_up() {
        let (cmd_tx, _cmd_rx) = unbounded();
        let outbox = test_outbox(1, cmd_tx);
        let (tx, rx) = unbounded::<Bytes>();
        outbox.register(1, Sink::Chan(tx));
        let total = 2 * DRAIN_BATCH;
        for i in 0..total {
            outbox.send(1, Bytes::from(vec![i as u8]));
        }
        outbox.close_after_flush(1);
        // Unlike unregister, everything queued still goes out...
        for i in 0..total {
            assert_eq!(rx.recv_timeout(Duration::from_secs(2)).unwrap()[0], i as u8);
        }
        // ...and only then does the peer see the hangup.
        match rx.recv_timeout(Duration::from_secs(2)) {
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {}
            other => panic!("expected hangup after the flush, got {other:?}"),
        }
        assert_eq!(outbox.len(), 0);
        // Late sends to the closed connection are dropped silently.
        outbox.send(1, Bytes::from_static(b"late"));
        assert_eq!(outbox.queue_depth(), (0, 0));
    }

    #[test]
    fn overflow_is_reported_once_and_excess_frames_drop() {
        let (cmd_tx, cmd_rx) = unbounded();
        // 1 KiB cap; the sink is a rendezvous-ish bounded channel so the
        // drain thread wedges on the first frame and the queue backs up —
        // the same shape as a TCP peer that stopped reading.
        let outbox = Outbox::new(1, 1024, None, cmd_tx).unwrap();
        let (tx, rx) = crossbeam::channel::bounded::<Bytes>(1);
        outbox.register(1, Sink::Chan(tx));
        for _ in 0..16 {
            outbox.send(1, Bytes::from(vec![0u8; 256]));
        }
        assert!(
            matches!(
                cmd_rx.recv_timeout(Duration::from_secs(2)),
                Ok(Command::QueueOverflow(1))
            ),
            "crossing the cap must be reported"
        );
        // Reported exactly once, no matter how much more is offered.
        outbox.send(1, Bytes::from(vec![0u8; 4096]));
        assert!(cmd_rx.recv_timeout(Duration::from_millis(100)).is_err());
        // The queue never grew past the cap: everything offered beyond it
        // was dropped, not buffered.
        let (_, queued) = outbox.queue_depth();
        assert!(queued <= 1024, "queued {queued} bytes exceeds the cap");
        // Eviction sheds the backlog and the depth counters balance.
        outbox.evict(1, None);
        assert_eq!(outbox.queue_depth(), (0, 0));
        assert_eq!(outbox.len(), 0);
        drop(rx); // unwedge the pool thread
    }

    #[test]
    fn evict_discards_backlog_but_flushes_the_notice() {
        let (cmd_tx, _cmd_rx) = unbounded();
        let outbox = test_outbox(1, cmd_tx);
        // A one-slot sink holding the drain thread on frame 0 keeps the
        // rest of the backlog in the queue, so the eviction has something
        // to discard.
        let (tx, rx) = crossbeam::channel::bounded::<Bytes>(1);
        outbox.register(1, Sink::Chan(tx));
        // Far more than one drain batch: at most DRAIN_BATCH frames can be
        // in flight (popped into a pool thread's local batch); the rest
        // must still be in the queue when the eviction lands.
        let total = 3 * DRAIN_BATCH;
        for i in 0..total {
            outbox.send(1, Bytes::from(vec![i as u8]));
        }
        // Wait for the drain thread to park on the full channel.
        for _ in 0..200 {
            if rx.len() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        outbox.evict(1, Some(Bytes::from_static(b"notice")));
        // Everything still queued was discarded; the notice is the last
        // thing the peer sees before the hangup. (Frames already popped
        // into the in-flight drain batch may precede it.)
        let mut seen = Vec::new();
        loop {
            match rx.recv_timeout(Duration::from_secs(2)) {
                Ok(frame) => seen.push(frame),
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
                Err(e) => panic!("expected hangup after the notice, got {e:?}"),
            }
        }
        assert_eq!(seen.last().map(|b| &b[..]), Some(&b"notice"[..]));
        assert!(
            seen.len() <= DRAIN_BATCH + 1,
            "only the in-flight batch and the notice may survive an \
             eviction, got {} frames",
            seen.len()
        );
        assert_eq!(outbox.queue_depth(), (0, 0));
        assert_eq!(outbox.len(), 0);
    }

    #[test]
    fn drain_all_flushes_queues_then_hangs_up() {
        let (cmd_tx, _cmd_rx) = unbounded();
        let outbox = test_outbox(2, cmd_tx);
        let mut receivers = Vec::new();
        for id in 0..4u64 {
            let (tx, rx) = unbounded::<Bytes>();
            outbox.register(id, Sink::Chan(tx));
            receivers.push(rx);
        }
        let total = 2 * DRAIN_BATCH;
        for id in 0..4u64 {
            for i in 0..total {
                outbox.send(id, Bytes::from(vec![i as u8]));
            }
        }
        assert!(
            outbox.drain_all(Duration::from_secs(5)),
            "drain must finish"
        );
        for rx in &receivers {
            for i in 0..total {
                assert_eq!(
                    rx.recv_timeout(Duration::from_secs(2)).unwrap()[0],
                    i as u8,
                    "every queued frame flushes before the FIN"
                );
            }
            match rx.recv_timeout(Duration::from_secs(2)) {
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {}
                other => panic!("expected hangup after the drain, got {other:?}"),
            }
        }
        assert_eq!(outbox.queue_depth(), (0, 0));
        assert_eq!(outbox.len(), 0);
    }

    #[test]
    fn drain_all_gives_up_on_wedged_peers_at_the_deadline() {
        let (cmd_tx, _cmd_rx) = unbounded();
        let outbox = test_outbox(1, cmd_tx);
        // A one-slot channel nobody drains: the first frame fills the
        // slot, the second wedges the pool thread, so the flush can never
        // complete.
        let (tx, rx) = crossbeam::channel::bounded::<Bytes>(1);
        outbox.register(1, Sink::Chan(tx));
        outbox.send(1, Bytes::from_static(b"fills"));
        outbox.send(1, Bytes::from_static(b"stuck"));
        let start = std::time::Instant::now();
        assert!(
            !outbox.drain_all(Duration::from_millis(200)),
            "a wedged peer must not drain cleanly"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "the deadline bounds the drain"
        );
        drop(rx); // unwedge the pool thread
    }

    #[test]
    fn write_stall_timeout_fails_the_writer_instead_of_wedging_it() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::net::TcpStream::connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let (cmd_tx, cmd_rx) = unbounded();
        let outbox = Outbox::new(1, u64::MAX, Some(Duration::from_millis(300)), cmd_tx).unwrap();
        outbox.register(1, Sink::Link(Arc::new(crate::tcp::TcpWriter(stream))));
        // `client` never reads: the kernel buffers fill and the blocking
        // write must fail at the stall timeout instead of parking the pool
        // thread forever.
        let chunk = vec![0u8; 64 * 1024];
        let start = std::time::Instant::now();
        loop {
            outbox.send(1, Bytes::from(chunk.clone()));
            match cmd_rx.recv_timeout(Duration::from_millis(10)) {
                Ok(Command::Disconnected(1)) => break,
                Ok(_) => panic!("a stalled writer is reported as a disconnect of conn 1"),
                Err(_) if start.elapsed() < Duration::from_secs(30) => continue,
                Err(e) => panic!("writer never failed over a stalled peer: {e:?}"),
            }
        }
        drop(client);
    }

    #[test]
    fn unregistered_connections_drop_frames() {
        let (cmd_tx, cmd_rx) = unbounded();
        let outbox = test_outbox(1, cmd_tx);
        outbox.send(99, Bytes::from_static(b"x"));
        assert!(cmd_rx.recv_timeout(Duration::from_millis(50)).is_err());

        let (tx, rx) = unbounded::<Bytes>();
        outbox.register(1, Sink::Chan(tx));
        outbox.unregister(1);
        outbox.send(1, Bytes::from_static(b"x"));
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        assert_eq!(outbox.len(), 0);
    }
}
