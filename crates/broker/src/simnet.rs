//! A deterministic in-process network: the [`Transport`] the cluster
//! harness runs on.
//!
//! [`SimNet`] models a set of hosts (synthetic `10.66.0.x` addresses)
//! joined by bidirectional links. Every connection is a pair of bounded
//! in-memory byte pipes; per-link knobs mirror the fault harness used by
//! the TCP integration tests — kill (sever every live pipe and refuse new
//! dials), revive. All timing randomness (per-write delivery
//! jitter) flows from one seed, so a failing schedule replays from its
//! `SIMNET_SEED` (see DESIGN.md §12 for the determinism model and its
//! limits versus loom).
//!
//! Lock order: the net-wide registry lock `net` is acquired before any
//! per-pipe `buf` lock; both are leaves relative to every broker lock
//! (simnet never calls back into broker code). The condvar wait on `buf`
//! atomically releases the guard, so it is exempt from the
//! hold-across-blocking rule (docs/LOCK_ORDER.md).

use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, Read};
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use crate::transport::{Connection, LinkWriter, Listener, Transport};

/// Bytes a pipe buffers before writers block (the simulated socket
/// buffer). A single chunk larger than this is still accepted once the
/// pipe is empty, so no frame can deadlock the link.
const PIPE_CAP: usize = 256 * 1024;

/// How long a read blocks before returning `WouldBlock`, per the
/// transport contract (well under the ~200 ms bound so reader threads
/// poll shutdown flags promptly).
const READ_QUANTUM: Duration = Duration::from_millis(100);

/// Maximum per-write delivery jitter, milliseconds (exclusive). Seeded
/// per pipe; perturbs interleavings across seeds without breaking
/// in-order delivery.
const JITTER_MS: u64 = 3;

/// splitmix64: the mixer behind every seed derivation here. Wrapping
/// arithmetic only.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A tiny seeded generator (splitmix64 stream) for delivery jitter.
struct Rng(u64);

impl Rng {
    fn next_below(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(1);
        if bound == 0 {
            return 0;
        }
        mix(self.0) % bound
    }
}

/// An unordered host pair: the key for link state. Construction sorts,
/// so `(a, b)` and `(b, a)` name the same link.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct LinkKey(IpAddr, IpAddr);

impl LinkKey {
    fn new(a: IpAddr, b: IpAddr) -> LinkKey {
        if a <= b {
            LinkKey(a, b)
        } else {
            LinkKey(b, a)
        }
    }
}

fn ip_hash(ip: IpAddr) -> u64 {
    match ip {
        IpAddr::V4(v4) => mix(u64::from(u32::from(v4))),
        IpAddr::V6(v6) => mix((u128::from(v6) as u64) ^ mix((u128::from(v6) >> 64) as u64)),
    }
}

/// One direction of a connection: a bounded, ordered byte pipe.
struct Pipe {
    buf: Mutex<PipeBuf>,
    cv: Condvar,
}

struct PipeBuf {
    /// Bytes released for reading.
    ready: VecDeque<u8>,
    /// Chunks written but not yet due (jitter). Released FIFO —
    /// a later chunk never overtakes an earlier one, preserving stream
    /// order even when jitter would reorder due times.
    staged: VecDeque<(Instant, Vec<u8>)>,
    /// Total unread bytes (ready + staged); the backpressure gauge.
    buffered: usize,
    /// Graceful close: in-flight bytes still drain, then reads see EOF.
    eof: bool,
    /// Hard kill: buffered data is gone, reads see EOF, writes fail.
    severed: bool,
    /// Per-pipe jitter stream (seed derived from the net seed and the
    /// host pair, independent of dial order).
    rng: Rng,
    /// Bound on how long one write may block for space.
    write_timeout: Option<Duration>,
}

impl Pipe {
    fn new(seed: u64) -> Arc<Pipe> {
        Arc::new(Pipe {
            buf: Mutex::new(PipeBuf {
                ready: VecDeque::new(),
                staged: VecDeque::new(),
                buffered: 0,
                eof: false,
                severed: false,
                rng: Rng(seed),
                write_timeout: None,
            }),
            cv: Condvar::new(),
        })
    }

    /// Severs the pipe: buffered data is dropped, readers see EOF,
    /// writers see `BrokenPipe`. Models a killed link.
    fn sever(&self) {
        let mut g = self.buf.lock();
        g.severed = true;
        g.ready.clear();
        g.staged.clear();
        g.buffered = 0;
        self.cv.notify_all();
    }

    /// Marks EOF: no new writes, but buffered bytes still drain. Models
    /// a graceful `Shutdown::Both`.
    fn close(&self) {
        let mut g = self.buf.lock();
        g.eof = true;
        self.cv.notify_all();
    }

    /// Moves every staged chunk whose due time has passed into `ready`,
    /// strictly in FIFO order.
    fn release_due(g: &mut PipeBuf, now: Instant) {
        while let Some((due, _)) = g.staged.front() {
            if *due > now {
                break;
            }
            if let Some((_, chunk)) = g.staged.pop_front() {
                g.ready.extend(chunk);
            }
        }
    }

    fn write_chunk(&self, chunk: &[u8]) -> io::Result<()> {
        let mut g = self.buf.lock();
        // analyzer:allow(sim-determinism): write-timeout pacing only; byte order stays seed-derived
        let deadline = g.write_timeout.map(|t| Instant::now() + t);
        loop {
            if g.severed || g.eof {
                return Err(io::Error::new(ErrorKind::BrokenPipe, "pipe closed"));
            }
            // A chunk larger than the cap is accepted once the pipe is
            // empty, so oversized frames stall but never deadlock.
            if g.buffered == 0 || g.buffered + chunk.len() <= PIPE_CAP {
                break;
            }
            let wait = match deadline {
                Some(d) => {
                    // analyzer:allow(sim-determinism): timeout check only
                    let now = Instant::now();
                    if now >= d {
                        return Err(io::Error::new(
                            ErrorKind::TimedOut,
                            "write stalled past the write timeout",
                        ));
                    }
                    d - now
                }
                None => READ_QUANTUM,
            };
            // Atomically releases `buf` while parked (see module doc).
            self.cv.wait_for(&mut g, wait);
        }
        let jitter = g.rng.next_below(JITTER_MS);
        // analyzer:allow(sim-determinism): delivery pacing; ordering jitter comes from the seeded rng
        let due = Instant::now() + Duration::from_millis(jitter);
        g.buffered += chunk.len();
        g.staged.push_back((due, chunk.to_vec()));
        self.cv.notify_all();
        Ok(())
    }
}

/// The read half handed to reader threads.
struct SimReader(Arc<Pipe>);

impl Read for SimReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        // analyzer:allow(sim-determinism): read-quantum pacing only
        let start = Instant::now();
        let mut g = self.0.buf.lock();
        loop {
            // analyzer:allow(sim-determinism): staged-release pacing only
            let now = Instant::now();
            Pipe::release_due(&mut g, now);
            if !g.ready.is_empty() {
                let n = out.len().min(g.ready.len());
                for (dst, byte) in out.iter_mut().zip(g.ready.drain(..n)) {
                    *dst = byte;
                }
                g.buffered -= n;
                // Wake writers blocked on the cap.
                self.0.cv.notify_all();
                return Ok(n);
            }
            if g.severed || (g.eof && g.staged.is_empty()) {
                return Ok(0);
            }
            let elapsed = now.saturating_duration_since(start);
            if elapsed >= READ_QUANTUM {
                return Err(ErrorKind::WouldBlock.into());
            }
            // Wake at whichever comes first: the staged front's due time
            // or the end of the quantum.
            let mut wait = READ_QUANTUM - elapsed;
            if let Some((due, _)) = g.staged.front() {
                wait = wait.min(
                    due.saturating_duration_since(now)
                        .max(Duration::from_micros(100)),
                );
            }
            // Atomically releases `buf` while parked (see module doc).
            self.0.cv.wait_for(&mut g, wait);
        }
    }
}

/// The write half registered with the outbox. Holds both pipes so
/// `shutdown` can close the reverse direction too, mirroring
/// `Shutdown::Both` on a TCP socket.
struct SimWriter {
    /// The direction this side writes.
    out: Arc<Pipe>,
    /// The reverse direction (this side's reads), closed on shutdown so
    /// the local reader thread unblocks.
    back: Arc<Pipe>,
}

impl LinkWriter for SimWriter {
    fn write_batch(&self, batch: &[Bytes]) -> io::Result<()> {
        for chunk in batch {
            self.out.write_chunk(chunk)?;
        }
        Ok(())
    }

    fn shutdown(&self) {
        self.out.close();
        self.back.close();
    }

    fn set_write_timeout(&self, timeout: Option<Duration>) {
        let mut g = self.out.buf.lock();
        g.write_timeout = timeout;
    }
}

/// A bound listener's server-side state: dials queue connections here.
struct ListenerSlot {
    /// Generation id: a rebind on the same address (broker restart)
    /// gets a fresh generation, so the old listener's `accept`/`Drop`
    /// cannot steal or tear down the new one's slot.
    gen: u64,
    queue: VecDeque<Connection>,
}

/// Per-link fault state.
struct LinkState {
    up: bool,
    /// Dials ever made across this link (part of each pipe's seed, so
    /// seeds never repeat across redials).
    dials: u64,
    /// Live pipes riding this link, severed on `kill_link`.
    pipes: Vec<Weak<Pipe>>,
}

struct NetState {
    next_host: u8,
    next_port: u16,
    next_gen: u64,
    listeners: HashMap<SocketAddr, ListenerSlot>,
    links: HashMap<LinkKey, LinkState>,
}

impl NetState {
    fn link(&mut self, key: LinkKey) -> &mut LinkState {
        self.links.entry(key).or_insert(LinkState {
            up: true,
            dials: 0,
            pipes: Vec::new(),
        })
    }
}

/// A deterministic in-memory network: hosts, links, and fault knobs.
///
/// Create one per simulated cluster, derive a [`SimHost`] per node, and
/// hand each host to a [`BrokerConfig`](crate::BrokerConfig) (or to
/// [`Client::connect_via`](crate::Client::connect_via)) as its transport.
///
/// ```
/// use linkcast_broker::SimNet;
/// let net = SimNet::new(42);
/// let host_a = net.host();
/// let host_b = net.host();
/// assert_ne!(host_a.ip(), host_b.ip());
/// ```
pub struct SimNet {
    seed: u64,
    net: Mutex<NetState>,
}

impl std::fmt::Debug for SimNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNet").field("seed", &self.seed).finish()
    }
}

impl SimNet {
    /// Creates a network whose delivery jitter derives entirely from
    /// `seed`.
    pub fn new(seed: u64) -> Arc<SimNet> {
        Arc::new(SimNet {
            seed,
            net: Mutex::new(NetState {
                next_host: 1,
                next_port: 49152,
                next_gen: 1,
                listeners: HashMap::new(),
                links: HashMap::new(),
            }),
        })
    }

    /// Reads `SIMNET_SEED` from the environment, falling back to
    /// `default` — the replay hook for CI failures (DESIGN.md §12).
    pub fn seed_from_env(default: u64) -> u64 {
        std::env::var("SIMNET_SEED")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(default)
    }

    /// Allocates the next host on this network (`10.66.0.1`, `.2`, …).
    pub fn host(self: &Arc<Self>) -> SimHost {
        let mut g = self.net.lock();
        let octet = g.next_host;
        g.next_host = g.next_host.saturating_add(1);
        SimHost {
            net: Arc::clone(self),
            ip: IpAddr::V4(Ipv4Addr::new(10, 66, 0, octet)),
        }
    }

    /// Kills the link between two hosts: every live pipe is severed
    /// (readers see EOF, writers `BrokenPipe`, buffered data is lost)
    /// and new dials across it are refused until [`SimNet::revive_link`].
    pub fn kill_link(&self, a: IpAddr, b: IpAddr) {
        let mut g = self.net.lock();
        let link = g.link(LinkKey::new(a, b));
        link.up = false;
        let pipes = std::mem::take(&mut link.pipes);
        drop(g);
        for weak in pipes {
            if let Some(pipe) = weak.upgrade() {
                pipe.sever();
            }
        }
    }

    /// Brings a killed link back up. Severed pipes stay dead — as with a
    /// real network partition, endpoints must redial (the broker's
    /// persistent dialer does).
    pub fn revive_link(&self, a: IpAddr, b: IpAddr) {
        let mut g = self.net.lock();
        g.link(LinkKey::new(a, b)).up = true;
    }

    fn bind(self: &Arc<Self>, host_ip: IpAddr, requested: SocketAddr) -> io::Result<SimListener> {
        let mut g = self.net.lock();
        let port = if requested.port() == 0 {
            let p = g.next_port;
            g.next_port = g.next_port.wrapping_add(1).max(49152);
            p
        } else {
            requested.port()
        };
        let addr = SocketAddr::new(host_ip, port);
        if g.listeners.contains_key(&addr) {
            return Err(io::Error::new(
                ErrorKind::AddrInUse,
                format!("{addr} already bound"),
            ));
        }
        let gen = g.next_gen;
        g.next_gen += 1;
        g.listeners.insert(
            addr,
            ListenerSlot {
                gen,
                queue: VecDeque::new(),
            },
        );
        Ok(SimListener {
            net: Arc::clone(self),
            addr,
            gen,
        })
    }

    fn dial(&self, from_ip: IpAddr, addr: SocketAddr) -> io::Result<Connection> {
        let mut g = self.net.lock();
        let key = LinkKey::new(from_ip, addr.ip());
        let pair_seed = self.seed ^ ip_hash(key.0) ^ ip_hash(key.1);
        let link = g.link(key);
        if !link.up {
            return Err(io::Error::new(
                ErrorKind::ConnectionRefused,
                format!("link {from_ip} <-> {} is down", addr.ip()),
            ));
        }
        link.dials = link.dials.wrapping_add(1);
        // Seeds depend only on the net seed, the host pair, and how many
        // dials that pair has made — never on cross-link dial order.
        let s = mix(pair_seed ^ mix(link.dials));
        // `fwd` carries dialer → listener bytes, `rev` the reverse.
        let fwd = Pipe::new(s);
        let rev = Pipe::new(mix(s));
        link.pipes.retain(|weak| weak.upgrade().is_some());
        link.pipes.push(Arc::downgrade(&fwd));
        link.pipes.push(Arc::downgrade(&rev));
        let Some(slot) = g.listeners.get_mut(&addr) else {
            return Err(io::Error::new(
                ErrorKind::ConnectionRefused,
                format!("no listener at {addr}"),
            ));
        };
        slot.queue.push_back(Connection {
            reader: Box::new(SimReader(Arc::clone(&fwd))),
            writer: Arc::new(SimWriter {
                out: Arc::clone(&rev),
                back: Arc::clone(&fwd),
            }),
        });
        Ok(Connection {
            reader: Box::new(SimReader(Arc::clone(&rev))),
            writer: Arc::new(SimWriter {
                out: fwd,
                back: rev,
            }),
        })
    }
}

/// One host on a [`SimNet`]: the [`Transport`] a single broker or client
/// uses. All its binds and dials carry this host's synthetic IP, which
/// is what the link fault knobs key on.
pub struct SimHost {
    net: Arc<SimNet>,
    ip: IpAddr,
}

impl SimHost {
    /// This host's synthetic address (the key for the link knobs).
    pub fn ip(&self) -> IpAddr {
        self.ip
    }

    /// The network this host lives on.
    pub fn net(&self) -> &Arc<SimNet> {
        &self.net
    }
}

impl std::fmt::Debug for SimHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimHost").field("ip", &self.ip).finish()
    }
}

impl Transport for SimHost {
    fn bind(&self, addr: SocketAddr) -> io::Result<Box<dyn Listener>> {
        Ok(Box::new(self.net.bind(self.ip, addr)?))
    }

    fn dial(&self, addr: SocketAddr) -> io::Result<Connection> {
        self.net.dial(self.ip, addr)
    }
}

/// A bound simnet listener; dials to its address queue connections that
/// [`Listener::accept`] pops.
struct SimListener {
    net: Arc<SimNet>,
    addr: SocketAddr,
    gen: u64,
}

impl Listener for SimListener {
    fn accept(&self) -> io::Result<Connection> {
        let mut g = self.net.net.lock();
        match g.listeners.get_mut(&self.addr) {
            // A stale listener (its address was rebound after a restart)
            // just looks idle; its accept loop exits via the shutdown
            // flag.
            Some(slot) if slot.gen == self.gen => {
                slot.queue.pop_front().ok_or(ErrorKind::WouldBlock.into())
            }
            _ => Err(ErrorKind::WouldBlock.into()),
        }
    }

    fn local_addr(&self) -> io::Result<SocketAddr> {
        Ok(self.addr)
    }
}

impl Drop for SimListener {
    fn drop(&mut self) {
        let mut g = self.net.net.lock();
        if let Some(slot) = g.listeners.get(&self.addr) {
            if slot.gen == self.gen {
                g.listeners.remove(&self.addr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LinkReader;

    /// Accepts with retry: a dial queues the connection under the net
    /// lock, so only a bounded number of `WouldBlock`s can intervene.
    fn accept(listener: &dyn Listener) -> Connection {
        for _ in 0..100 {
            match listener.accept() {
                Ok(conn) => return conn,
                Err(e) if e.kind() == ErrorKind::WouldBlock => continue,
                Err(e) => panic!("accept: {e}"),
            }
        }
        panic!("accept never produced the queued connection");
    }

    /// The error kind of a `Result` whose `Ok` type has no `Debug` impl
    /// (`Connection`, `Box<dyn Listener>`).
    fn err_kind<T>(r: io::Result<T>) -> ErrorKind {
        match r {
            Ok(_) => panic!("expected an error"),
            Err(e) => e.kind(),
        }
    }

    /// Reads until `want` bytes, EOF, or an unexpected error; WouldBlock
    /// (an expired read quantum) just retries, as the reader threads do.
    fn read_up_to(reader: &mut LinkReader, want: usize) -> Vec<u8> {
        let mut out = vec![0u8; want];
        let mut filled = 0;
        while filled < want {
            match reader.read(&mut out[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => continue,
                Err(e) => panic!("read: {e}"),
            }
        }
        out.truncate(filled);
        out
    }

    fn dialed_pair(net: &Arc<SimNet>) -> (SimHost, SimHost, Connection, Connection) {
        let a = net.host();
        let b = net.host();
        let listener = a.bind(SocketAddr::new(a.ip(), 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let dialer_end = b.dial(addr).unwrap();
        let listener_end = accept(listener.as_ref());
        (a, b, dialer_end, listener_end)
    }

    #[test]
    fn pipe_roundtrip_carries_bytes_both_ways_in_order() {
        let net = SimNet::new(1);
        let (_a, _b, mut dialer, mut server) = dialed_pair(&net);
        dialer
            .writer
            .write_batch(&[Bytes::from_static(b"pi"), Bytes::from_static(b"ng")])
            .unwrap();
        assert_eq!(read_up_to(&mut server.reader, 4), b"ping");
        server
            .writer
            .write_batch(&[Bytes::from_static(b"pong")])
            .unwrap();
        assert_eq!(read_up_to(&mut dialer.reader, 4), b"pong");
    }

    #[test]
    fn kill_link_severs_pipes_and_refuses_dials_until_revive() {
        let net = SimNet::new(2);
        let (a, b, dialer, mut server) = dialed_pair(&net);
        // Buffered-but-undelivered bytes are lost with the partition.
        dialer
            .writer
            .write_batch(&[Bytes::from_static(b"doomed")])
            .unwrap();
        net.kill_link(a.ip(), b.ip());
        assert_eq!(read_up_to(&mut server.reader, 6), b"");
        let err = dialer
            .writer
            .write_batch(&[Bytes::from_static(b"x")])
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::BrokenPipe);
        // New dials are refused while the link is down...
        let listener = a.bind(SocketAddr::new(a.ip(), 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        assert_eq!(err_kind(b.dial(addr)), ErrorKind::ConnectionRefused);
        // ...and succeed again after revive (endpoints must redial; the
        // severed pipes stay dead).
        net.revive_link(a.ip(), b.ip());
        let redialed = b.dial(addr).unwrap();
        let mut reaccepted = accept(listener.as_ref());
        redialed
            .writer
            .write_batch(&[Bytes::from_static(b"back")])
            .unwrap();
        assert_eq!(read_up_to(&mut reaccepted.reader, 4), b"back");
    }

    #[test]
    fn shutdown_is_eof_after_drain_in_both_directions() {
        let net = SimNet::new(3);
        let (_a, _b, mut dialer, mut server) = dialed_pair(&net);
        dialer
            .writer
            .write_batch(&[Bytes::from_static(b"last words")])
            .unwrap();
        dialer.writer.shutdown();
        // In-flight bytes still drain, then the peer sees EOF...
        assert_eq!(read_up_to(&mut server.reader, 10), b"last words");
        assert_eq!(read_up_to(&mut server.reader, 1), b"");
        // ...writes in either direction fail...
        assert_eq!(
            dialer
                .writer
                .write_batch(&[Bytes::from_static(b"x")])
                .unwrap_err()
                .kind(),
            ErrorKind::BrokenPipe
        );
        assert_eq!(
            server
                .writer
                .write_batch(&[Bytes::from_static(b"x")])
                .unwrap_err()
                .kind(),
            ErrorKind::BrokenPipe
        );
        // ...and the shutting-down side's own reader unblocks with EOF
        // (shutdown closes both directions, like `Shutdown::Both`).
        assert_eq!(read_up_to(&mut dialer.reader, 1), b"");
    }

    #[test]
    fn rebinding_an_address_invalidates_the_stale_listener() {
        let net = SimNet::new(4);
        let a = net.host();
        let b = net.host();
        let addr = SocketAddr::new(a.ip(), 7000);
        let first = a.bind(addr).unwrap();
        // Double-bind while the first listener lives is refused.
        assert_eq!(err_kind(a.bind(addr)), ErrorKind::AddrInUse);
        drop(first);
        // The restart case: a fresh bind gets a fresh generation.
        let second = a.bind(addr).unwrap();
        let dialed = b.dial(addr).unwrap();
        let mut served = accept(second.as_ref());
        dialed
            .writer
            .write_batch(&[Bytes::from_static(b"gen2")])
            .unwrap();
        assert_eq!(read_up_to(&mut served.reader, 4), b"gen2");
    }

    #[test]
    fn a_stale_listener_cannot_steal_or_tear_down_the_rebound_slot() {
        let net = SimNet::new(5);
        let a = net.host();
        let b = net.host();
        let addr = SocketAddr::new(a.ip(), 7001);
        let stale = a.bind(addr).unwrap();
        // Simulate the restart race: the old accept loop still holds its
        // listener while the new incarnation rebinds. Drop order in the
        // broker guarantees this cannot happen (shutdown joins the
        // acceptor), but the listener itself must also be safe.
        {
            let mut g = net.net.lock();
            g.listeners.remove(&addr);
        }
        let fresh = a.bind(addr).unwrap();
        let _queued = b.dial(addr).unwrap();
        // The stale listener sees only WouldBlock — never the queued
        // connection destined for the new generation...
        assert_eq!(
            err_kind(stale.accept()),
            ErrorKind::WouldBlock,
            "stale listener must not steal the fresh generation's dials"
        );
        // ...and dropping it leaves the rebound slot (and its queue)
        // intact: the fresh listener still accepts the dial made above.
        drop(stale);
        let dialed = accept(fresh.as_ref());
        dialed
            .writer
            .write_batch(&[Bytes::from_static(b"ok")])
            .unwrap();
    }
}
