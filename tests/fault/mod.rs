//! Shared deterministic fault-injection harness for broker integration
//! tests.
//!
//! [`FaultLink`] is a frame-aware TCP proxy standing in for one
//! broker–broker link. It understands the `[u32 LE len][payload]` framing,
//! so faults can target whole frames: each direction independently supports
//! stalling (a half-open link: sockets stay open, bytes stop), dribbled
//! partial writes, one-shot tag-byte corruption, and per-frame delay; the
//! link as a whole can be killed and revived like a cut cable.
//!
//! [`FaultPlan`] names the fault archetypes a test runs under; schedules
//! draw from the seeded [`Lcg`] (via [`seed_from_env`], e.g. `FAULT_SEED`)
//! so CI runs a fixed, reproducible matrix.

#![allow(
    dead_code,
    reason = "each test binary compiles this module separately and uses a different subset of it"
)]

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use linkcast_broker::BrokerNode;
use linkcast_types::{Event, EventSchema, SchemaId, SchemaRegistry, Value, ValueKind};

/// A deterministic schedule source (64-bit LCG, Knuth's constants).
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Lcg {
        Lcg(seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Reads a seed from `var`, falling back to `default`. CI pins its matrix
/// by exporting the variable; local runs get the stable default.
pub fn seed_from_env(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Injectable faults for one direction of a proxied link. All switches are
/// live: tests flip them mid-traffic.
#[derive(Default)]
pub struct DirState {
    /// Hold frames (read but never forwarded) while set: the classic
    /// half-open link — sockets stay open, bytes stop.
    stall: AtomicBool,
    /// Forward each frame a few bytes at a time with short pauses,
    /// exercising partial-read reassembly downstream.
    dribble: AtomicBool,
    /// One-shot: flip the next frame's tag byte to garbage. The protocol
    /// has no checksums, so corrupting the tag is the deterministic way to
    /// make the receiver notice (undecodable frame → protocol error →
    /// hangup) instead of silently misrouting.
    corrupt_next: AtomicBool,
    /// One-shot: XOR the next `Forward` frame's event payload (the schema
    /// word past the 21-byte routing header). Unlike [`corrupt_next`],
    /// the tag dispatch succeeds and the *event decode* fails —
    /// exercising the error path behind the frame switch, where a sloppy
    /// handler could advance the receive window or ack before noticing.
    corrupt_payload_next: AtomicBool,
    /// Hold each frame this long before forwarding it.
    delay_ms: AtomicU64,
}

impl DirState {
    pub fn stall(&self, on: bool) {
        self.stall.store(on, Ordering::Release);
    }

    pub fn dribble(&self, on: bool) {
        self.dribble.store(on, Ordering::Release);
    }

    pub fn corrupt_next_frame(&self) {
        self.corrupt_next.store(true, Ordering::Release);
    }

    /// Arms the one-shot payload corruption: the next `Forward` frame
    /// passing this direction gets its event body scrambled (the frame
    /// header survives). Control frames pass untouched while armed.
    pub fn corrupt_next_payload(&self) {
        self.corrupt_payload_next.store(true, Ordering::Release);
    }

    pub fn delay(&self, ms: u64) {
        self.delay_ms.store(ms, Ordering::Release);
    }

    /// Turns every fault in this direction off.
    pub fn clear(&self) {
        self.stall.store(false, Ordering::Release);
        self.dribble.store(false, Ordering::Release);
        self.corrupt_next.store(false, Ordering::Release);
        self.corrupt_payload_next.store(false, Ordering::Release);
        self.delay_ms.store(0, Ordering::Release);
    }
}

/// A fault-injecting TCP proxy standing in for one broker–broker link.
///
/// While up, accepted connections are pumped frame-by-frame to the
/// upstream broker, with each direction's [`DirState`] faults applied in
/// flight. [`FaultLink::kill`] severs every proxied connection (both sides
/// see EOF, exactly like a cut cable); while down, new dials are accepted
/// and immediately dropped, so the supervisor's redial loop keeps spinning
/// against a flapping endpoint. [`FaultLink::revive`] restores service for
/// subsequent dials.
pub struct FaultLink {
    addr: SocketAddr,
    up: Arc<AtomicBool>,
    /// Faults on the dialer→acceptor direction.
    forward: Arc<DirState>,
    /// Faults on the acceptor→dialer direction (e.g. `Hello` replies).
    reply: Arc<DirState>,
    /// Dials accepted while the link was up (i.e. proxied connections
    /// actually established) — lets tests count redial attempts.
    dials: Arc<AtomicU64>,
    streams: Arc<Mutex<Vec<TcpStream>>>,
}

impl FaultLink {
    pub fn start(upstream: SocketAddr) -> FaultLink {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let up = Arc::new(AtomicBool::new(true));
        let forward = Arc::new(DirState::default());
        let reply = Arc::new(DirState::default());
        let dials = Arc::new(AtomicU64::new(0));
        let streams = Arc::new(Mutex::new(Vec::<TcpStream>::new()));
        {
            let up = Arc::clone(&up);
            let forward = Arc::clone(&forward);
            let reply = Arc::clone(&reply);
            let dials = Arc::clone(&dials);
            let streams = Arc::clone(&streams);
            std::thread::spawn(move || {
                for incoming in listener.incoming() {
                    let Ok(client) = incoming else { break };
                    if !up.load(Ordering::Acquire) {
                        // Down: accept-and-drop, the dialer sees instant EOF.
                        drop(client);
                        continue;
                    }
                    let Ok(server) = TcpStream::connect(upstream) else {
                        drop(client);
                        continue;
                    };
                    dials.fetch_add(1, Ordering::Relaxed);
                    let _ = client.set_nodelay(true);
                    let _ = server.set_nodelay(true);
                    {
                        let mut held = streams.lock().unwrap();
                        held.push(client.try_clone().unwrap());
                        held.push(server.try_clone().unwrap());
                    }
                    pump(
                        client.try_clone().unwrap(),
                        server.try_clone().unwrap(),
                        Arc::clone(&forward),
                    );
                    pump(server, client, Arc::clone(&reply));
                }
            });
        }
        FaultLink {
            addr,
            up,
            forward,
            reply,
            dials,
            streams,
        }
    }

    /// The address brokers dial instead of the real neighbor.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Cuts the link: every proxied connection dies, new dials are dropped.
    pub fn kill(&self) {
        self.up.store(false, Ordering::Release);
        for stream in self.streams.lock().unwrap().drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Restores the link for future dials.
    pub fn revive(&self) {
        self.up.store(true, Ordering::Release);
    }

    /// Faults on the dialer→acceptor byte direction.
    pub fn forward(&self) -> &DirState {
        &self.forward
    }

    /// Faults on the acceptor→dialer byte direction.
    pub fn reply(&self) -> &DirState {
        &self.reply
    }

    /// Proxied connections established so far (redial attempts that got
    /// through while the link was up).
    pub fn dials(&self) -> u64 {
        self.dials.load(Ordering::Relaxed)
    }

    /// Full recovery: link up, every directional fault cleared.
    pub fn heal(&self) {
        self.forward.clear();
        self.reply.clear();
        self.revive();
    }
}

/// One direction of a proxied connection, forwarded a frame at a time with
/// the direction's faults applied in flight.
fn pump(from: TcpStream, to: TcpStream, state: Arc<DirState>) {
    std::thread::spawn(move || {
        let raw_from = from.try_clone();
        let mut from = std::io::BufReader::new(from);
        let mut to = to;
        loop {
            let mut header = [0u8; 4];
            if from.read_exact(&mut header).is_err() {
                break;
            }
            let len = u32::from_le_bytes(header) as usize;
            let mut frame = vec![0u8; 4 + len];
            frame[..4].copy_from_slice(&header);
            if from.read_exact(&mut frame[4..]).is_err() {
                break;
            }
            // No tag uses 0xff, so the receiver deterministically counts a
            // protocol error and hangs up instead of misinterpreting.
            if state.corrupt_next.swap(false, Ordering::AcqRel) && len > 0 {
                frame[4] = 0xff;
            }
            // Payload corruption waits for a Forward (tag 0x22) and
            // scrambles the event's schema word past the 21-byte routing
            // header: the frame decodes, the event inside does not.
            if len >= 25
                && frame[4] == 0x22
                && state.corrupt_payload_next.swap(false, Ordering::AcqRel)
            {
                for byte in &mut frame[25..29] {
                    *byte ^= 0xff;
                }
            }
            let delay = state.delay_ms.load(Ordering::Acquire);
            if delay > 0 {
                std::thread::sleep(Duration::from_millis(delay));
            }
            while state.stall.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(2));
            }
            let ok = if state.dribble.load(Ordering::Acquire) {
                frame.chunks(5).all(|chunk| {
                    if to.write_all(chunk).is_err() {
                        return false;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                    true
                })
            } else {
                to.write_all(&frame).is_ok()
            };
            if !ok {
                break;
            }
        }
        if let Ok(raw) = raw_from {
            let _ = raw.shutdown(Shutdown::Both);
        }
        let _ = to.shutdown(Shutdown::Both);
    });
}

/// The fault archetypes of the matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Sever every proxied connection; drop new dials while down.
    Kill,
    /// Freeze one (seeded) direction with the sockets left open: only the
    /// heartbeat liveness sweep can notice this one.
    Stall,
    /// Dribble every frame out a few bytes at a time.
    PartialWrite,
    /// Flip the next frame's tag byte in both directions.
    Corrupt,
    /// Hold every frame for a seeded handful of milliseconds.
    Delay,
}

/// A named fault to run one matrix leg under.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    pub name: &'static str,
    pub fault: Fault,
}

impl FaultPlan {
    /// Injects this plan's fault on `link`; directional choices draw from
    /// the seeded `rng`.
    pub fn inject(&self, link: &FaultLink, rng: &mut Lcg) {
        match self.fault {
            Fault::Kill => link.kill(),
            Fault::Stall => {
                if rng.below(2) == 0 {
                    link.forward().stall(true);
                } else {
                    link.reply().stall(true);
                }
            }
            Fault::PartialWrite => {
                link.forward().dribble(true);
                link.reply().dribble(true);
            }
            Fault::Corrupt => {
                link.forward().corrupt_next_frame();
                link.reply().corrupt_next_frame();
            }
            Fault::Delay => {
                let ms = 5 + rng.below(20);
                link.forward().delay(ms);
                link.reply().delay(ms);
            }
        }
    }

    pub fn heal(&self, link: &FaultLink) {
        link.heal();
    }
}

/// One-schema registry shared by the fault tests.
pub fn registry() -> Arc<SchemaRegistry> {
    let mut r = SchemaRegistry::new();
    r.register(
        EventSchema::builder("ticks")
            .attribute("n", ValueKind::Int)
            .build()
            .unwrap(),
    )
    .unwrap();
    Arc::new(r)
}

pub fn tick(registry: &SchemaRegistry, n: i64) -> Event {
    let schema = registry.get(SchemaId::new(0)).unwrap();
    Event::from_values(schema, [Value::Int(n)]).unwrap()
}

/// Waits until every node's matching engine holds at least `want`
/// subscriptions (the subscription flood has converged).
pub fn await_subscriptions(nodes: &[&BrokerNode], want: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while nodes.iter().any(|n| n.stats().subscriptions < want as u64) {
        assert!(Instant::now() < deadline, "subscription flood stalled");
        std::thread::sleep(Duration::from_millis(10));
    }
}
