//! One broker link: this broker's end of the §4.2 log extended to the mesh
//! (DESIGN.md §8). A [`Link`] is everything known about one neighbor —
//! connection, send spool, receive window, liveness — and the only place
//! the link protocol is decided. It reads no clock, owns no socket and
//! journals nothing: a method takes `now` where it needs time and returns
//! what the core must send or journal.

use std::time::{Duration, Instant};

use bytes::Bytes;
use linkcast::TreeId;
use linkcast_types::BrokerId;

use crate::log::AckLog;
use crate::protocol::{self, BrokerToBroker};

/// A connection, as the outbox numbers them.
type ConnId = u64;

/// How many durably received `Forward`s accumulate before a cumulative
/// `FwdAck` goes back (the GC pass asks for the rest, so idle links ack too).
pub(crate) const FWD_ACK_EVERY: u64 = 64;

/// Maximum retained frames per spool. Past it — the link has been down for
/// long — the oldest unacknowledged frames are dropped, and counted in
/// `BrokerStats::dropped_spool_overflow`.
pub(crate) const LINK_SPOOL_BOUND: usize = 32768;

/// Stretches `backoff` by a pseudo-random factor in `[1.0, 1.5)`, advancing
/// `state` (splitmix64). Without it every supervisor redials a recovering
/// neighbor, and every broker pings every idle link, on the same clock
/// edge; a seed per (local, neighbor) pair keeps schedules reproducible.
pub(crate) fn jittered_backoff(backoff: Duration, state: &mut u64) -> Duration {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let ms = u64::try_from(backoff.as_millis())
        .unwrap_or(u64::MAX)
        .max(1);
    // Up to +50% in whole milliseconds; `ms / 2 + 1` keeps the modulus
    // nonzero for sub-2ms backoffs.
    let extra = z % (ms / 2 + 1);
    Duration::from_millis(ms.saturating_add(extra))
}

/// Redial jitter seed, distinct for every (local, neighbor) pair.
pub(crate) fn jitter_seed(me: BrokerId, neighbor: BrokerId) -> u64 {
    (u64::from(me.raw()) << 32) ^ u64::from(neighbor.raw()) ^ 0x5851_f42d_4c95_7f2d
}

/// Ping jitter seed: offset from the pair's redial seed, so a link's ping
/// cadence does not mirror its redial cadence.
pub(crate) fn heartbeat_jitter_seed(me: BrokerId, neighbor: BrokerId) -> u64 {
    jitter_seed(me, neighbor) ^ 0x9e37_79b9_7f4a_7c15
}

/// Initial (and minimum) redial backoff for supervised links.
pub(crate) const LINK_REDIAL_MIN: Duration = Duration::from_millis(50);
/// Redial backoff ceiling.
pub(crate) const LINK_REDIAL_MAX: Duration = Duration::from_secs(2);
/// How long a greeted link must survive before the redial backoff resets
/// to the minimum. A neighbor that accepts the dial and then dies at once
/// (crash loop) keeps backing off instead of being hot-redialed.
pub(crate) const LINK_STABILITY_WINDOW: Duration = Duration::from_secs(2);

/// A link supervisor's redial policy: how long to wait after each attempt,
/// and when a down episode has failed often enough to declare the link
/// unreachable (`repair_after` attempts in a row that never heard the peer;
/// once per episode, re-armed by the next attempt that does).
#[derive(Debug)]
pub(crate) struct Redial {
    backoff: Duration,
    jitter: u64,
    failures: u32,
    escalated: bool,
    repair_after: u32,
}

impl Redial {
    /// The policy for `me`'s link to `neighbor`.
    pub(crate) fn new(me: BrokerId, neighbor: BrokerId, repair_after: u32) -> Redial {
        Redial {
            backoff: LINK_REDIAL_MIN,
            jitter: jitter_seed(me, neighbor),
            failures: 0,
            escalated: false,
            repair_after,
        }
    }

    /// The dial was refused: the jittered pause before the next, and
    /// whether to report the link unreachable now.
    pub(crate) fn refused(&mut self) -> (Duration, bool) {
        let pause = self.backoff;
        self.backoff = (self.backoff * 2).min(LINK_REDIAL_MAX);
        self.next(false, pause)
    }

    /// A dialled connection ended after `lasted`, `greeted` if the peer sent
    /// anything on it: as [`refused`](Self::refused). Only a link that
    /// proved stable earns a backoff reset.
    pub(crate) fn ended(&mut self, greeted: bool, lasted: Duration) -> (Duration, bool) {
        self.backoff = if greeted && lasted >= LINK_STABILITY_WINDOW {
            LINK_REDIAL_MIN
        } else {
            (self.backoff * 2).min(LINK_REDIAL_MAX)
        };
        self.next(greeted, self.backoff)
    }

    fn next(&mut self, greeted: bool, pause: Duration) -> (Duration, bool) {
        if greeted {
            // The down episode (if any) is over.
            (self.failures, self.escalated) = (0, false);
        } else {
            self.failures = self.failures.saturating_add(1);
        }
        let escalate = !greeted
            && self.repair_after > 0
            && self.failures >= self.repair_after
            && !std::mem::replace(&mut self.escalated, true);
        (jittered_backoff(pause, &mut self.jitter), escalate)
    }
}

/// The connection currently carrying a link.
#[derive(Debug)]
struct Up {
    conn: ConnId,
    /// The peer's `Hello` was processed and the spool replayed on `conn`.
    /// Until then fresh `Forward`s stay spool-only: ahead of the backlog,
    /// their higher sequences would make the receiver dedup-drop it.
    greeted: bool,
    /// When `conn` last produced a frame, decodable or not.
    heard: Instant,
    /// splitmix64 state behind this connection's ping threshold.
    ping_jitter: u64,
}

/// A receive mark: the sequence [`Link::accept`] took, and the peer
/// lifetime it was counted under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Mark {
    pub(crate) seq: u64,
    pub(crate) incarnation: u64,
}

/// What the heartbeat owes a link.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Tick {
    Idle,
    /// Idle past the jittered heartbeat interval: probe this connection.
    Ping(ConnId),
    /// Silent past the liveness timeout: tear this connection down.
    Dead(ConnId),
}

/// This broker's end of the link to one neighbor.
#[derive(Debug, Default)]
pub(crate) struct Link {
    /// At most one connection: sequenced traffic interleaved across two
    /// streams would break the FIFO arrival the cumulative dedup relies on.
    up: Option<Up>,
    /// Stitched `Forward` frames, kept until the neighbor's cumulative ack
    /// and replayed after a flap. Outlives the connection.
    spool: AckLog<Bytes>,
    /// Highest sequence accepted from the neighbor; anything at or below
    /// it is a retransmission.
    seq: u64,
    /// Highest sequence whose receive mark is durable. `Hello` and
    /// `FwdAck` advertise this, never `seq`: the peer trims its spool by
    /// it, so it may only cover frames a crash here cannot lose.
    durable_seq: u64,
    /// Highest sequence acknowledged back to the neighbor.
    acked_sent: u64,
    /// The neighbor lifetime the window counts (0 = none seen yet).
    peer_incarnation: u64,
}

impl Link {
    /// The connection control traffic (handshake, floods, acks) goes out on.
    pub(crate) fn conn(&self) -> Option<ConnId> {
        self.up.as_ref().map(|up| up.conn)
    }

    /// The connection fresh `Forward`s go out on: handshake complete.
    pub(crate) fn established(&self) -> Option<ConnId> {
        self.up.as_ref().filter(|up| up.greeted).map(|up| up.conn)
    }

    /// Makes `conn` the link's one connection, not yet greeted, its liveness
    /// clock started and its ping jitter seeded. Returns the connection it
    /// displaces, for the caller to tear down.
    pub(crate) fn install(&mut self, conn: ConnId, now: Instant, jitter: u64) -> Option<ConnId> {
        if self.conn() == Some(conn) {
            return None;
        }
        let up = Up {
            conn,
            greeted: false,
            heard: now,
            ping_jitter: jitter,
        };
        self.up.replace(up).map(|old| old.conn)
    }

    /// `conn` is gone; spool and window stay.
    pub(crate) fn forget(&mut self, conn: ConnId) {
        if self.conn() == Some(conn) {
            self.up = None;
        }
    }

    /// `conn` produced a frame.
    pub(crate) fn heard(&mut self, conn: ConnId, now: Instant) {
        if let Some(up) = self.up.as_mut().filter(|up| up.conn == conn) {
            up.heard = now;
        }
    }

    /// The handshake of broker `me`, lifetime `incarnation`: the durable mark
    /// and the peer lifetime it counts, for the peer to trim and replay by;
    /// the send sequence, for it to notice a regression.
    pub(crate) fn hello(&self, me: BrokerId, incarnation: u64) -> BrokerToBroker {
        BrokerToBroker::Hello {
            broker: me,
            incarnation,
            last_recv: self.durable_seq,
            last_recv_incarnation: self.peer_incarnation,
            send_seq: self.spool.last_seq(),
        }
    }

    /// The peer's handshake, read by a broker whose lifetime is `ours`: the
    /// spool's new ack floor if it moved. [`replay`](Self::replay) ends it.
    pub(crate) fn on_hello(
        &mut self,
        ours: u64,
        incarnation: u64,
        last_recv: u64,
        last_recv_incarnation: u64,
        send_seq: u64,
    ) -> Option<u64> {
        if self.peer_incarnation != incarnation {
            // A new peer lifetime: its sequence space starts over, and the
            // old high-water mark would dedup-drop the fresh stream.
            self.peer_incarnation = incarnation;
            (self.seq, self.durable_seq, self.acked_sent) = (0, 0, 0);
        } else if send_seq < self.seq {
            // Same lifetime, send sequence behind what we accepted: should
            // be impossible, kept as a guard against the same silent drop.
            self.seq = send_seq;
            self.durable_seq = self.durable_seq.min(send_seq);
            self.acked_sent = self.acked_sent.min(send_seq);
        }
        // `last_recv` is a cumulative ack only if it counts *our* frames: a
        // mark an earlier lifetime of ours earned would trim unseen ones.
        let ours = last_recv_incarnation == ours;
        self.on_ack(if ours { last_recv } else { 0 })
    }

    /// Ends the handshake: every frame past the ack floor, in sequence
    /// order, to send ahead of what [`stitch`](Self::stitch) hands out next.
    pub(crate) fn replay(&mut self) -> Vec<Bytes> {
        if let Some(up) = &mut self.up {
            up.greeted = true;
        }
        self.pending()
    }

    fn pending(&self) -> Vec<Bytes> {
        let past = self.spool.replay_after(self.spool.acked());
        past.map(|(_, frame)| frame.clone()).collect()
    }

    /// Empties the spool for re-homing: its unacknowledged frames, and the
    /// new ack floor if there were any.
    pub(crate) fn take_pending(&mut self) -> (Vec<Bytes>, Option<u64>) {
        (self.pending(), self.on_ack(self.spool.last_seq()))
    }

    /// Stitches the next `Forward` around `body` and spools it — up or down,
    /// the spool is what survives a flap. Returns its sequence, the frame
    /// (to send now only on an [`established`](Self::established) link) and
    /// how many frames the spool bound pushed out unacknowledged.
    pub(crate) fn stitch(&mut self, tree: TreeId, epoch: u64, body: &Bytes) -> (u64, Bytes, u64) {
        let seq = self.spool.last_seq() + 1;
        let frame = protocol::forward_frame(tree, seq, epoch, body);
        self.spool.append(frame.clone());
        let lost = self.spool.lost();
        self.spool.enforce_bound(LINK_SPOOL_BOUND);
        (seq, frame, self.spool.lost() - lost)
    }

    /// The neighbor's cumulative ack. Returns the new ack floor — what to
    /// journal as a trim — only if it moved.
    pub(crate) fn on_ack(&mut self, seq: u64) -> Option<u64> {
        let before = self.spool.acked();
        self.spool.ack(seq);
        self.spool.collect();
        Some(self.spool.acked()).filter(|&f| f != before)
    }

    /// An inbound `Forward`'s sequence: `None` for a retransmission (the
    /// spool is at-least-once; this restores exactly-once into routing),
    /// else the mark to journal and then [`commit`](Self::committed).
    pub(crate) fn accept(&mut self, seq: u64) -> Option<Mark> {
        if seq <= self.seq {
            return None;
        }
        self.seq = seq;
        let incarnation = self.peer_incarnation;
        Some(Mark { seq, incarnation })
    }

    /// `mark` is durable (at once, without storage): the sequence to `FwdAck`
    /// once pacing allows. A mark an earlier peer lifetime counted is inert.
    pub(crate) fn committed(&mut self, mark: Mark) -> Option<u64> {
        if mark.incarnation != self.peer_incarnation {
            return None;
        }
        self.durable_seq = self.durable_seq.max(mark.seq);
        self.ack_after(FWD_ACK_EVERY)
    }

    /// The sequence to `FwdAck` if anything durable is unacknowledged.
    pub(crate) fn owed_ack(&mut self) -> Option<u64> {
        self.ack_after(1)
    }

    /// Only on an established link: before the peer's `Hello` the window
    /// may still count an earlier lifetime of the peer, and a `FwdAck` names
    /// none — the new one would trim frames of its own nobody received.
    fn ack_after(&mut self, unacked: u64) -> Option<u64> {
        let owed = self.durable_seq.saturating_sub(self.acked_sent);
        if self.established().is_none() || owed < unacked {
            return None;
        }
        self.acked_sent = self.durable_seq;
        Some(self.acked_sent)
    }

    /// One heartbeat edge. The ping threshold is redrawn per tick inside
    /// `[heartbeat, 1.5 × heartbeat)`: detection stays of an interval's order.
    pub(crate) fn tick(&mut self, now: Instant, heartbeat: Duration, liveness: Duration) -> Tick {
        let Some(up) = &mut self.up else {
            return Tick::Idle;
        };
        let idle = now.saturating_duration_since(up.heard);
        if idle >= liveness {
            Tick::Dead(up.conn)
        } else if idle >= jittered_backoff(heartbeat, &mut up.ping_jitter) {
            Tick::Ping(up.conn)
        } else {
            Tick::Idle
        }
    }

    /// The send spool, for the snapshot.
    pub(crate) fn spool(&self) -> &AckLog<Bytes> {
        &self.spool
    }

    /// The receive window, for the snapshot:
    /// `(seq, durable_seq, acked_sent, peer_incarnation)`.
    pub(crate) fn window(&self) -> (u64, u64, u64, u64) {
        (
            self.seq,
            self.durable_seq,
            self.acked_sent,
            self.peer_incarnation,
        )
    }

    /// Recovery: a snapshotted or journaled receive mark. Marks are
    /// cumulative within a peer lifetime; another lifetime's starts over.
    pub(crate) fn recover_mark(&mut self, incarnation: u64, seq: u64) {
        if self.peer_incarnation == incarnation {
            self.seq = self.seq.max(seq);
        } else {
            self.peer_incarnation = incarnation;
            self.seq = seq;
        }
        self.durable_seq = self.seq;
    }

    /// Recovery: the spool restarts empty with everything up to `acked`
    /// sent and acknowledged.
    pub(crate) fn recover_floor(&mut self, acked: u64) {
        self.spool = AckLog::with_base(acked);
    }

    /// Recovery: a snapshotted or journaled spool append. Idempotent: a cut
    /// between snapshot commit and WAL truncate leaves a record in both.
    pub(crate) fn recover_append(&mut self, seq: u64, frame: Bytes) {
        if seq == self.spool.last_seq() + 1 {
            self.spool.append(frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Buf;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    const A: BrokerId = BrokerId::new(1);
    const B: BrokerId = BrokerId::new(2);
    /// `A`'s lifetime nonce in the unit tests.
    const OURS: u64 = 0xa1;
    const TREE: TreeId = TreeId::from_index(0);

    /// `A`'s end of the link to `B`, up on `conn`.
    fn link_on(conn: ConnId, now: Instant) -> Link {
        let mut link = Link::default();
        assert_eq!(link.install(conn, now, heartbeat_jitter_seed(A, B)), None);
        link
    }

    /// Stitches `n` frames whose bodies are `from, from + 1, ..`; returns
    /// the `(sequence, where to send it now)` of each.
    fn stitch_ids(link: &mut Link, from: u64, n: u64) -> Vec<(u64, Option<ConnId>)> {
        let stitch = |id: u64| {
            let body = Bytes::copy_from_slice(&id.to_le_bytes());
            (link.stitch(TREE, 0, &body).0, link.established())
        };
        (from..from + n).map(stitch).collect()
    }

    /// The per-link sequence in a stitched frame's header.
    fn seq_of(frame: &Bytes) -> u64 {
        frame.slice(protocol::FRAME_PREFIX + 1 + 4..).get_u64_le()
    }

    /// The id `stitch_ids` put in a stitched frame's body.
    fn id_of(frame: &Bytes) -> u64 {
        frame
            .slice(protocol::FRAME_PREFIX + protocol::FORWARD_BODY_OFFSET..)
            .get_u64_le()
    }

    #[test]
    fn hello_guards() {
        struct Case {
            name: &'static str,
            /// The peer `Hello`: incarnation, last_recv, last_recv_incarnation, send_seq.
            hello: (u64, u64, u64, u64),
            /// Window afterwards: seq, durable_seq, acked_sent, peer_incarnation.
            window: (u64, u64, u64, u64),
            /// Spool floor afterwards, and whether `on_hello` reported it.
            floor: (u64, bool),
            /// Whether a mark taken before the `Hello` still counts after it.
            mark_applies: bool,
        }
        let cases = [
            Case {
                name: "reconnect of the same lifetime acks and keeps the window",
                hello: (0xb1, 3, OURS, 70),
                window: (70, 64, 64, 0xb1),
                floor: (3, true),
                mark_applies: true,
            },
            Case {
                name: "a new peer lifetime resets the window; its old marks are inert",
                hello: (0xb2, 0, 0, 0),
                window: (0, 0, 0, 0xb2),
                floor: (0, false),
                mark_applies: false,
            },
            Case {
                name: "a send_seq regression within one lifetime lowers the window",
                hello: (0xb1, 0, OURS, 10),
                window: (10, 10, 10, 0xb1),
                floor: (0, false),
                mark_applies: true,
            },
            Case {
                name: "a last_recv counted under another lifetime of ours trims nothing",
                hello: (0xb1, 5, OURS + 1, 70),
                window: (70, 64, 64, 0xb1),
                floor: (0, false),
                mark_applies: true,
            },
        ];
        for case in cases {
            // B (lifetime 0xb1) has sent us 70 frames, 64 of them committed
            // and acknowledged; we hold 5 unacknowledged frames for it.
            let mut link = link_on(1, Instant::now());
            assert_eq!(link.on_hello(OURS, 0xb1, 0, 0, 0), None);
            assert_eq!(link.replay(), Vec::<Bytes>::new());
            stitch_ids(&mut link, 0, 5);
            let marks: Vec<Mark> = (1..=70).filter_map(|seq| link.accept(seq)).collect();
            let acks: Vec<u64> = marks[..64]
                .iter()
                .filter_map(|&mark| link.committed(mark))
                .collect();
            assert_eq!(acks, [64], "{}", case.name);
            let late = marks[69];

            let (incarnation, last_recv, last_recv_incarnation, send_seq) = case.hello;
            let floor = link.on_hello(
                OURS,
                incarnation,
                last_recv,
                last_recv_incarnation,
                send_seq,
            );
            assert_eq!(link.window(), case.window, "{}", case.name);
            assert_eq!(link.spool().acked(), case.floor.0, "{}", case.name);
            assert_eq!(floor, case.floor.1.then_some(case.floor.0), "{}", case.name);

            link.committed(late);
            let durable = if case.mark_applies {
                late.seq
            } else {
                case.window.1
            };
            assert_eq!(link.window().1, durable, "{}", case.name);
        }
    }

    #[test]
    fn frames_stitched_before_the_peers_hello_wait_for_the_replay() {
        let mut link = Link::default();
        // Down: spooled.
        assert_eq!(stitch_ids(&mut link, 0, 2), [(1, None), (2, None)]);
        // Dialed, our Hello out, the peer's outstanding: still spooled.
        assert_eq!(link.install(7, Instant::now(), 0), None);
        assert_eq!((link.conn(), link.established()), (Some(7), None));
        assert_eq!(stitch_ids(&mut link, 2, 2), [(3, None), (4, None)]);
        // The peer's Hello acks the first frame; the rest replay in order.
        assert_eq!(link.on_hello(OURS, 0xb1, 1, OURS, 0), Some(1));
        let replayed: Vec<u64> = link.replay().iter().map(seq_of).collect();
        assert_eq!(replayed, [2, 3, 4]);
        // From here on frames go out as they are stitched.
        assert_eq!(stitch_ids(&mut link, 4, 1), [(5, Some(7))]);
        // A redial displaces the conn and starts over; a stale teardown of
        // the old conn does not touch the new one.
        assert_eq!(link.install(8, Instant::now(), 0), Some(7));
        link.forget(7);
        assert_eq!((link.conn(), link.established()), (Some(8), None));
    }

    #[test]
    fn acks_pace_at_the_threshold_and_owed_ack_covers_the_rest() {
        let mut link = link_on(1, Instant::now());
        link.replay();
        let mut acks = Vec::new();
        for seq in 1..=FWD_ACK_EVERY * 2 + 5 {
            let mark = link.accept(seq).expect("fresh sequence");
            assert_eq!(link.accept(seq), None, "a retransmission is not routed");
            acks.extend(link.committed(mark));
        }
        assert_eq!(acks, [FWD_ACK_EVERY, FWD_ACK_EVERY * 2]);
        assert_eq!(link.owed_ack(), Some(FWD_ACK_EVERY * 2 + 5));
        assert_eq!(link.owed_ack(), None, "nothing owed twice");
        // Down, or up but not yet told which lifetime of the peer this is,
        // nothing is acknowledged and nothing is paced away: the ack waits.
        link.forget(1);
        let mark = link.accept(FWD_ACK_EVERY * 2 + 6).expect("fresh sequence");
        assert_eq!(link.committed(mark), None);
        link.install(2, Instant::now(), 0);
        assert_eq!(link.owed_ack(), None);
        link.replay();
        assert_eq!(link.owed_ack(), Some(FWD_ACK_EVERY * 2 + 6));
    }

    #[test]
    fn acks_that_move_nothing_report_no_floor() {
        let mut link = Link::default();
        stitch_ids(&mut link, 0, 3);
        assert_eq!(link.on_ack(2), Some(2));
        assert_eq!(link.on_ack(2), None);
        assert_eq!(link.on_ack(1), None);
        assert_eq!(link.take_pending().1, Some(3));
        assert_eq!(link.take_pending(), (Vec::new(), None));
    }

    #[test]
    fn tick_pings_within_the_jitter_band_and_dies_at_the_timeout() {
        let heartbeat = Duration::from_millis(100);
        let liveness = Duration::from_millis(1000);
        let t0 = Instant::now();
        let mut link = Link::default();
        assert_eq!(
            link.tick(t0 + liveness, heartbeat, liveness),
            Tick::Idle,
            "down"
        );
        link.install(9, t0, heartbeat_jitter_seed(A, B));
        for ms in [0, 50, 99] {
            let now = t0 + Duration::from_millis(ms);
            assert_eq!(link.tick(now, heartbeat, liveness), Tick::Idle, "{ms} ms");
        }
        // Between the interval and half as much again it depends on the
        // draw, and over many draws on both sides of it.
        let now = t0 + Duration::from_millis(125);
        let pings = (0..64).filter(|_| link.tick(now, heartbeat, liveness) != Tick::Idle);
        assert!((1..64).contains(&pings.count()));
        for ms in [150, 999] {
            let now = t0 + Duration::from_millis(ms);
            assert_eq!(
                link.tick(now, heartbeat, liveness),
                Tick::Ping(9),
                "{ms} ms"
            );
        }
        assert_eq!(link.tick(t0 + liveness, heartbeat, liveness), Tick::Dead(9));
        // Any frame restarts the clock — on this conn only.
        link.heard(8, t0 + liveness);
        assert_eq!(link.tick(t0 + liveness, heartbeat, liveness), Tick::Dead(9));
        link.heard(9, t0 + liveness);
        assert_eq!(link.tick(t0 + liveness, heartbeat, liveness), Tick::Idle);
    }

    #[test]
    fn redial_doubles_to_the_cap_resets_when_stable_and_escalates_once_per_episode() {
        let ms = Duration::from_millis;
        // A pause is its base stretched by the jitter, under half as much again.
        let paused = |(pause, _): (Duration, bool), base: Duration| {
            assert!(
                pause >= base && pause <= base * 3 / 2,
                "{pause:?} for {base:?}"
            );
        };
        let mut redial = Redial::new(A, B, 3);
        // Refusals double the backoff up to the cap; the third in a row
        // escalates, and only the third.
        let bases = [50, 100, 200, 400, 800, 1600, 2000, 2000];
        for (i, base) in bases.into_iter().enumerate() {
            let next = redial.refused();
            paused(next, ms(base));
            assert_eq!(next.1, i == 2, "refusal {i}");
        }
        // A greeted link that died young ends the episode without a reset.
        let next = redial.ended(true, LINK_STABILITY_WINDOW - ms(1));
        paused(next, LINK_REDIAL_MAX);
        assert!(!next.1);
        // So the next episode escalates again, once.
        let escalations: Vec<bool> = (0..4).map(|_| redial.refused().1).collect();
        assert_eq!(escalations, [false, false, true, false]);
        // A greeted link that outlived the stability window resets it.
        let next = redial.ended(true, LINK_STABILITY_WINDOW);
        paused(next, LINK_REDIAL_MIN);
        paused(redial.refused(), LINK_REDIAL_MIN);
        // An accept-then-stall (never greeted) counts as a failure.
        let mut stalls = Redial::new(A, B, 2);
        assert!(!stalls.ended(false, ms(5000)).1);
        assert!(stalls.ended(false, ms(5000)).1);
        // `repair_after = 0` never escalates.
        let mut never = Redial::new(A, B, 0);
        assert!((0..64).all(|_| !never.refused().1));
    }

    /// One step of a schedule over two links joined by an in-memory FIFO.
    #[derive(Debug, Clone)]
    enum Op {
        /// The sender stitches the next event.
        Stitch,
        /// The oldest message in flight (toward the receiver, or back) arrives.
        Deliver { to_receiver: bool },
        /// The receiver's WAL catches up by so many marks.
        Commit(usize),
        /// The receiver flushes the ack it owes (its GC pass).
        FlushAck,
        /// The connection dies with everything in flight.
        Cut,
        /// A new connection, dialed by the sender or by the receiver.
        Connect { sender_dials: bool },
        /// The sender restarts without storage: new lifetime, empty spool.
        SenderRestart,
        /// The receiver crashes and recovers what its WAL holds: marks and
        /// events not yet committed are gone.
        ReceiverRestart,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            8 => Just(Op::Stitch),
            8 => any::<bool>().prop_map(|to_receiver| Op::Deliver { to_receiver }),
            3 => (1usize..80).prop_map(Op::Commit),
            1 => Just(Op::FlushAck),
            1 => Just(Op::Cut),
            2 => any::<bool>().prop_map(|sender_dials| Op::Connect { sender_dials }),
            1 => Just(Op::SenderRestart),
            1 => Just(Op::ReceiverRestart),
        ]
    }

    enum Msg {
        Hello(BrokerToBroker),
        Forward(Bytes),
        Ack(u64),
    }

    /// Sender `A`, receiver `B`, and the two directions of their connection.
    struct Pair {
        sender: Link,
        /// The sender's lifetime nonce; the receiver's stays `0xb0`.
        sender_life: u64,
        receiver: Link,
        conns: u64,
        /// Whether each side has sent its `Hello` on the current connection.
        greeted: [bool; 2],
        to_receiver: VecDeque<Msg>,
        to_sender: VecDeque<Msg>,
        /// Ids stitched, one list per sender lifetime.
        stitched: Vec<Vec<u64>>,
        next_id: u64,
        /// Events the receiver routed whose marks its WAL has yet to commit.
        tentative: VecDeque<(Mark, u64)>,
        /// Events the receiver routed, durably.
        accepted: Vec<u64>,
    }

    impl Pair {
        fn new() -> Pair {
            Pair {
                sender: Link::default(),
                sender_life: 1,
                receiver: Link::default(),
                conns: 0,
                greeted: [false; 2],
                to_receiver: VecDeque::new(),
                to_sender: VecDeque::new(),
                stitched: vec![Vec::new()],
                next_id: 0,
                tentative: VecDeque::new(),
                accepted: Vec::new(),
            }
        }

        fn step(&mut self, op: Op) {
            match op {
                Op::Stitch => {
                    let body = Bytes::copy_from_slice(&self.next_id.to_le_bytes());
                    let (_, frame, dropped) = self.sender.stitch(TREE, 0, &body);
                    assert_eq!(dropped, 0);
                    self.stitched.last_mut().unwrap().push(self.next_id);
                    self.next_id += 1;
                    if self.sender.established().is_some() {
                        self.to_receiver.push_back(Msg::Forward(frame));
                    }
                }
                Op::Deliver { to_receiver: true } => match self.to_receiver.pop_front() {
                    Some(Msg::Hello(hello)) => self.hello_arrives(hello, true),
                    Some(Msg::Forward(frame)) => {
                        if let Some(mark) = self.receiver.accept(seq_of(&frame)) {
                            self.tentative.push_back((mark, id_of(&frame)));
                        }
                    }
                    Some(Msg::Ack(_)) | None => {}
                },
                Op::Deliver { to_receiver: false } => match self.to_sender.pop_front() {
                    Some(Msg::Hello(hello)) => self.hello_arrives(hello, false),
                    Some(Msg::Ack(seq)) => {
                        self.sender.on_ack(seq);
                    }
                    Some(Msg::Forward(_)) | None => {}
                },
                Op::Commit(n) => {
                    for _ in 0..n {
                        let Some((mark, id)) = self.tentative.pop_front() else {
                            break;
                        };
                        self.accepted.push(id);
                        let ack = self.receiver.committed(mark);
                        self.to_sender.extend(ack.map(Msg::Ack));
                    }
                }
                Op::FlushAck => {
                    let ack = self.receiver.owed_ack();
                    self.to_sender.extend(ack.map(Msg::Ack));
                }
                Op::Cut => {
                    self.sender.forget(self.conns);
                    self.receiver.forget(self.conns);
                    self.to_receiver.clear();
                    self.to_sender.clear();
                }
                Op::Connect { sender_dials } => {
                    self.step(Op::Cut);
                    self.conns += 1;
                    let now = Instant::now();
                    self.sender.install(self.conns, now, 0);
                    self.receiver.install(self.conns, now, 0);
                    self.greeted = [sender_dials, !sender_dials];
                    if sender_dials {
                        let hello = self.sender.hello(A, self.sender_life);
                        self.to_receiver.push_back(Msg::Hello(hello));
                    } else {
                        let hello = self.receiver.hello(B, 0xb0);
                        self.to_sender.push_back(Msg::Hello(hello));
                    }
                }
                Op::SenderRestart => {
                    self.step(Op::Cut);
                    self.sender_life += 1;
                    self.sender = Link::default();
                    self.stitched.push(Vec::new());
                }
                Op::ReceiverRestart => {
                    self.step(Op::Cut);
                    let (_, durable_seq, _, peer_incarnation) = self.receiver.window();
                    self.receiver = Link::default();
                    self.receiver.recover_mark(peer_incarnation, durable_seq);
                    self.tentative.clear();
                }
            }
        }

        /// What the engine's `Hello` arm does, on either side.
        fn hello_arrives(&mut self, hello: BrokerToBroker, at_receiver: bool) {
            let BrokerToBroker::Hello {
                incarnation,
                last_recv,
                last_recv_incarnation,
                send_seq,
                ..
            } = hello
            else {
                panic!("only Hellos are queued as Msg::Hello");
            };
            let (link, me, ours, out, greeted) = if at_receiver {
                let (out, greeted) = (&mut self.to_sender, &mut self.greeted[1]);
                (&mut self.receiver, B, 0xb0, out, greeted)
            } else {
                let (out, greeted) = (&mut self.to_receiver, &mut self.greeted[0]);
                (&mut self.sender, A, self.sender_life, out, greeted)
            };
            link.on_hello(
                ours,
                incarnation,
                last_recv,
                last_recv_incarnation,
                send_seq,
            );
            if !std::mem::replace(greeted, true) {
                out.push_back(Msg::Hello(link.hello(me, ours)));
            }
            out.extend(link.replay().into_iter().map(Msg::Forward));
        }

        /// Reconnects and lets everything in flight land and commit.
        fn heal(&mut self) {
            self.step(Op::Connect { sender_dials: true });
            while !(self.to_receiver.is_empty() && self.to_sender.is_empty()) {
                self.step(Op::Deliver { to_receiver: true });
                self.step(Op::Deliver { to_receiver: false });
            }
            self.step(Op::Commit(usize::MAX));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The receiver routes every frame the sender still held, once, in
        /// order: of each earlier sender lifetime a prefix (the rest died
        /// with its spool), of the last one everything.
        #[test]
        fn two_links_over_a_fifo_are_exactly_once(ops in proptest::collection::vec(op(), 1..120)) {
            let mut pair = Pair::new();
            for op in ops {
                pair.step(op);
            }
            pair.heal();
            let mut accepted = pair.accepted.as_slice();
            let last = pair.stitched.len() - 1;
            for (life, stitched) in pair.stitched.iter().enumerate() {
                let common = accepted.iter().zip(stitched).take_while(|(a, s)| a == s).count();
                if life == last {
                    prop_assert_eq!(common, stitched.len(), "the live spool was not drained");
                }
                accepted = &accepted[common..];
            }
            prop_assert!(accepted.is_empty(), "duplicate or reordered: {:?}", accepted);
            prop_assert_eq!(pair.sender.spool().len() as u64 + pair.sender.spool().acked(),
                pair.sender.spool().last_seq());
        }
    }
}
