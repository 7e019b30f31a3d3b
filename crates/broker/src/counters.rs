//! Single-source counter registry.
//!
//! Every broker counter that crosses the wire is declared exactly once, in
//! the [`broker_counters!`] invocation at the bottom of this module. The
//! macro generates the whole observability chain from that one list:
//!
//! - `StatsInner` — the live `AtomicU64` cells the engine increments
//!   (`atomic` entries only),
//! - `Derived` — counters aggregated at snapshot time from non-atomic
//!   state (the match-cache counts in `MatchStats`),
//! - `Gauges` — point-in-time values sampled outside the counter atomics
//!   (queue depths, connection count); `BrokerStats`-only, never on the
//!   wire,
//! - [`NodeCounters`] — the wire-visible snapshot, with
//!   `encode_wire`/`decode_wire` preserving the length-tolerant
//!   forward-compat contract (decode whatever whole `u64` words are
//!   present in registry order, default the rest to 0, ignore trailing
//!   extras),
//! - [`BrokerStats`] — `NodeCounters` plus the gauges, returned by
//!   `BrokerNode::stats`,
//! - `NodeCounters::counter_lines` — the `(name, value)` table the CLI
//!   renders.
//!
//! Adding a counter is one line in the registry; the `counter-registry`
//! xtask pass verifies structurally that nothing re-plumbs counters by
//! hand outside this module. See `docs/COUNTERS.md`.

/// Splits registry entries by class: `atomic` entries become `AtomicU64`
/// fields of `StatsInner`, `derived` entries become plain `u64` fields of
/// `Derived`. Internal accumulator for [`broker_counters!`].
macro_rules! __counters_filter_structs {
    (
        si = { $($si:tt)* },
        dv = { $($dv:tt)* },
        rest = { }
    ) => {
        /// Live counter cells; incremented by the engine, snapshotted by
        /// `StatsInner::counters`. Generated by `broker_counters!`.
        #[derive(Debug, Default)]
        pub(crate) struct StatsInner {
            $($si)*
        }

        /// Counters aggregated from non-atomic state at snapshot time.
        /// Generated by `broker_counters!`.
        #[derive(Debug, Default, Clone, Copy)]
        pub(crate) struct Derived {
            $($dv)*
        }
    };
    (
        si = { $($si:tt)* },
        dv = { $($dv:tt)* },
        rest = { $(#[$meta:meta])* $name:ident : atomic, $($rest:tt)* }
    ) => {
        $crate::counters::__counters_filter_structs! {
            si = { $($si)* pub(crate) $name: ::std::sync::atomic::AtomicU64, },
            dv = { $($dv)* },
            rest = { $($rest)* }
        }
    };
    (
        si = { $($si:tt)* },
        dv = { $($dv:tt)* },
        rest = { $(#[$meta:meta])* $name:ident : derived, $($rest:tt)* }
    ) => {
        $crate::counters::__counters_filter_structs! {
            si = { $($si)* },
            dv = { $($dv)* pub(crate) $name: u64, },
            rest = { $($rest)* }
        }
    };
}

/// Reads one registry entry in expression position: `atomic` entries load
/// from the `StatsInner` atomics, `derived` entries copy from the
/// `Derived` snapshot. Internal dispatch for [`broker_counters!`].
macro_rules! __counter_read {
    (atomic, $inner:ident, $derived:ident, $name:ident) => {
        $inner.$name.load(::std::sync::atomic::Ordering::Relaxed)
    };
    (derived, $inner:ident, $derived:ident, $name:ident) => {
        $derived.$name
    };
}

/// Declares the broker counter registry.
///
/// `wire { name: atomic|derived, ... }` entries are wire-visible and
/// encoded as `u64` LE words in declaration order — **declaration order is
/// wire order**, so new counters append at the end and existing entries
/// never move. `gauges { name: ty, ... }` entries appear only in
/// `BrokerStats`.
macro_rules! broker_counters {
    (
        wire {
            $( $(#[$wmeta:meta])* $wname:ident : $wclass:ident ),+ $(,)?
        }
        gauges {
            $( $(#[$gmeta:meta])* $gname:ident : $gty:ty ),+ $(,)?
        }
    ) => {
        $crate::counters::__counters_filter_structs! {
            si = { },
            dv = { },
            rest = { $( $(#[$wmeta])* $wname : $wclass, )+ }
        }

        /// Point-in-time values sampled outside the counter atomics;
        /// reported in `BrokerStats` only, never on the wire. Generated by
        /// `broker_counters!`.
        #[derive(Debug, Default, Clone, Copy)]
        pub(crate) struct Gauges {
            $( $(#[$gmeta])* pub(crate) $gname: $gty, )+
        }

        /// A broker's wire-visible counters, answering a `StatsRequest`.
        ///
        /// Field order is wire order. Generated by `broker_counters!`; see
        /// `docs/COUNTERS.md` for the registry reference.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct NodeCounters {
            $( $(#[$wmeta])* pub $wname: u64, )+
        }

        /// A point-in-time snapshot of a broker's counters and gauges.
        ///
        /// The counter fields mirror [`NodeCounters`]; the trailing gauge
        /// fields are local-only. Generated by `broker_counters!`.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct BrokerStats {
            $( $(#[$wmeta])* pub $wname: u64, )+
            $( $(#[$gmeta])* pub $gname: $gty, )+
        }

        impl StatsInner {
            /// Snapshots the wire-visible counters.
            pub(crate) fn counters(&self, derived: Derived) -> NodeCounters {
                NodeCounters {
                    $( $wname: $crate::counters::__counter_read!($wclass, self, derived, $wname), )+
                }
            }

            /// Snapshots counters plus the sampled gauges.
            pub(crate) fn broker_stats(&self, derived: Derived, gauges: Gauges) -> BrokerStats {
                let c = self.counters(derived);
                BrokerStats {
                    $( $wname: c.$wname, )+
                    $( $gname: gauges.$gname, )+
                }
            }
        }

        impl NodeCounters {
            /// Number of counters in the registry (and of `u64` words in
            /// the wire encoding).
            pub const COUNT: usize = [$(stringify!($wname)),+].len();

            /// Appends every counter as a `u64` LE word in registry order.
            /// The encoder is exact-size so old decoders keep working.
            pub fn encode_wire(&self, buf: &mut impl ::bytes::BufMut) {
                $( buf.put_u64_le(self.$wname); )+
            }

            /// Length-tolerant decode: reads whatever whole counters are
            /// present in registry order, defaults missing trailing
            /// counters to 0, and ignores extra trailing counters newer
            /// than this build. Callers reject ragged payloads before
            /// calling this.
            pub fn decode_wire(buf: &mut ::bytes::Bytes) -> Self {
                use ::bytes::Buf;
                let mut c = Self::default();
                $(
                    if buf.remaining() >= 8 {
                        c.$wname = buf.get_u64_le();
                    }
                )+
                c
            }

            /// Counter `(name, value)` pairs in registry order, for
            /// human-readable tables.
            pub fn counter_lines(&self) -> [(&'static str, u64); Self::COUNT] {
                [ $( (stringify!($wname), self.$wname) ),+ ]
            }
        }
    };
}

pub(crate) use {__counter_read, __counters_filter_structs};

broker_counters! {
    wire {
        /// Events published by local clients.
        published: atomic,
        /// Event copies forwarded to neighbor brokers.
        forwarded: atomic,
        /// Events appended to local client logs (deliveries).
        delivered: atomic,
        /// Protocol errors answered with `Error` frames.
        errors: atomic,
        /// Currently registered subscriptions (network-wide view); a
        /// stored gauge refreshed on every subscription change.
        subscriptions: atomic,
        /// Event copies appended to broker-link spools (every forwarded
        /// event is spooled until the neighbor acknowledges it, whether or
        /// not the link was up at the time).
        spooled: atomic,
        /// Spooled frames retransmitted after a link reconnect handshake.
        retransmitted: atomic,
        /// Spooled frames dropped unacknowledged because a link spool hit
        /// its bound (32768 frames) — events lost to that subtree.
        dropped_spool_overflow: atomic,
        /// Undecodable frames: each one costs the sending peer its
        /// connection (a corrupt stream cannot be re-framed, so the broker
        /// cuts it loose rather than guess at message boundaries).
        protocol_errors: atomic,
        /// Liveness probes sent on broker links idle past the heartbeat
        /// period, a tenth of `BrokerConfig::liveness_timeout`.
        pings_sent: atomic,
        /// Broker links torn down after staying silent past
        /// `BrokerConfig::liveness_timeout` — half-open and stalled peers
        /// the kernel would never report.
        liveness_timeouts: atomic,
        /// Client connections evicted for overrunning the per-connection
        /// queue bound, 8 MiB (subscribers that stopped reading; their logs
        /// still replay on reconnect).
        evicted_slow_consumers: atomic,
        /// Broker links disconnected for overrunning the same bound; their
        /// spools keep the frames for retransmit after the redial.
        peer_overflow_disconnects: atomic,
        /// Match-cache lookups answered without a PST walk (see
        /// `BrokerConfig::match_cache_cap`).
        match_cache_hits: derived,
        /// Match-cache lookups that fell through to the PST walk.
        match_cache_misses: derived,
        /// Match-cache flushes forced by a subscription-set generation
        /// change (subscribe/unsubscribe/re-annotation).
        match_cache_invalidations: derived,
        /// WAL records committed to `BrokerConfig::storage` (each record is
        /// one atomic batch: an event's spool appends plus its receive
        /// mark, or a trim).
        wal_appends: atomic,
        /// WAL records replayed on top of the snapshot during `recover()`.
        wal_replayed: atomic,
        /// Snapshot checkpoints written (cadence checkpoints plus the one
        /// committed at the end of every recovery).
        snapshot_writes: atomic,
        /// Torn or corrupt WAL tail records discarded during `recover()` —
        /// evidence of a power cut mid-append, never replayed as data.
        torn_records_discarded: atomic,
        /// Boots that restored durable state (a snapshot or a non-empty
        /// WAL existed in `BrokerConfig::storage`).
        recoveries: atomic,
        /// Link-state changes this broker *originated* (its own redial
        /// escalation, not a flooded statement it heard from a neighbor).
        repairs_initiated: atomic,
        /// Topology-epoch changes applied: each is a spanning-forest
        /// recompute over the surviving graph plus a routing cutover.
        epoch_flips: atomic,
        /// `Forward` frames dropped because their embedded topology epoch
        /// differed from the receiver's. Dropped *without* an ack, so the
        /// sender's flip sweep re-homes them — never a lost event.
        stale_epoch_drops: atomic,
        /// Spooled frames re-dispatched down the repaired trees by an
        /// epoch-flip sweep (spool re-homing).
        rerouted_frames: atomic,
        /// Times a matching engine rebuilt its tree in another attribute
        /// order: on observed selectivity, or back again when the first
        /// interval under the new order walked no fewer steps (DESIGN.md
        /// §11.2).
        order_rebuilds: atomic,
        /// `Storage` calls that failed at a WAL commit or a checkpoint and
        /// were swallowed: the broker keeps routing, the disk lags (§14.2).
        storage_errors: atomic,
    }
    gauges {
        /// Frames currently sitting in outgoing queues across all
        /// connections (transport backpressure signal).
        queued_frames: u64,
        /// Bytes currently sitting in outgoing queues across all
        /// connections.
        queued_bytes: u64,
        /// Live connections registered with the transport (clients +
        /// broker links); flapping links must return this to its baseline.
        connections: usize,
        /// The broker's current topology epoch (Σ over edges of
        /// `2·ver + down`): identical across brokers exactly when their
        /// link-state tables — and therefore their repaired forests —
        /// agree. The repair tests use it as the convergence signal.
        topology_epoch: u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{BufMut, BytesMut};

    fn sample() -> NodeCounters {
        let mut c = NodeCounters::default();
        for (i, slot) in [
            &mut c.published,
            &mut c.forwarded,
            &mut c.delivered,
            &mut c.errors,
            &mut c.subscriptions,
            &mut c.spooled,
            &mut c.retransmitted,
            &mut c.dropped_spool_overflow,
            &mut c.protocol_errors,
            &mut c.pings_sent,
            &mut c.liveness_timeouts,
            &mut c.evicted_slow_consumers,
            &mut c.peer_overflow_disconnects,
            &mut c.match_cache_hits,
            &mut c.match_cache_misses,
            &mut c.match_cache_invalidations,
            &mut c.wal_appends,
            &mut c.wal_replayed,
            &mut c.snapshot_writes,
            &mut c.torn_records_discarded,
            &mut c.recoveries,
            &mut c.repairs_initiated,
            &mut c.epoch_flips,
            &mut c.stale_epoch_drops,
            &mut c.rerouted_frames,
            &mut c.order_rebuilds,
            &mut c.storage_errors,
        ]
        .into_iter()
        .enumerate()
        {
            *slot = (i as u64 + 1) * 3;
        }
        c
    }

    #[test]
    fn wire_roundtrip() {
        let c = sample();
        let mut b = BytesMut::new();
        c.encode_wire(&mut b);
        assert_eq!(b.len(), NodeCounters::COUNT * 8);
        let mut payload = b.freeze();
        assert_eq!(NodeCounters::decode_wire(&mut payload), c);
        assert_eq!(payload.len(), 0);
    }

    /// The macro-generated encoding must keep its prefix byte-compatible
    /// with the hand-written 16-u64 layout shipped before the registry
    /// existed; newer counters only ever append after it.
    #[test]
    fn wire_layout_matches_legacy_16_counter_order() {
        assert_eq!(NodeCounters::COUNT, 27);
        let c = sample();
        let mut b = BytesMut::new();
        c.encode_wire(&mut b);
        let legacy: Vec<u64> = vec![
            c.published,
            c.forwarded,
            c.delivered,
            c.errors,
            c.subscriptions,
            c.spooled,
            c.retransmitted,
            c.dropped_spool_overflow,
            c.protocol_errors,
            c.pings_sent,
            c.liveness_timeouts,
            c.evicted_slow_consumers,
            c.peer_overflow_disconnects,
            c.match_cache_hits,
            c.match_cache_misses,
            c.match_cache_invalidations,
        ];
        let expected: Vec<u8> = legacy.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(&b[..expected.len()], &expected[..]);
    }

    #[test]
    fn decode_defaults_missing_trailing_counters() {
        let mut b = BytesMut::new();
        b.put_u64_le(7);
        b.put_u64_le(9);
        let mut payload = b.freeze();
        let c = NodeCounters::decode_wire(&mut payload);
        assert_eq!(c.published, 7);
        assert_eq!(c.forwarded, 9);
        assert_eq!(c.delivered, 0);
        assert_eq!(c.match_cache_invalidations, 0);
    }

    #[test]
    fn decode_ignores_extra_trailing_counters() {
        let c = sample();
        let mut b = BytesMut::new();
        c.encode_wire(&mut b);
        b.put_u64_le(0xdead);
        b.put_u64_le(0xbeef);
        let mut payload = b.freeze();
        assert_eq!(NodeCounters::decode_wire(&mut payload), c);
        assert_eq!(payload.len(), 16);
    }

    #[test]
    fn counter_lines_cover_registry_in_order() {
        let c = sample();
        let lines = c.counter_lines();
        assert_eq!(lines.len(), NodeCounters::COUNT);
        assert_eq!(lines[0], ("published", c.published));
        assert_eq!(lines[4], ("subscriptions", c.subscriptions));
        assert_eq!(
            lines[15],
            ("match_cache_invalidations", c.match_cache_invalidations)
        );
        assert_eq!(lines[20], ("recoveries", c.recoveries));
        assert_eq!(lines[21], ("repairs_initiated", c.repairs_initiated));
        assert_eq!(lines[24], ("rerouted_frames", c.rerouted_frames));
        assert_eq!(lines[25], ("order_rebuilds", c.order_rebuilds));
        assert_eq!(lines[26], ("storage_errors", c.storage_errors));
    }

    #[test]
    fn snapshot_reads_atomics_and_derived() {
        let inner = StatsInner::default();
        inner
            .published
            .store(41, std::sync::atomic::Ordering::Relaxed);
        inner
            .subscriptions
            .store(5, std::sync::atomic::Ordering::Relaxed);
        let derived = Derived {
            match_cache_hits: 11,
            match_cache_misses: 13,
            match_cache_invalidations: 17,
        };
        let c = inner.counters(derived);
        assert_eq!(c.published, 41);
        assert_eq!(c.subscriptions, 5);
        assert_eq!(c.match_cache_hits, 11);
        let s = inner.broker_stats(
            derived,
            Gauges {
                queued_frames: 3,
                queued_bytes: 300,
                connections: 2,
                topology_epoch: 4,
            },
        );
        assert_eq!(s.published, 41);
        assert_eq!(s.match_cache_misses, 13);
        assert_eq!(s.queued_bytes, 300);
        assert_eq!(s.connections, 2);
        assert_eq!(s.topology_epoch, 4);
    }

    /// Adding a counter is one registry line: a probe registry with one
    /// extra entry propagates to the atomics, both snapshot structs, wire
    /// encode/decode, and the CLI table with no other edits.
    mod probe {
        use bytes::{Buf, BytesMut};

        broker_counters! {
            wire {
                /// Baseline counter.
                published: atomic,
                /// The probe: registered here and nowhere else.
                probe_counter: atomic,
                /// Derived entry, to keep both classes in play.
                match_cache_hits: derived,
            }
            gauges {
                /// Gauge entry.
                connections: usize,
            }
        }

        #[test]
        fn one_line_registration_propagates_everywhere() {
            assert_eq!(NodeCounters::COUNT, 3);

            let inner = StatsInner::default();
            inner
                .probe_counter
                .store(99, std::sync::atomic::Ordering::Relaxed);
            let derived = Derived {
                match_cache_hits: 4,
            };
            let c = inner.counters(derived);
            assert_eq!(c.probe_counter, 99);

            // Wire: encoded in registry order, round-trips.
            let mut b = BytesMut::new();
            c.encode_wire(&mut b);
            assert_eq!(b.len(), 24);
            let mut payload = b.freeze();
            assert_eq!(payload.slice(8..16).get_u64_le(), 99);
            assert_eq!(NodeCounters::decode_wire(&mut payload), c);

            // Snapshot struct carries it alongside the gauges.
            let s = inner.broker_stats(derived, Gauges { connections: 1 });
            assert_eq!(s.probe_counter, 99);
            assert_eq!(s.connections, 1);

            // CLI table lists it by name.
            let lines = c.counter_lines();
            assert_eq!(lines[1], ("probe_counter", 99));
        }
    }
}
