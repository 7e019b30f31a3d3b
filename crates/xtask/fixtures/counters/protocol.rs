// Seeded counter-registry fixture: the Stats decode arm reads counters at
// fixed offsets with raw `get_u64_le` (a peer one release apart becomes a
// protocol error instead of a degraded read), and a hand-built counter
// literal bypasses the registry entirely.

fn decode(tag: u8, buf: &mut Bytes) -> Frame {
    match FrameTag::from_byte(tag) {
        Some(FrameTag::Stats) => {
            let published = buf.get_u64_le(); // seeded: fixed-layout read
            let forwarded = buf.get_u64_le();
            Frame::Stats(NodeCounters {
                published: published, // seeded: bypasses broker_counters!
                forwarded: forwarded,
            })
        }
        None => Frame::Unknown,
    }
}

fn encode(frame: &Frame, b: &mut BytesMut) {
    match frame {
        Frame::Stats(counters) => {
            b.put_u8(FrameTag::Stats as u8);
            counters.encode_wire(b);
        }
    }
}
