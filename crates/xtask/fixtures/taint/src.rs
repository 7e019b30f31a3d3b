// Seeded wire-taint fixture. Each `tainted_*` function lets a
// decoder-read value reach a sink unsanitized; each `sanitized_*` twin is
// the same shape with the canonical guard in place and must stay quiet.
// One allow comment deliberately omits its reason to feed the
// allow-without-reason hygiene check.

fn tainted_with_capacity(buf: &mut Bytes) -> Vec<Value> {
    let n = buf.get_u16_le() as usize;
    let mut values = Vec::with_capacity(n); // seeded: attacker-sized allocation
    values
}

fn sanitized_with_capacity(buf: &mut Bytes) -> Result<Vec<Value>> {
    let n = limits::checked_count(buf.get_u16_le() as usize, buf.remaining(), 2, "values")?;
    let mut values = Vec::with_capacity(n);
    Ok(values)
}

fn tainted_vec_macro(buf: &mut Bytes) -> Vec<u8> {
    let len = buf.get_u32_le() as usize;
    vec![0u8; len] // seeded: attacker-sized zero-fill
}

fn sanitized_vec_macro(buf: &mut Bytes) -> Result<Vec<u8>> {
    let len = buf.get_u32_le() as usize;
    need(buf, len, "string bytes")?;
    Ok(vec![0u8; len])
}

fn tainted_loop_alloc(buf: &mut Bytes) -> Vec<Value> {
    let count = buf.get_u16_le();
    let mut out = Vec::new();
    for _ in 0..count {
        out.push(get_value(buf)); // seeded: per-iteration alloc on raw count
    }
    out
}

fn sanitized_loop_alloc(buf: &mut Bytes) -> Vec<Value> {
    let count = (buf.get_u16_le() as usize).min(buf.remaining() / 2);
    let mut out = Vec::new();
    for _ in 0..count {
        out.push(get_value(buf));
    }
    out
}

fn tainted_cursor_and_index(buf: &mut Bytes, table: &[Handler]) -> Handler {
    let skip = buf.get_u32_le() as usize;
    let doubled = skip * 2; // taint propagates through arithmetic
    buf.advance(doubled); // seeded: cursor jump from raw wire value
    let slot = buf.get_u8() as usize;
    table[slot] // seeded: index from raw wire value
}

fn sanitized_cursor_and_index(buf: &mut Bytes, table: &[Handler]) -> Option<Handler> {
    let skip = buf.get_u32_le() as usize;
    need(buf, skip, "skipped region")?;
    buf.advance(skip);
    let slot = buf.get_u8() as usize;
    if slot > MAX_HANDLER_SLOT {
        return None;
    }
    Some(table[slot])
}

fn tainted_wal_record_len(buf: &mut Bytes) -> Bytes {
    let wal_len = buf.get_u32_le() as usize;
    buf.split_to(wal_len) // seeded: record length from a torn WAL header
}

fn sanitized_wal_record_len(buf: &mut Bytes) -> Option<Bytes> {
    let wal_len = buf.get_u32_le() as usize;
    if wal_len > MAX_WAL_RECORD || buf.remaining() < wal_len {
        return None;
    }
    Some(buf.split_to(wal_len))
}

fn tainted_epoch_reserve(buf: &mut Bytes) -> Vec<TreeId> {
    let epoch = buf.get_u64_le();
    Vec::with_capacity(epoch as usize) // seeded: topology epoch is peer-controlled
}

fn sanitized_epoch_reserve(buf: &mut Bytes, current: u64) -> Option<u64> {
    let epoch = buf.get_u64_le();
    if epoch != current {
        return None; // stale or future epoch: drop, never size anything by it
    }
    Some(epoch)
}

fn tainted_frame_len(prefix: &mut &[u8], read_buf: &mut Vec<u8>) {
    let frame_len = prefix.get_u32_le() as usize;
    read_buf.resize(4 + frame_len, 0); // seeded: read buffer sized by a raw length prefix
}

fn sanitized_frame_len(prefix: &mut &[u8], read_buf: &mut Vec<u8>) -> Option<()> {
    let frame_len = prefix.get_u32_le() as usize;
    if frame_len > MAX_FRAME {
        return None;
    }
    read_buf.resize(4 + frame_len, 0);
    Some(())
}

fn allowed_without_reason(buf: &mut Bytes) -> Vec<u8> {
    let len = buf.get_u32_le() as usize;
    // analyzer:allow(wire-taint)
    vec![0u8; len]
}
