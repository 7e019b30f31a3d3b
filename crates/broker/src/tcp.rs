//! The default transport: blocking `std::net` TCP.
//!
//! Implements the [`crate::transport`] traits over OS sockets. Every
//! connection gets `TCP_NODELAY` plus a 200 ms read timeout (the quantum
//! the reader contract requires so threads can poll shutdown flags), and
//! the read half is a `try_clone` of the same socket — shutting the write
//! half down with `Shutdown::Both` is what unblocks it.

use std::io::{self, IoSlice, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use crate::transport::{Connection, LinkWriter, Listener, Transport};

/// The default [`Transport`]: blocking TCP over `std::net`, matching the
/// paper's prototype (OS threads, kernel sockets, no async runtime).
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpTransport;

impl Transport for TcpTransport {
    fn bind(&self, addr: SocketAddr) -> io::Result<Box<dyn Listener>> {
        Ok(Box::new(TcpAcceptor(TcpListener::bind(addr)?)))
    }

    fn dial(&self, addr: SocketAddr) -> io::Result<Connection> {
        tcp_connection(TcpStream::connect(addr)?)
    }
}

struct TcpAcceptor(TcpListener);

impl Listener for TcpAcceptor {
    fn accept(&self) -> io::Result<Connection> {
        let (stream, _peer) = self.0.accept()?;
        tcp_connection(stream)
    }

    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.0.local_addr()
    }
}

/// Applies the per-connection options the broker relies on (nodelay for
/// latency, the 200 ms read-quantum timeout) and splits the socket into
/// the reader/writer halves via `try_clone` (same fd, so a `shutdown`
/// on the writer unblocks the reader).
fn tcp_connection(stream: TcpStream) -> io::Result<Connection> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    let reader = stream.try_clone()?;
    Ok(Connection {
        reader: Box::new(reader),
        writer: Arc::new(TcpWriter(stream)),
    })
}

/// The TCP write half (the outbox's sink).
pub(crate) struct TcpWriter(pub(crate) TcpStream);

impl LinkWriter for TcpWriter {
    fn write_batch(&self, batch: &[Bytes]) -> io::Result<()> {
        write_vectored_all(&mut &self.0, batch)
    }

    fn shutdown(&self) {
        let _ = self.0.shutdown(Shutdown::Both);
    }

    fn set_write_timeout(&self, timeout: Option<Duration>) {
        // Best effort: a socket we cannot time-stamp still works, it just
        // loses the stalled-writer protection.
        let _ = self.0.set_write_timeout(timeout);
    }
}

/// Writes every buffer in `batch` with vectored I/O, advancing through
/// partial writes. One syscall per drain batch in the common case, versus
/// one per frame with `write_all`.
#[expect(
    clippy::indexing_slicing,
    reason = "idx < batch.len() is the loop condition and off < batch[idx].len() its invariant, \
              so idx + 1 <= batch.len() and the tail slice is at worst empty"
)]
fn write_vectored_all(stream: &mut impl Write, batch: &[Bytes]) -> io::Result<()> {
    let mut idx = 0; // first buffer not fully written
    let mut off = 0; // bytes of batch[idx] already written
    while idx < batch.len() {
        let first = IoSlice::new(&batch[idx][off..]);
        let rest = batch[idx + 1..].iter().map(|b| IoSlice::new(b));
        let slices: Vec<IoSlice<'_>> = std::iter::once(first).chain(rest).collect();
        let mut n = stream.write_vectored(&slices)?;
        if n == 0 {
            return Err(io::ErrorKind::WriteZero.into());
        }
        while idx < batch.len() {
            let remaining = batch[idx].len() - off;
            if n >= remaining {
                n -= remaining;
                idx += 1;
                off = 0;
            } else {
                off += n;
                break;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vectored_writer_survives_partial_writes() {
        struct Dribble(Vec<u8>);
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                // Accept at most 3 bytes per call.
                let n = buf.len().min(3);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
                let first = bufs.iter().find(|b| !b.is_empty()).map_or(&[][..], |b| b);
                self.write(first)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let batch = [
            Bytes::from_static(b"hello"),
            Bytes::from_static(b""),
            Bytes::from_static(b"world!"),
        ];
        let mut sink = Dribble(Vec::new());
        write_vectored_all(&mut sink, &batch).unwrap();
        assert_eq!(sink.0, b"helloworld!");
    }
}
