//! Client library for connecting to broker nodes over a transport
//! (TCP by default; see [`Client::connect_via`] for others).

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use linkcast_types::{ClientId, Event, SchemaId, SchemaRegistry, SubscriptionId};

use crate::counters::NodeCounters;
use crate::protocol::{BrokerToClient, ClientToBroker, ProtocolError, FRAME_PREFIX};
use crate::tcp::TcpTransport;
use crate::transport::{FrameBatch, FrameReader, LinkWriter, Polled, Transport};

/// Errors from the client library.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure.
    Io(std::io::Error),
    /// The broker sent something undecodable or out of protocol.
    Protocol(String),
    /// The broker answered a request with an `Error` frame.
    Rejected(String),
    /// No message arrived within the allotted time.
    Timeout,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Rejected(msg) => write!(f, "request rejected: {msg}"),
            ClientError::Timeout => write!(f, "timed out waiting for the broker"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A connected pub/sub client.
///
/// Connecting identifies the (pre-provisioned) [`ClientId`] and optionally
/// resumes a previous session: the broker replays every event logged while
/// the client was away. [`Client::ack`] (or the auto-ack inside
/// [`Client::recv`]) lets the broker's garbage collector trim the log.
pub struct Client {
    /// Write half of the connection.
    writer: Arc<dyn LinkWriter>,
    /// Read half (a handle on the same stream): a burst of deliveries
    /// arrives in one underlying read.
    reader: FrameReader,
    /// Frames of the last read that `read_message` has yet to return.
    unread: FrameBatch,
    registry: Arc<SchemaRegistry>,
    client: ClientId,
    /// Delivered-but-unreturned events (e.g. received while waiting for a
    /// subscription ack).
    inbox: VecDeque<(u64, Event)>,
    /// Highest sequence number returned to the application.
    last_seq: u64,
    /// The cursor the broker actually resumed from (the `Welcome` echo).
    resumed_from: u64,
}

impl Client {
    /// Connects and performs the hello handshake. `resume_from` is the last
    /// sequence number safely processed in a previous session (0 for a
    /// fresh one).
    ///
    /// # Errors
    ///
    /// Connection errors, a rejected hello, or protocol violations.
    pub fn connect(
        addr: SocketAddr,
        client: ClientId,
        resume_from: u64,
        registry: Arc<SchemaRegistry>,
    ) -> Result<Client, ClientError> {
        Client::connect_via(&TcpTransport, addr, client, resume_from, registry)
    }

    /// Like [`Client::connect`], but over an explicit [`Transport`] — one
    /// that wraps TCP to count or trace what the socket does, say.
    ///
    /// # Errors
    ///
    /// See [`Client::connect`].
    pub fn connect_via(
        transport: &dyn Transport,
        addr: SocketAddr,
        client: ClientId,
        resume_from: u64,
        registry: Arc<SchemaRegistry>,
    ) -> Result<Client, ClientError> {
        let connection = transport.dial(addr)?;
        let mut c = Client {
            writer: connection.writer,
            reader: FrameReader::new(connection.reader),
            unread: FrameBatch::default(),
            registry,
            client,
            inbox: VecDeque::new(),
            last_seq: resume_from,
            resumed_from: 0,
        };
        c.send(&ClientToBroker::Hello {
            client,
            resume_from,
        })?;
        match c.read_message(Duration::from_secs(5))? {
            BrokerToClient::Welcome {
                client: echoed,
                resume_from: resumed,
            } if echoed == client => {
                c.resumed_from = resumed;
                Ok(c)
            }
            BrokerToClient::Error { message } => Err(ClientError::Rejected(message)),
            other => Err(ClientError::Protocol(format!(
                "expected welcome, got {other:?}"
            ))),
        }
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.client
    }

    /// Highest sequence number the application has consumed.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// The cursor this session actually resumed from — the broker's echo
    /// of the `resume_from` handshake field after clamping it to the
    /// delivery log. It can sit *above* the requested cursor (the
    /// requested events were acknowledged and trimmed, so they cannot
    /// replay) or *below* it (the requested cursor overshot the log, e.g.
    /// against a broker whose crash-recovery rebuilt an empty log —
    /// client delivery logs are volatile; DESIGN.md §14). Either gap
    /// tells the application exactly which deliveries no replay covers.
    pub fn resumed_from(&self) -> u64 {
        self.resumed_from
    }

    /// Registers a subscription and waits for the broker's acknowledgment.
    ///
    /// # Errors
    ///
    /// A rejected expression ([`ClientError::Rejected`]) or transport
    /// errors.
    pub fn subscribe(
        &mut self,
        schema: SchemaId,
        expression: &str,
    ) -> Result<SubscriptionId, ClientError> {
        self.send(&ClientToBroker::Subscribe {
            schema,
            expression: expression.to_string(),
        })?;
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match self.read_message(deadline.saturating_duration_since(Instant::now()))? {
                BrokerToClient::SubAck { id } => return Ok(id),
                BrokerToClient::Error { message } => return Err(ClientError::Rejected(message)),
                BrokerToClient::Deliver { seq, event } => {
                    self.inbox.push_back((seq, event));
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "expected subscription ack, got {other:?}"
                    )))
                }
            }
        }
    }

    /// Removes a subscription and waits for the acknowledgment.
    ///
    /// # Errors
    ///
    /// See [`Client::subscribe`].
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> Result<(), ClientError> {
        self.send(&ClientToBroker::Unsubscribe { id })?;
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match self.read_message(deadline.saturating_duration_since(Instant::now()))? {
                BrokerToClient::UnsubAck { id: echoed } if echoed == id => return Ok(()),
                BrokerToClient::Error { message } => return Err(ClientError::Rejected(message)),
                BrokerToClient::Deliver { seq, event } => {
                    self.inbox.push_back((seq, event));
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "expected unsubscription ack, got {other:?}"
                    )))
                }
            }
        }
    }

    /// Publishes an event (fire-and-forget, like the paper's prototype).
    ///
    /// # Errors
    ///
    /// Transport errors only; matching problems surface as `Error` frames
    /// on a later receive.
    pub fn publish(&mut self, event: &Event) -> Result<(), ClientError> {
        // Stitch the frame directly around one event serialization instead
        // of cloning the event into a protocol enum.
        let body = crate::protocol::encode_event_body(event);
        // Reject events whose encoding could not survive re-stitching as a
        // `Forward`/`Deliver` frame: an unchecked length would truncate the
        // `u32` header and desync the stream for every later frame.
        crate::protocol::check_event_body(body.len())
            .map_err(|e| ClientError::Protocol(e.to_string()))?;
        let frame = crate::protocol::publish_frame(&body);
        self.writer.write_batch(&[frame])?;
        Ok(())
    }

    /// Receives the next matched event, waiting up to `timeout`. The
    /// delivery is auto-acknowledged (see [`Client::ack`] for manual
    /// control — acks here are cumulative and sent eagerly).
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] if nothing arrives, plus transport and
    /// protocol errors.
    pub fn recv(&mut self, timeout: Duration) -> Result<(u64, Event), ClientError> {
        let (seq, event) = self.recv_unacked(timeout)?;
        self.ack(seq)?;
        Ok((seq, event))
    }

    /// Like [`Client::recv`] but without sending an acknowledgment — the
    /// broker keeps the event in this client's log until [`Client::ack`].
    ///
    /// # Errors
    ///
    /// See [`Client::recv`].
    pub fn recv_unacked(&mut self, timeout: Duration) -> Result<(u64, Event), ClientError> {
        if let Some((seq, event)) = self.inbox.pop_front() {
            self.last_seq = self.last_seq.max(seq);
            return Ok((seq, event));
        }
        match self.read_message(timeout)? {
            BrokerToClient::Deliver { seq, event } => {
                self.last_seq = self.last_seq.max(seq);
                Ok((seq, event))
            }
            BrokerToClient::Error { message } => Err(ClientError::Rejected(message)),
            other => Err(ClientError::Protocol(format!(
                "unexpected message while receiving: {other:?}"
            ))),
        }
    }

    /// Sends a cumulative acknowledgment for every delivery up to `seq`.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn ack(&mut self, seq: u64) -> Result<(), ClientError> {
        self.send(&ClientToBroker::Ack { seq })
    }

    /// Fetches the broker's counters.
    ///
    /// # Errors
    ///
    /// Transport and protocol errors.
    pub fn stats(&mut self) -> Result<NodeCounters, ClientError> {
        self.send(&ClientToBroker::StatsRequest)?;
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match self.read_message(deadline.saturating_duration_since(Instant::now()))? {
                BrokerToClient::Stats(counters) => return Ok(counters),
                BrokerToClient::Deliver { seq, event } => {
                    self.inbox.push_back((seq, event));
                }
                BrokerToClient::Error { message } => return Err(ClientError::Rejected(message)),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "expected stats, got {other:?}"
                    )))
                }
            }
        }
    }

    fn send(&mut self, message: &ClientToBroker) -> Result<(), ClientError> {
        let frame = message.encode();
        // `encode` writes `payload.len() as u32` — past `MAX_FRAME` the
        // header would silently truncate (frame.len() counts the real
        // payload, so the check works even after the header wrapped).
        if frame.len().saturating_sub(FRAME_PREFIX) > crate::protocol::MAX_FRAME {
            return Err(ClientError::Protocol(
                ProtocolError::Oversized(frame.len() - FRAME_PREFIX).to_string(),
            ));
        }
        self.writer.write_batch(&[frame])?;
        Ok(())
    }

    /// Reads the next broker message, waiting at most `timeout`.
    fn read_message(&mut self, timeout: Duration) -> Result<BrokerToClient, ClientError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(frame) = self.unread.next() {
                return BrokerToClient::decode(frame.slice(FRAME_PREFIX..), &self.registry)
                    .map_err(|e| ClientError::Protocol(e.to_string()));
            }
            match self.reader.poll()? {
                Polled::Frames(batch) => self.unread = batch,
                Polled::Idle => {
                    if Instant::now() >= deadline {
                        return Err(ClientError::Timeout);
                    }
                }
                Polled::Closed => {
                    return Err(ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "peer closed the connection",
                    )))
                }
            }
        }
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("client", &self.client)
            .field("last_seq", &self.last_seq)
            .finish_non_exhaustive()
    }
}
