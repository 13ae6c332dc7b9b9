//! Transport-agnostic session state machine for the live ingest plane.
//!
//! A connection's lifecycle is `hello → stream-id claim → framed data /
//! keepalives → bye`. [`SessionMachine`] implements the server side of
//! that handshake over raw bytes — feed it whatever the socket produced
//! (as refcounted [`Bytes`], so DATA chunks come back as slices of the
//! read itself), collect [`SessionEvent`]s and outbound reply bytes.
//! Keeping the machine free of any socket types (modeled on rust-media-libs'
//! transport-agnostic session design) means the whole protocol is unit
//! testable without a network, and the nonblocking server in
//! [`crate::server`] stays a thin reactor.
//!
//! The machine deliberately knows nothing about stream health: a
//! misbehaving *connection* is rejected here, but a misbehaving *stream*
//! (late, corrupt, silent) is the quarantine lifecycle's job downstream.
//! See DESIGN.md D10.

use crate::wire::{self, FrameDecoder, WireError};
use bytes::Bytes;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Where a reconnecting client should resume, as answered at CLAIM time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumePoint {
    /// Whether the server still needs the stream header chunk.
    pub header_needed: bool,
    /// First round the server has not yet ingested for this stream.
    pub next_round: u64,
}

impl ResumePoint {
    /// Resume point for a stream the server has never seen.
    pub fn fresh() -> Self {
        ResumePoint {
            header_needed: true,
            next_round: 0,
        }
    }
}

/// Answers "where should stream N resume?" at claim time. The pipeline's
/// ingest bridge implements this over its per-stream delivery cursors so
/// a reconnect within the grace window resumes without a round gap.
pub trait ResumeOracle: Send + Sync {
    /// Resume point for `stream_id`; called while handling CLAIM.
    fn resume_point(&self, stream_id: u32) -> ResumePoint;
}

/// Events a session machine emits as it digests inbound bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionEvent {
    /// Handshake finished: the connection now speaks for `stream_id`.
    Claimed {
        /// Stream index this connection claimed.
        stream_id: u32,
        /// Resume point handed back to the client in CLAIM_ACK.
        resume: ResumePoint,
    },
    /// Stream header chunk arrived.
    Header {
        /// Header bytes, refcounted, sliced without copying.
        chunk: Bytes,
    },
    /// One round of framed bitstream arrived.
    Data {
        /// Round the client tagged the chunk with.
        round: u64,
        /// Chunk bytes (zero-copy slice of the frame payload).
        chunk: Bytes,
    },
    /// Liveness ping.
    Keepalive,
    /// Client said goodbye; the connection is done, gracefully.
    Bye,
}

/// Protocol violations that terminate a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// Framing-layer failure (bad length field).
    Wire(WireError),
    /// HELLO had the wrong magic number.
    BadMagic(u32),
    /// HELLO asked for an unsupported protocol version.
    BadVersion(u16),
    /// A frame arrived in a state that does not allow it.
    UnexpectedFrame {
        /// Frame type byte that arrived.
        frame_type: u8,
        /// Human-readable machine state at the time.
        state: &'static str,
    },
    /// A payload was too short for its advertised frame type.
    ShortPayload(u8),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Wire(e) => write!(f, "framing error: {e}"),
            SessionError::BadMagic(m) => write!(f, "bad hello magic {m:#010x}"),
            SessionError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            SessionError::UnexpectedFrame { frame_type, state } => {
                write!(f, "unexpected frame {frame_type:#04x} in state {state}")
            }
            SessionError::ShortPayload(t) => write!(f, "short payload for frame {t:#04x}"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MachineState {
    AwaitHello,
    AwaitClaim,
    Streaming(u32),
    Closed,
}

impl MachineState {
    fn name(self) -> &'static str {
        match self {
            MachineState::AwaitHello => "await_hello",
            MachineState::AwaitClaim => "await_claim",
            MachineState::Streaming(_) => "streaming",
            MachineState::Closed => "closed",
        }
    }
}

/// Server-side session state machine: bytes in, events + reply bytes out.
pub struct SessionMachine {
    state: MachineState,
    /// Stream id claimed by this connection; survives the transition to
    /// `Closed` so events drained after a BYE (and the final
    /// `SessionDown`) still attribute to the right stream.
    claimed: Option<u32>,
    decoder: FrameDecoder,
    frames: Vec<(u8, Bytes)>,
}

impl SessionMachine {
    /// New machine awaiting the client HELLO.
    pub fn new() -> Self {
        SessionMachine {
            state: MachineState::AwaitHello,
            claimed: None,
            decoder: FrameDecoder::new(),
            frames: Vec::new(),
        }
    }

    /// Stream id this connection claimed, once handshaken.
    pub fn stream_id(&self) -> Option<u32> {
        self.claimed
    }

    /// Whether the client has said BYE.
    pub fn is_closed(&self) -> bool {
        self.state == MachineState::Closed
    }

    /// Digest one read's worth of `input`. Completed events are appended
    /// to `events`; reply bytes (HELLO_ACK / CLAIM_ACK) are appended to
    /// `outbound`. Returns how many whole frames the read completed. On
    /// error the connection must be dropped (optionally after writing
    /// [`reject_frame`]).
    pub fn feed(
        &mut self,
        input: Bytes,
        oracle: Option<&dyn ResumeOracle>,
        events: &mut Vec<SessionEvent>,
        outbound: &mut Vec<u8>,
    ) -> Result<usize, SessionError> {
        let mut frames = std::mem::take(&mut self.frames);
        self.decoder
            .push_bytes(input, &mut frames)
            .map_err(SessionError::Wire)?;
        let decoded = frames.len();
        for (frame_type, payload) in frames.drain(..) {
            self.handle_frame(frame_type, payload, oracle, events, outbound)?;
        }
        self.frames = frames;
        Ok(decoded)
    }

    fn handle_frame(
        &mut self,
        frame_type: u8,
        payload: Bytes,
        oracle: Option<&dyn ResumeOracle>,
        events: &mut Vec<SessionEvent>,
        outbound: &mut Vec<u8>,
    ) -> Result<(), SessionError> {
        match (self.state, frame_type) {
            (MachineState::AwaitHello, wire::FT_HELLO) => {
                let magic = wire::read_u32(&payload)
                    .ok_or(SessionError::ShortPayload(frame_type))?;
                if magic != wire::MAGIC {
                    return Err(SessionError::BadMagic(magic));
                }
                let version = payload
                    .get(4..6)
                    .map(|b| u16::from_le_bytes([b[0], b[1]]))
                    .ok_or(SessionError::ShortPayload(frame_type))?;
                if version != wire::VERSION {
                    return Err(SessionError::BadVersion(version));
                }
                wire::encode_frame_into(
                    outbound,
                    wire::FT_HELLO_ACK,
                    &wire::VERSION.to_le_bytes(),
                );
                self.state = MachineState::AwaitClaim;
                Ok(())
            }
            (MachineState::AwaitClaim, wire::FT_CLAIM) => {
                let stream_id = wire::read_u32(&payload)
                    .ok_or(SessionError::ShortPayload(frame_type))?;
                let resume_hint = wire::read_u64(&payload, 4)
                    .ok_or(SessionError::ShortPayload(frame_type))?;
                let resume = match oracle {
                    Some(o) => o.resume_point(stream_id),
                    None => ResumePoint {
                        header_needed: true,
                        next_round: resume_hint,
                    },
                };
                let mut ack = Vec::with_capacity(13);
                ack.extend_from_slice(&stream_id.to_le_bytes());
                ack.push(resume.header_needed as u8);
                ack.extend_from_slice(&resume.next_round.to_le_bytes());
                wire::encode_frame_into(outbound, wire::FT_CLAIM_ACK, &ack);
                self.state = MachineState::Streaming(stream_id);
                self.claimed = Some(stream_id);
                events.push(SessionEvent::Claimed { stream_id, resume });
                Ok(())
            }
            (MachineState::Streaming(_), wire::FT_HEADER) => {
                events.push(SessionEvent::Header { chunk: payload });
                Ok(())
            }
            (MachineState::Streaming(_), wire::FT_DATA) => {
                let round = wire::read_u64(&payload, 0)
                    .ok_or(SessionError::ShortPayload(frame_type))?;
                events.push(SessionEvent::Data {
                    round,
                    chunk: payload.slice(8..),
                });
                Ok(())
            }
            (MachineState::Streaming(_) | MachineState::AwaitClaim, wire::FT_KEEPALIVE) => {
                events.push(SessionEvent::Keepalive);
                Ok(())
            }
            (_, wire::FT_BYE) => {
                self.state = MachineState::Closed;
                events.push(SessionEvent::Bye);
                Ok(())
            }
            (state, frame_type) => Err(SessionError::UnexpectedFrame {
                frame_type,
                state: state.name(),
            }),
        }
    }
}

impl Default for SessionMachine {
    fn default() -> Self {
        Self::new()
    }
}

/// Build a REJECT frame for a connection the server is about to drop.
pub fn reject_frame(code: u8, message: &str) -> Vec<u8> {
    let mut p = Vec::with_capacity(1 + message.len());
    p.push(code);
    p.extend_from_slice(message.as_bytes());
    wire::encode_frame(wire::FT_REJECT, &p)
}

/// Session-plane counters shared between the server threads, the ingest
/// bridge, and telemetry/Prometheus export. All monotonic except
/// `active` / `queue_depth` (gauges).
#[derive(Debug, Default)]
pub struct SessionCounters {
    /// TCP connections accepted.
    pub accepted: AtomicU64,
    /// Connections that completed the hello→claim handshake.
    pub handshakes: AtomicU64,
    /// Handshakes that resumed an already-started stream (next_round > 0).
    pub resumed: AtomicU64,
    /// Currently open connections (gauge).
    pub active: AtomicU64,
    /// High-water mark of `active`.
    pub peak_active: AtomicU64,
    /// Connections that ended (any reason).
    pub disconnects: AtomicU64,
    /// Connections refused (capacity or handshake rejection).
    pub rejected: AtomicU64,
    /// Sessions dropped for protocol violations.
    pub protocol_errors: AtomicU64,
    /// Raw bytes read off sockets.
    pub bytes_rx: AtomicU64,
    /// Whole frames decoded.
    pub frames_rx: AtomicU64,
    /// DATA frames decoded.
    pub data_chunks: AtomicU64,
    /// KEEPALIVE frames decoded.
    pub keepalives: AtomicU64,
    /// Socket reads that found nothing (`WouldBlock`): ≈ 0 under a
    /// readiness-driven server, one per connection per pass under a scan.
    pub empty_reads: AtomicU64,
    /// Waits the ingest threads spent not reading because the event queue
    /// was over the hi-watermark (backpressure engaged).
    pub backpressure_pauses: AtomicU64,
    /// Events queued towards the ingest bridge but not yet consumed
    /// (gauge; drives the backpressure hi-watermark).
    pub queue_depth: AtomicI64,
}

impl SessionCounters {
    /// Fresh zeroed counter block behind an `Arc`.
    pub fn new() -> std::sync::Arc<Self> {
        std::sync::Arc::new(SessionCounters::default())
    }

    /// Record a connection opening; maintains the peak gauge.
    pub fn connection_opened(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        let now = self.active.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_active.fetch_max(now, Ordering::Relaxed);
    }

    /// Record a connection closing.
    pub fn connection_closed(&self) {
        self.active.fetch_sub(1, Ordering::Relaxed);
        self.disconnects.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{
        claim_payload, data_payload, encode_frame, hello_payload, FT_BYE, FT_CLAIM, FT_DATA,
        FT_HELLO, FT_KEEPALIVE,
    };

    struct FixedOracle(ResumePoint);
    impl ResumeOracle for FixedOracle {
        fn resume_point(&self, _stream_id: u32) -> ResumePoint {
            self.0
        }
    }

    #[test]
    fn full_handshake_then_data_then_bye() {
        let mut m = SessionMachine::new();
        let mut events = Vec::new();
        let mut out = Vec::new();
        let mut input = Vec::new();
        input.extend_from_slice(&encode_frame(FT_HELLO, &hello_payload()));
        input.extend_from_slice(&encode_frame(FT_CLAIM, &claim_payload(5, 0)));
        input.extend_from_slice(&encode_frame(FT_DATA, &data_payload(2, &[7, 8, 9])));
        input.extend_from_slice(&encode_frame(FT_KEEPALIVE, &[]));
        input.extend_from_slice(&encode_frame(FT_BYE, &[]));
        m.feed(input.into(), None, &mut events, &mut out).unwrap();
        assert_eq!(events.len(), 4);
        match &events[0] {
            SessionEvent::Claimed { stream_id, resume } => {
                assert_eq!(*stream_id, 5);
                assert!(resume.header_needed);
            }
            other => panic!("expected Claimed, got {other:?}"),
        }
        match &events[1] {
            SessionEvent::Data { round, chunk } => {
                assert_eq!(*round, 2);
                assert_eq!(&chunk[..], &[7, 8, 9]);
            }
            other => panic!("expected Data, got {other:?}"),
        }
        assert_eq!(events[2], SessionEvent::Keepalive);
        assert_eq!(events[3], SessionEvent::Bye);
        assert!(m.is_closed());
        // Replies: HELLO_ACK then CLAIM_ACK.
        let mut dec = FrameDecoder::new();
        let mut replies = Vec::new();
        dec.push(&out, &mut replies).unwrap();
        assert_eq!(replies.len(), 2);
        assert_eq!(replies[0].0, wire::FT_HELLO_ACK);
        assert_eq!(replies[1].0, wire::FT_CLAIM_ACK);
    }

    #[test]
    fn oracle_resume_point_is_echoed_in_claim_ack() {
        let oracle = FixedOracle(ResumePoint {
            header_needed: false,
            next_round: 17,
        });
        let mut m = SessionMachine::new();
        let mut events = Vec::new();
        let mut out = Vec::new();
        let mut input = Vec::new();
        input.extend_from_slice(&encode_frame(FT_HELLO, &hello_payload()));
        input.extend_from_slice(&encode_frame(FT_CLAIM, &claim_payload(3, 0)));
        m.feed(input.into(), Some(&oracle), &mut events, &mut out)
            .unwrap();
        let mut dec = FrameDecoder::new();
        let mut replies = Vec::new();
        dec.push(&out, &mut replies).unwrap();
        let ack = &replies[1].1;
        assert_eq!(wire::read_u32(ack), Some(3));
        assert_eq!(ack[4], 0, "header_needed false");
        assert_eq!(wire::read_u64(ack, 5), Some(17));
        assert_eq!(m.stream_id(), Some(3));
    }

    #[test]
    fn data_before_handshake_is_a_protocol_error() {
        let mut m = SessionMachine::new();
        let mut events = Vec::new();
        let mut out = Vec::new();
        let input = encode_frame(FT_DATA, &data_payload(0, &[1]));
        let err = m.feed(input.into(), None, &mut events, &mut out).unwrap_err();
        assert!(matches!(err, SessionError::UnexpectedFrame { .. }));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut m = SessionMachine::new();
        let mut events = Vec::new();
        let mut out = Vec::new();
        let mut bad = hello_payload();
        bad[0] ^= 0xff;
        let err = m
            .feed(encode_frame(FT_HELLO, &bad).into(), None, &mut events, &mut out)
            .unwrap_err();
        assert!(matches!(err, SessionError::BadMagic(_)));
    }
}
