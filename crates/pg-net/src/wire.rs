//! Length-framed wire protocol for the live ingest plane.
//!
//! Every message on a session connection is a frame:
//!
//! ```text
//! [len: u32 LE] [type: u8] [payload: len-1 bytes]
//! ```
//!
//! `len` counts the type byte plus the payload, so an empty-payload frame
//! has `len == 1`. The decoder does not own payload memory: a DATA frame
//! that arrives whole inside one read is handed out as a refcounted
//! [`Bytes`] slice of that read (the server reads into a shared slab, so
//! the slice *is* the socket buffer), and downstream consumers slice into
//! it again without copying — the parser→gate→decode path stays zero-copy
//! end to end (`bytes::deep_copy_count()` audits this). Only a frame that
//! straddles two reads is accumulated into a buffer of its own, and the
//! rare long-lived payloads (HEADER, MIGRATE, handshake) are copied out
//! to exact size so they cannot pin a slab.
//!
//! Client→server frame types: HELLO, CLAIM, HEADER, DATA, KEEPALIVE, BYE.
//! Server→client: HELLO_ACK, CLAIM_ACK, REJECT. Cluster coordination
//! reuses the same framing: MIGRATE carries a serialized stream-policy
//! state between gate instances and MIGRATE_ACK confirms the handoff.
//! Payload layouts are documented on the constructor helpers below; all
//! integers are little-endian.

use bytes::Bytes;

/// Magic number opening every HELLO payload: ASCII "PGL1".
pub const MAGIC: u32 = 0x5047_4c31;
/// Protocol version carried in HELLO / HELLO_ACK.
pub const VERSION: u16 = 1;
/// Hard cap on `len`; anything larger is a protocol error and the
/// connection is rejected before allocating.
pub const MAX_FRAME: usize = 1 << 20;

/// Client→server: session hello. Payload: magic u32, version u16.
pub const FT_HELLO: u8 = 0x01;
/// Client→server: claim a stream id. Payload: stream_id u32, resume_hint u64.
pub const FT_CLAIM: u8 = 0x02;
/// Client→server: stream header bytes (the pg-codec stream preamble).
pub const FT_HEADER: u8 = 0x03;
/// Client→server: one round of framed bitstream. Payload: round u64, chunk.
pub const FT_DATA: u8 = 0x04;
/// Client→server: liveness ping; empty payload.
pub const FT_KEEPALIVE: u8 = 0x05;
/// Client→server: graceful goodbye; empty payload.
pub const FT_BYE: u8 = 0x06;
/// Coordinator→instance: stream handoff (cluster migration). Payload:
/// stream_id u32, epoch u64, then the serialized policy state (an opaque
/// blob to this layer; the gate crate owns its schema).
pub const FT_MIGRATE: u8 = 0x07;
/// Instance→coordinator: handoff accepted. Payload: stream_id u32,
/// epoch u64.
pub const FT_MIGRATE_ACK: u8 = 0x84;
/// Server→client: hello accepted. Payload: version u16.
pub const FT_HELLO_ACK: u8 = 0x81;
/// Server→client: claim accepted. Payload: stream_id u32,
/// header_needed u8, next_round u64.
pub const FT_CLAIM_ACK: u8 = 0x82;
/// Server→client: connection refused. Payload: code u8, utf-8 message.
pub const FT_REJECT: u8 = 0x83;

/// Encode one frame (header + type + payload) into a fresh buffer.
pub fn encode_frame(frame_type: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + payload.len());
    encode_frame_into(&mut out, frame_type, payload);
    out
}

/// Append a frame's length field and type byte; `payload_len` bytes of
/// payload must follow.
fn begin_frame(out: &mut Vec<u8>, frame_type: u8, payload_len: usize) {
    let len = payload_len + 1;
    debug_assert!(len <= MAX_FRAME, "frame payload exceeds MAX_FRAME");
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.push(frame_type);
}

/// Append one frame to an existing buffer (batched client writes).
pub fn encode_frame_into(out: &mut Vec<u8>, frame_type: u8, payload: &[u8]) {
    begin_frame(out, frame_type, payload.len());
    out.extend_from_slice(payload);
}

/// Append one DATA frame — length, type, round tag, chunk — straight to
/// `out`, with no intermediate payload buffer.
pub fn encode_data_frame_into(out: &mut Vec<u8>, round: u64, chunk: &[u8]) {
    begin_frame(out, FT_DATA, 8 + chunk.len());
    out.extend_from_slice(&round.to_le_bytes());
    out.extend_from_slice(chunk);
}

/// Errors the frame decoder can surface; all of them are fatal for the
/// connection that produced the bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Frame length field exceeded [`MAX_FRAME`] (or was zero).
    BadLength(u32),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadLength(len) => write!(f, "bad frame length {len}"),
        }
    }
}

#[derive(Clone, Copy)]
enum DecodeState {
    /// Accumulating the 5-byte header (len u32 + type u8).
    Header,
    /// Filling the payload buffer for a known frame type.
    Body { frame_type: u8, need: usize },
}

/// Incremental frame decoder: push raw socket bytes, pop whole frames.
///
/// Allocation-free for DATA frames that arrive whole within one read
/// ([`FrameDecoder::push_bytes`] slices them out of the read itself); a
/// connection pins at most one straddle buffer, never above [`MAX_FRAME`].
pub struct FrameDecoder {
    state: DecodeState,
    header: [u8; 5],
    header_len: usize,
    body: Vec<u8>,
}

impl FrameDecoder {
    /// Fresh decoder expecting a frame header.
    pub fn new() -> Self {
        FrameDecoder {
            state: DecodeState::Header,
            header: [0; 5],
            header_len: 0,
            body: Vec::new(),
        }
    }

    /// Consume `input`, appending every completed `(type, payload)` frame
    /// to `out`. Returns an error on a malformed length field; the
    /// decoder must be discarded (along with the connection) after that.
    ///
    /// The borrowed read is materialized once and DATA payloads are
    /// slices of that copy; a caller that owns its read buffer uses
    /// [`push_bytes`](Self::push_bytes) and skips the copy.
    pub fn push(&mut self, input: &[u8], out: &mut Vec<(u8, Bytes)>) -> Result<(), WireError> {
        self.push_bytes(Bytes::from(input.to_vec()), out)
    }

    /// [`push`](Self::push) for a read the caller already holds as
    /// refcounted bytes (a frozen slab region): DATA payloads that lie
    /// whole inside `input` are slices of it — no copy, no allocation.
    pub fn push_bytes(&mut self, input: Bytes, out: &mut Vec<(u8, Bytes)>) -> Result<(), WireError> {
        let mut pos = 0;
        while let Some(rest) = input.get(pos..).filter(|r| !r.is_empty()) {
            match self.state {
                DecodeState::Header => {
                    let take = (5 - self.header_len).min(rest.len());
                    self.header[self.header_len..self.header_len + take]
                        .copy_from_slice(&rest[..take]);
                    self.header_len += take;
                    pos += take;
                    if self.header_len < 5 {
                        continue;
                    }
                    self.header_len = 0;
                    let [l0, l1, l2, l3, frame_type] = self.header;
                    let len = u32::from_le_bytes([l0, l1, l2, l3]);
                    if len == 0 || len as usize > MAX_FRAME {
                        return Err(WireError::BadLength(len));
                    }
                    let need = len as usize - 1;
                    match input.get(pos..pos + need) {
                        Some([]) => out.push((frame_type, Bytes::new())),
                        // Whole payload inside this read. Only DATA stays
                        // a view of it: everything else is rare and may
                        // be kept for the stream's lifetime, so it gets
                        // its own exact-size buffer.
                        Some(_) if frame_type == FT_DATA => {
                            out.push((frame_type, input.slice(pos..pos + need)));
                            pos += need;
                        }
                        Some(payload) => {
                            out.push((frame_type, Bytes::from(payload.to_vec())));
                            pos += need;
                        }
                        // Straddles into the next read: accumulate.
                        None => {
                            self.body = Vec::with_capacity(need);
                            self.state = DecodeState::Body { frame_type, need };
                        }
                    }
                }
                DecodeState::Body { frame_type, need } => {
                    let take = (need - self.body.len()).min(rest.len());
                    self.body.extend_from_slice(&rest[..take]);
                    pos += take;
                    if self.body.len() == need {
                        let payload = Bytes::from(std::mem::take(&mut self.body));
                        out.push((frame_type, payload));
                        self.state = DecodeState::Header;
                    }
                }
            }
        }
        Ok(())
    }
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

/// Build a HELLO payload.
pub fn hello_payload() -> Vec<u8> {
    let mut p = Vec::with_capacity(6);
    p.extend_from_slice(&MAGIC.to_le_bytes());
    p.extend_from_slice(&VERSION.to_le_bytes());
    p
}

/// Build a CLAIM payload.
pub fn claim_payload(stream_id: u32, resume_hint: u64) -> Vec<u8> {
    let mut p = Vec::with_capacity(12);
    p.extend_from_slice(&stream_id.to_le_bytes());
    p.extend_from_slice(&resume_hint.to_le_bytes());
    p
}

/// Build a DATA payload prefix (round tag); the chunk bytes follow.
pub fn data_payload(round: u64, chunk: &[u8]) -> Vec<u8> {
    let mut p = Vec::with_capacity(8 + chunk.len());
    p.extend_from_slice(&round.to_le_bytes());
    p.extend_from_slice(chunk);
    p
}

/// Build a MIGRATE payload: stream id, epoch, then the opaque serialized
/// policy state produced by the gate crate.
pub fn migrate_payload(stream_id: u32, epoch: u64, state: &[u8]) -> Vec<u8> {
    let mut p = claim_payload(stream_id, epoch);
    p.extend_from_slice(state);
    p
}

/// Split a MIGRATE payload into `(stream_id, epoch, state)`. The state
/// slice borrows the payload's refcounted buffer — no copy.
pub fn read_migrate(payload: &Bytes) -> Option<(u32, u64, Bytes)> {
    let stream_id = read_u32(payload)?;
    let epoch = read_u64(payload, 4)?;
    Some((stream_id, epoch, payload.slice(12..)))
}

/// Build a MIGRATE_ACK payload.
pub fn migrate_ack_payload(stream_id: u32, epoch: u64) -> Vec<u8> {
    claim_payload(stream_id, epoch)
}

/// Read a little-endian u32 from the front of a payload.
pub fn read_u32(payload: &[u8]) -> Option<u32> {
    payload
        .get(..4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// Read a little-endian u64 starting at `offset`.
pub fn read_u64(payload: &[u8], offset: usize) -> Option<u64> {
    payload.get(offset..offset + 8).map(|b| {
        u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_frames_across_arbitrary_splits() {
        let frames = vec![
            (FT_HELLO, hello_payload()),
            (FT_CLAIM, claim_payload(7, 42)),
            (FT_DATA, data_payload(3, &[1, 2, 3, 4, 5])),
            (FT_KEEPALIVE, Vec::new()),
            (FT_BYE, Vec::new()),
        ];
        let mut stream = Vec::new();
        for (t, p) in &frames {
            encode_frame_into(&mut stream, *t, p);
        }
        // Feed the byte stream in every possible single split point.
        for cut in 0..=stream.len() {
            let mut dec = FrameDecoder::new();
            let mut out = Vec::new();
            dec.push(&stream[..cut], &mut out).unwrap();
            dec.push(&stream[cut..], &mut out).unwrap();
            assert_eq!(out.len(), frames.len(), "split at {cut}");
            for ((t, p), (dt, dp)) in frames.iter().zip(&out) {
                assert_eq!(t, dt);
                assert_eq!(&p[..], &dp[..]);
            }
        }
    }

    #[test]
    fn oversized_length_is_rejected() {
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        let mut bad = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        bad.push(FT_DATA);
        assert!(dec.push(&bad, &mut out).is_err());
        let mut dec = FrameDecoder::new();
        let zero = [0u8, 0, 0, 0, FT_DATA];
        assert!(dec.push(&zero, &mut out).is_err());
    }

    #[test]
    fn migrate_frames_round_trip_with_opaque_state() {
        let state = b"{\"stream_idx\":42,\"fallback\":true}";
        let mut stream = Vec::new();
        encode_frame_into(&mut stream, FT_MIGRATE, &migrate_payload(42, 9, state));
        encode_frame_into(&mut stream, FT_MIGRATE_ACK, &migrate_ack_payload(42, 9));
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        dec.push(&stream, &mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, FT_MIGRATE);
        let before = bytes::deep_copy_count();
        let (stream_id, epoch, blob) = read_migrate(&out[0].1).expect("well-formed");
        assert_eq!((stream_id, epoch), (42, 9));
        assert_eq!(&blob[..], state);
        assert_eq!(bytes::deep_copy_count(), before, "state slice borrows");
        assert_eq!(out[1].0, FT_MIGRATE_ACK);
        assert_eq!(read_u32(&out[1].1), Some(42));
        assert_eq!(read_u64(&out[1].1, 4), Some(9));
        // Truncated payloads are rejected, not sliced out of range.
        assert!(read_migrate(&Bytes::from(vec![1u8, 2, 3])).is_none());
    }

    #[test]
    fn payload_materialization_is_zero_copy() {
        let before = bytes::deep_copy_count();
        let mut stream = Vec::new();
        encode_frame_into(&mut stream, FT_DATA, &data_payload(0, &[9; 512]));
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        dec.push(&stream, &mut out).unwrap();
        let (_, payload) = &out[0];
        let chunk = payload.slice(8..);
        assert_eq!(chunk.len(), 512);
        assert_eq!(bytes::deep_copy_count(), before, "no Bytes deep copies");
    }
}

/// The pre-slab decoder, kept verbatim as the oracle the differential
/// property below compares [`FrameDecoder::push_bytes`] against.
#[cfg(test)]
mod reference {
    use super::{Bytes, WireError, MAX_FRAME};

    enum DecodeState {
        Header,
        Body { frame_type: u8, need: usize },
    }

    /// The decoder as it was before it learned to slice frames out of the
    /// read: every payload accumulated into an exact-size `Vec` of its own.
    pub struct FrameDecoder {
        state: DecodeState,
        header: [u8; 5],
        header_len: usize,
        body: Vec<u8>,
    }

    impl FrameDecoder {
        /// Fresh decoder expecting a frame header.
        pub fn new() -> Self {
            FrameDecoder {
                state: DecodeState::Header,
                header: [0; 5],
                header_len: 0,
                body: Vec::new(),
            }
        }

        /// Consume `input`, appending every completed `(type, payload)` frame
        /// to `out`. Returns an error on a malformed length field; the
        /// decoder must be discarded (along with the connection) after that.
        pub fn push(&mut self, mut input: &[u8], out: &mut Vec<(u8, Bytes)>) -> Result<(), WireError> {
            while !input.is_empty() {
                match &mut self.state {
                    DecodeState::Header => {
                        let take = (5 - self.header_len).min(input.len());
                        self.header[self.header_len..self.header_len + take]
                            .copy_from_slice(&input[..take]);
                        self.header_len += take;
                        input = &input[take..];
                        if self.header_len == 5 {
                            let len = u32::from_le_bytes([
                                self.header[0],
                                self.header[1],
                                self.header[2],
                                self.header[3],
                            ]);
                            if len == 0 || len as usize > MAX_FRAME {
                                return Err(WireError::BadLength(len));
                            }
                            let frame_type = self.header[4];
                            let need = len as usize - 1;
                            self.header_len = 0;
                            if need == 0 {
                                out.push((frame_type, Bytes::new()));
                            } else {
                                self.body = Vec::with_capacity(need);
                                self.state = DecodeState::Body { frame_type, need };
                            }
                        }
                    }
                    DecodeState::Body { frame_type, need } => {
                        let take = (*need - self.body.len()).min(input.len());
                        self.body.extend_from_slice(&input[..take]);
                        input = &input[take..];
                        if self.body.len() == *need {
                            let ft = *frame_type;
                            let payload = Bytes::from(std::mem::take(&mut self.body));
                            out.push((ft, payload));
                            self.state = DecodeState::Header;
                        }
                    }
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod slab_properties {
    use super::*;
    use bytes::BytesMut;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One connection's byte stream: well-formed frames of every size
    /// class, optionally ended by a header whose length field is illegal.
    fn byte_stream(rng: &mut StdRng, big: bool) -> Vec<u8> {
        let mut stream = Vec::new();
        for _ in 0..rng.gen_range(0..10usize) {
            let frame_type = match rng.gen_range(0..4u8) {
                0 => FT_DATA,
                1 => FT_HEADER,
                2 => FT_MIGRATE,
                _ => rng.gen::<u8>(),
            };
            let payload_len = match rng.gen_range(0..8u8) {
                0 => 0,                        // len == 1
                1 => rng.gen_range(1..9),      // shorter than a DATA round tag
                2 | 3 => rng.gen_range(500..700), // the paper's packet size
                4 => rng.gen_range(4096..9000), // larger than any read window below
                5 if big => MAX_FRAME - 1,     // len == MAX_FRAME
                _ => rng.gen_range(9..200),
            };
            let payload: Vec<u8> = (0..payload_len).map(|_| rng.gen()).collect();
            encode_frame_into(&mut stream, frame_type, &payload);
        }
        if rng.gen_range(0..3u8) == 0 {
            let bad = if rng.gen() { 0u32 } else { MAX_FRAME as u32 + 1 };
            stream.extend_from_slice(&bad.to_le_bytes());
            stream.extend_from_slice(&[FT_DATA, 1, 2, 3]);
        }
        stream
    }

    type Decoded = (Vec<(u8, Bytes)>, Option<WireError>);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any frames, any split into reads, any interleaving of 1–8
        /// connections reading into one slab: `push_bytes` over frozen
        /// slab regions yields what the reference `push(&[u8])` yields —
        /// same frames, same error at the same frame — and `push` (the
        /// borrowed entry point the benchmark calls) agrees too. Views
        /// are compared only after every later write into the slab, so a
        /// frozen view whose bytes moved would fail here.
        #[test]
        fn push_bytes_over_a_shared_slab_matches_the_reference_decoder(
            seed in any::<u64>(),
            conns in 1usize..=8,
            window in prop_oneof![1usize..8, 8usize..600, 600usize..4096],
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let big = seed % 16 == 0;
            let streams: Vec<Vec<u8>> = (0..conns).map(|_| byte_stream(&mut rng, big)).collect();
            let mut slab = BytesMut::zeroed(streams.iter().map(Vec::len).sum());
            let mut cursors = vec![0usize; conns];
            let mut sliced: Vec<FrameDecoder> = (0..conns).map(|_| FrameDecoder::new()).collect();
            let mut borrowed: Vec<FrameDecoder> = (0..conns).map(|_| FrameDecoder::new()).collect();
            let mut oracle: Vec<reference::FrameDecoder> =
                (0..conns).map(|_| reference::FrameDecoder::new()).collect();
            let mut got: Vec<[Decoded; 3]> = (0..conns).map(|_| Default::default()).collect();
            loop {
                let open: Vec<usize> = (0..conns)
                    .filter(|&c| cursors[c] < streams[c].len() && got[c][0].1.is_none())
                    .collect();
                if open.is_empty() {
                    break;
                }
                let c = open[rng.gen_range(0..open.len())];
                let rest = &streams[c][cursors[c]..];
                let n = rng.gen_range(1..=window).min(rest.len());
                let read = &rest[..n];
                cursors[c] += n;
                slab[..n].copy_from_slice(read);
                let view = slab.split_to(n).freeze();
                got[c][0].1 = oracle[c].push(read, &mut got[c][0].0).err();
                got[c][1].1 = sliced[c].push_bytes(view, &mut got[c][1].0).err();
                got[c][2].1 = borrowed[c].push(read, &mut got[c][2].0).err();
            }
            for [expected, sliced, borrowed] in &got {
                prop_assert_eq!(sliced, expected);
                prop_assert_eq!(borrowed, expected);
            }
        }
    }

    #[test]
    fn whole_data_frames_are_views_of_the_read_and_the_rest_are_copied_out() {
        let mut stream = Vec::new();
        encode_frame_into(&mut stream, FT_HEADER, &[7; 40]);
        encode_frame_into(&mut stream, FT_DATA, &data_payload(1, &[9; 600]));
        encode_data_frame_into(&mut stream, 2, &[8; 600]);
        let mut slab = BytesMut::zeroed(stream.len());
        slab.copy_from_slice(&stream);
        let read = slab.freeze();
        let inside = |b: &Bytes| read.as_ptr_range().contains(&b.as_ptr());
        let mut out = Vec::new();
        FrameDecoder::new().push_bytes(read.clone(), &mut out).unwrap();
        assert_eq!(out.len(), 3);
        assert!(!inside(&out[0].1), "a HEADER must not pin the slab");
        assert!(inside(&out[1].1) && inside(&out[2].1), "DATA is sliced in place");
        assert_eq!(out[1].1.len(), out[2].1.len(), "both DATA encoders frame alike");
        assert_eq!(read_u64(&out[2].1, 0), Some(2));
    }
}
