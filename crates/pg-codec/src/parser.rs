//! Incremental packet parser — our `av_parser_parse2`.
//!
//! The parser consumes a PGVS byte stream in arbitrary chunks (network
//! reads split records anywhere) and yields per-packet **metadata** without
//! decoding: exactly what a packet gate is allowed to see. A separate
//! method materializes full packets (metadata + references + payload) for
//! the decoder's benefit.
//!
//! Chunks arrive through two doors. [`PacketParser::push`] copies borrowed
//! bytes into an owned compacting buffer — the fully general path every
//! split-anywhere test exercises. [`PacketParser::push_shared`] enqueues a
//! refcounted [`Bytes`] chunk instead; when a whole record sits inside one
//! shared chunk (the concurrent pipeline's steady state — its producer
//! sends one record per chunk), the payload of the yielded [`Packet`] is a
//! zero-copy slice of that chunk. Records that span chunks, arrive
//! fragmented, or need damage recovery are consolidated into the owned
//! buffer and parsed exactly like pushed bytes, so both doors see identical
//! packets, errors, and byte offsets.

use std::collections::VecDeque;

use bytes::Bytes;

use crate::bitstream::{
    codec_from_wire, frame_type_from_wire, read_scene, RECORD_HEADER_SIZE, SCENE_WIRE_SIZE,
    STREAM_HEADER_SIZE, STREAM_MAGIC, SYNC_MARKER,
};
use crate::config::{Codec, EncoderConfig};
use crate::error::CodecError;
use crate::packet::{Packet, PacketMeta, RefList};

/// Compact the owned buffer once this many consumed bytes accumulate at
/// its front (and they outnumber the live bytes), keeping `advance` O(1)
/// amortized without unbounded growth.
const COMPACT_THRESHOLD: usize = 4096;

/// Parsed PGVS stream header.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParsedStreamHeader {
    /// Stream id stamped by the sender.
    pub stream_id: u32,
    /// Encoder configuration recovered from the header.
    pub config: EncoderConfig,
}

/// Incremental parser state machine.
///
/// The logical byte stream is `buf[head..]` followed by the unconsumed
/// parts of the `shared` chunk queue, in order. `push` appends to `buf`
/// (or, to preserve ordering, behind `shared` when shared chunks are
/// pending); `push_shared` appends to `shared`.
#[derive(Debug, Clone)]
pub struct PacketParser {
    /// Owned copy-mode buffer; bytes before `head` are consumed.
    buf: Vec<u8>,
    head: usize,
    /// Queue of refcounted chunks, logically after `buf[head..]`.
    shared: VecDeque<Bytes>,
    /// Consumed prefix of `shared.front()`.
    shared_off: usize,
    /// Total unconsumed bytes across `shared` (cached; keeps
    /// [`PacketParser::buffered`] O(1)).
    shared_len: usize,
    header: Option<ParsedStreamHeader>,
    /// Total bytes consumed from the front of the buffer (for error offsets).
    consumed: u64,
}

impl Default for PacketParser {
    fn default() -> Self {
        Self::new()
    }
}

impl PacketParser {
    /// Fresh parser expecting a stream header.
    pub fn new() -> Self {
        PacketParser {
            buf: Vec::new(),
            head: 0,
            shared: VecDeque::new(),
            shared_off: 0,
            shared_len: 0,
            header: None,
            consumed: 0,
        }
    }

    /// Feed a chunk of borrowed bytes (copied into the owned buffer).
    pub fn push(&mut self, bytes: &[u8]) {
        if self.shared_len == 0 {
            self.buf.extend_from_slice(bytes);
        } else {
            // Shared chunks are logically ahead of anything pushed now;
            // park the copy behind them to keep stream order.
            self.shared.push_back(Bytes::copy_from_slice(bytes));
            self.shared_len += bytes.len();
        }
    }

    /// Feed a refcounted chunk without copying it. Payloads of packets
    /// parsed wholly inside one shared chunk are zero-copy slices of it.
    pub fn push_shared(&mut self, chunk: Bytes) {
        if chunk.is_empty() {
            return;
        }
        self.shared_len += chunk.len();
        self.shared.push_back(chunk);
    }

    /// The stream header, once parsed.
    pub fn header(&self) -> Option<&ParsedStreamHeader> {
        self.header.as_ref()
    }

    /// Bytes currently buffered and not yet parsed.
    pub fn buffered(&self) -> usize {
        (self.buf.len() - self.head) + self.shared_len
    }

    /// The logical byte at index `i`, if buffered.
    fn byte_at(&self, i: usize) -> Option<u8> {
        let in_buf = self.buf.len() - self.head;
        if i < in_buf {
            return Some(self.buf[self.head + i]);
        }
        let mut i = i - in_buf;
        let mut off = self.shared_off;
        for chunk in &self.shared {
            let rem = chunk.len() - off;
            if i < rem {
                return Some(chunk[off + i]);
            }
            i -= rem;
            off = 0;
        }
        None
    }

    /// Make the first `n` logical bytes contiguous and return them, or
    /// `None` if fewer than `n` bytes are buffered. Record-aligned shared
    /// chunks are viewed in place; anything else is consolidated into the
    /// owned buffer (a copy — the slow path by design).
    fn contiguous(&mut self, n: usize) -> Option<&[u8]> {
        if self.buffered() < n {
            return None;
        }
        let in_buf = self.buf.len() - self.head;
        if in_buf == 0 {
            let front_ok = self
                .shared
                .front()
                .is_some_and(|c| c.len() - self.shared_off >= n);
            if front_ok {
                let front = self.shared.front().expect("front checked");
                return Some(&front[self.shared_off..self.shared_off + n]);
            }
        }
        while self.buf.len() - self.head < n {
            let front = self.shared.pop_front().expect("buffered() checked");
            let rem = &front[self.shared_off..];
            self.buf.extend_from_slice(rem);
            self.shared_len -= rem.len();
            self.shared_off = 0;
        }
        Some(&self.buf[self.head..self.head + n])
    }

    /// Move every shared chunk into the owned buffer (damage-recovery
    /// scans want one flat view).
    fn consolidate_all(&mut self) {
        while let Some(front) = self.shared.pop_front() {
            let rem = &front[self.shared_off..];
            self.buf.extend_from_slice(rem);
            self.shared_len -= rem.len();
            self.shared_off = 0;
        }
    }

    fn advance(&mut self, n: usize) {
        let in_buf = self.buf.len() - self.head;
        let take = n.min(in_buf);
        self.head += take;
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        } else if self.head >= COMPACT_THRESHOLD && self.head * 2 >= self.buf.len() {
            self.buf.copy_within(self.head.., 0);
            let live = self.buf.len() - self.head;
            self.buf.truncate(live);
            self.head = 0;
        }
        let mut rest = n - take;
        while rest > 0 {
            let front = self.shared.front().expect("advance past buffered bytes");
            let rem = front.len() - self.shared_off;
            if rest >= rem {
                rest -= rem;
                self.shared_len -= rem;
                self.shared_off = 0;
                self.shared.pop_front();
            } else {
                self.shared_off += rest;
                self.shared_len -= rest;
                rest = 0;
            }
        }
        self.consumed += n as u64;
    }

    fn ensure_header(&mut self) -> Result<bool, CodecError> {
        if self.header.is_some() {
            return Ok(true);
        }
        let mut bytes = [0u8; STREAM_HEADER_SIZE];
        match self.contiguous(STREAM_HEADER_SIZE) {
            Some(view) => bytes.copy_from_slice(view),
            None => return Ok(false),
        }
        if bytes[..4] != STREAM_MAGIC {
            return Err(CodecError::InvalidHeader(format!(
                "bad magic {:02x?}",
                &bytes[..4]
            )));
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != crate::bitstream::FORMAT_VERSION {
            return Err(CodecError::InvalidHeader(format!(
                "unsupported version {version}"
            )));
        }
        let stream_id = u32::from_le_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]);
        let codec = codec_from_wire(bytes[10])
            .ok_or_else(|| CodecError::InvalidHeader(format!("unknown codec {}", bytes[10])))?;
        let gop = u32::from_le_bytes([bytes[11], bytes[12], bytes[13], bytes[14]]);
        let b_frames = u32::from_le_bytes([bytes[15], bytes[16], bytes[17], bytes[18]]);
        let bitrate = u32::from_le_bytes([bytes[19], bytes[20], bytes[21], bytes[22]]);
        let fps = f64::from_le_bytes(bytes[23..31].try_into().expect("8 bytes"));
        let width = u32::from_le_bytes([bytes[31], bytes[32], bytes[33], bytes[34]]);
        let height = u32::from_le_bytes([bytes[35], bytes[36], bytes[37], bytes[38]]);
        self.advance(STREAM_HEADER_SIZE);
        self.header = Some(ParsedStreamHeader {
            stream_id,
            config: EncoderConfig {
                codec,
                gop: gop.max(1),
                b_frames,
                bitrate,
                fps: if fps.is_finite() && fps > 0.0 {
                    fps
                } else {
                    25.0
                },
                width,
                height,
            },
        });
        Ok(true)
    }

    /// Consume an in-band stream-header repeat if one starts at the buffer
    /// front (real encoders repeat parameter sets periodically). Returns
    /// `true` if a header was consumed; `Ok(false)` when the front is not a
    /// header (or not enough bytes yet to tell).
    fn try_consume_inline_header(&mut self) -> Result<bool, CodecError> {
        let probe_len = STREAM_MAGIC.len().min(self.buffered());
        for (i, &m) in STREAM_MAGIC.iter().take(probe_len).enumerate() {
            if self.byte_at(i) != Some(m) {
                return Ok(false);
            }
        }
        if self.buffered() < STREAM_HEADER_SIZE {
            // Looks like a header prefix; wait for more bytes.
            return Ok(false);
        }
        // Full header available: re-parse it (it may legitimately differ,
        // e.g. after an encoder reconfiguration).
        let saved = self.header.take();
        match self.ensure_header() {
            Ok(true) => Ok(true),
            Ok(false) => {
                self.header = saved;
                Ok(false)
            }
            Err(e) => {
                self.header = saved;
                Err(e)
            }
        }
    }

    /// Parse the next record header if fully buffered. Returns the metadata
    /// plus the payload length, without consuming anything.
    fn peek_record(&mut self) -> Result<Option<(PacketMeta, usize)>, CodecError> {
        let mut bytes = [0u8; RECORD_HEADER_SIZE];
        match self.contiguous(RECORD_HEADER_SIZE) {
            Some(view) => bytes.copy_from_slice(view),
            None => return Ok(None),
        }
        if bytes[..2] != SYNC_MARKER {
            return Err(CodecError::MalformedRecord {
                offset: self.consumed,
                reason: format!("bad sync marker {:02x?}", &bytes[..2]),
            });
        }
        let seq = u64::from_le_bytes(bytes[2..10].try_into().expect("8 bytes"));
        let pts = u64::from_le_bytes(bytes[10..18].try_into().expect("8 bytes"));
        let gop_id = u64::from_le_bytes(bytes[18..26].try_into().expect("8 bytes"));
        let frame_type =
            frame_type_from_wire(bytes[26]).ok_or_else(|| CodecError::MalformedRecord {
                offset: self.consumed,
                reason: format!("unknown frame type byte 0x{:02x}", bytes[26]),
            })?;
        let payload_len = u32::from_le_bytes(bytes[27..31].try_into().expect("4 bytes")) as usize;
        // Sanity cap: a corrupted length field must not stall the parser
        // forever waiting for phantom payload bytes.
        const MAX_PAYLOAD: usize = 16 << 20;
        if payload_len > MAX_PAYLOAD {
            return Err(CodecError::MalformedRecord {
                offset: self.consumed,
                reason: format!("implausible payload length {payload_len}"),
            });
        }
        let header = self.header.as_ref().expect("header parsed before records");
        Ok(Some((
            PacketMeta {
                stream_id: header.stream_id,
                seq,
                pts,
                frame_type,
                size: payload_len as u32,
                gop_id,
            },
            payload_len,
        )))
    }

    /// Yield the next packet's **metadata**, skipping its payload — the
    /// gate-facing API. Returns `Ok(None)` when more bytes are needed.
    pub fn next_meta(&mut self) -> Result<Option<PacketMeta>, CodecError> {
        if !self.ensure_header()? {
            return Ok(None);
        }
        while self.try_consume_inline_header()? {}
        let Some((meta, payload_len)) = self.peek_record()? else {
            return Ok(None);
        };
        if self.buffered() < RECORD_HEADER_SIZE + payload_len {
            return Ok(None);
        }
        self.advance(RECORD_HEADER_SIZE + payload_len);
        Ok(Some(meta))
    }

    /// Yield the next **full packet** (metadata + refs + scene payload) —
    /// the decoder-facing API. Returns `Ok(None)` when more bytes are needed.
    pub fn next_packet(&mut self) -> Result<Option<Packet>, CodecError> {
        if !self.ensure_header()? {
            return Ok(None);
        }
        while self.try_consume_inline_header()? {}
        let Some((meta, payload_len)) = self.peek_record()? else {
            return Ok(None);
        };
        let total = RECORD_HEADER_SIZE + payload_len;
        if self.buffered() < total {
            return Ok(None);
        }
        let record_offset = self.consumed;
        // Zero-copy fast path: the whole record sits inside the front
        // shared chunk, so the payload is a slice of it. Otherwise
        // consolidate and deep-copy (counted by `bytes::deep_copy_count`).
        let record_in_front_chunk = self.buf.len() == self.head
            && self
                .shared
                .front()
                .is_some_and(|c| c.len() - self.shared_off >= total);
        let payload: Bytes = if record_in_front_chunk {
            let front = self.shared.front().expect("front checked");
            front.slice(self.shared_off + RECORD_HEADER_SIZE..self.shared_off + total)
        } else {
            let view = self.contiguous(total).expect("length checked");
            Bytes::copy_from_slice(&view[RECORD_HEADER_SIZE..])
        };
        let malformed = |reason: &str| CodecError::MalformedRecord {
            offset: record_offset,
            reason: reason.to_string(),
        };
        if payload.is_empty() {
            return Err(malformed("empty payload"));
        }
        let n_refs = payload[0] as usize;
        let refs_end = 1 + 8 * n_refs;
        if payload.len() < refs_end + SCENE_WIRE_SIZE {
            return Err(malformed("payload too short for refs + scene"));
        }
        let refs: RefList = (0..n_refs)
            .map(|i| {
                u64::from_le_bytes(
                    payload[1 + 8 * i..1 + 8 * (i + 1)]
                        .try_into()
                        .expect("8 bytes"),
                )
            })
            .collect();
        let mut scene_bytes = &payload[refs_end..refs_end + SCENE_WIRE_SIZE];
        let scene = read_scene(&mut scene_bytes).ok_or_else(|| malformed("bad scene payload"))?;

        self.advance(total);
        Ok(Some(Packet {
            meta,
            refs,
            scene,
            payload,
        }))
    }

    /// Resynchronize after stream damage (lost or corrupted bytes):
    /// discard buffered bytes until the next record [`SYNC_MARKER`] starts
    /// at the front of the buffer. Returns the number of bytes discarded.
    ///
    /// Call this after [`next_meta`](Self::next_meta) /
    /// [`next_packet`](Self::next_packet) return
    /// [`CodecError::MalformedRecord`]; with a lossy transport the stream
    /// then degrades into *lost packets* instead of a dead parser. The
    /// first byte is always discarded (the current position is known-bad),
    /// and a trailing half-marker is retained so a marker split across
    /// chunk boundaries still synchronizes.
    pub fn resync(&mut self) -> usize {
        self.consolidate_all();
        let mut discarded = 0usize;
        if self.buffered() > 0 {
            // Current front failed to parse: always advance past it.
            self.advance(1);
            discarded += 1;
        }
        loop {
            let Some(first) = self.byte_at(0) else {
                return discarded;
            };
            if first == SYNC_MARKER[0] {
                match self.byte_at(1) {
                    Some(second) if second == SYNC_MARKER[1] => return discarded,
                    Some(_) => {}
                    // Half a marker at the end of the buffer: keep it.
                    None => return discarded,
                }
            }
            self.advance(1);
            discarded += 1;
        }
    }

    /// Resynchronize to the next stream header: discard bytes until the
    /// buffer front starts with [`STREAM_MAGIC`]. Used when the original
    /// header was damaged in transit — real senders repeat their parameter
    /// sets in-band, so a later copy will arrive. Returns bytes discarded.
    pub fn resync_to_header(&mut self) -> usize {
        self.consolidate_all();
        let mut discarded = 0usize;
        if self.buffered() > 0 {
            self.advance(1);
            discarded += 1;
        }
        'outer: loop {
            if self.buffered() == 0 {
                return discarded;
            }
            for (i, &m) in STREAM_MAGIC.iter().enumerate() {
                match self.byte_at(i) {
                    Some(b) if b == m => {}
                    // Prefix matches so far but buffer ran out: keep it.
                    None => return discarded,
                    Some(_) => {
                        self.advance(1);
                        discarded += 1;
                        continue 'outer;
                    }
                }
            }
            return discarded;
        }
    }

    /// Drain all complete packets currently buffered, resynchronizing past
    /// damaged records (and past damaged bytes *before* the stream header,
    /// recovering on an in-band header repeat). Returns the packets plus
    /// the number of records abandoned to resync.
    pub fn drain_packets_lossy(&mut self) -> (Vec<Packet>, u64) {
        let mut out = Vec::new();
        let mut damaged = 0u64;
        loop {
            match self.next_packet() {
                Ok(Some(p)) => out.push(p),
                Ok(None) => return (out, damaged),
                Err(_) => {
                    if self.header.is_none() {
                        self.resync_to_header();
                    } else {
                        self.resync();
                    }
                    damaged += 1;
                }
            }
        }
    }

    /// Drain all complete packets currently buffered (full materialization).
    pub fn drain_packets(&mut self) -> Result<Vec<Packet>, CodecError> {
        let mut out = Vec::new();
        while let Some(p) = self.next_packet()? {
            out.push(p);
        }
        Ok(out)
    }

    /// Drain all complete packet metadata currently buffered.
    pub fn drain_meta(&mut self) -> Result<Vec<PacketMeta>, CodecError> {
        let mut out = Vec::new();
        while let Some(m) = self.next_meta()? {
            out.push(m);
        }
        Ok(out)
    }
}

/// One-shot convenience: parse a complete in-memory stream.
pub fn parse_stream(bytes: &[u8]) -> Result<(ParsedStreamHeader, Vec<Packet>), CodecError> {
    let mut parser = PacketParser::new();
    parser.push(bytes);
    let packets = parser.drain_packets()?;
    let header = *parser
        .header()
        .ok_or_else(|| CodecError::InvalidHeader("stream shorter than header".into()))?;
    Ok((header, packets))
}

/// Expose the parsed codec for gate-side feature switches (e.g. JPEG2000
/// streams have no predicted-frame view).
pub fn stream_codec(header: &ParsedStreamHeader) -> Codec {
    header.config.codec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::serialize_stream;
    use crate::encoder::Encoder;
    use pg_scene::{SceneGenerator, SrSceneGen};

    fn stream_bytes(n: usize) -> (EncoderConfig, Vec<Packet>, Vec<u8>) {
        let config = EncoderConfig::new(Codec::H265)
            .with_gop(12)
            .with_b_frames(2);
        let mut enc = Encoder::for_stream(config, 17, 42);
        let mut scene = SrSceneGen::new(17, 25.0);
        let packets: Vec<Packet> = (0..n).map(|_| enc.encode(&scene.next_frame())).collect();
        let bytes = serialize_stream(42, &config, &packets);
        (config, packets, bytes)
    }

    #[test]
    fn full_roundtrip() {
        let (config, packets, bytes) = stream_bytes(50);
        let (header, parsed) = parse_stream(&bytes).expect("parse");
        assert_eq!(header.stream_id, 42);
        assert_eq!(header.config, config);
        assert_eq!(parsed, packets);
    }

    #[test]
    fn metadata_only_parse_matches() {
        let (_, packets, bytes) = stream_bytes(30);
        let mut parser = PacketParser::new();
        parser.push(&bytes);
        let metas = parser.drain_meta().expect("parse");
        let expected: Vec<PacketMeta> = packets.iter().map(|p| p.meta).collect();
        assert_eq!(metas, expected);
    }

    #[test]
    fn incremental_chunked_feed() {
        let (_, packets, bytes) = stream_bytes(40);
        // Feed in awkward chunk sizes (1, 7, 64, 1000 bytes) and collect.
        for chunk in [1usize, 7, 64, 1000] {
            let mut parser = PacketParser::new();
            let mut out = Vec::new();
            for piece in bytes.chunks(chunk) {
                parser.push(piece);
                out.extend(parser.drain_packets().expect("parse"));
            }
            assert_eq!(out, packets, "chunk size {chunk}");
        }
    }

    #[test]
    fn needs_more_bytes_returns_none() {
        let (_, _, bytes) = stream_bytes(3);
        let mut parser = PacketParser::new();
        parser.push(&bytes[..10]); // partial header
        assert_eq!(parser.next_meta().expect("no error"), None);
        assert!(parser.header().is_none());
    }

    #[test]
    fn bad_magic_is_an_error() {
        let (_, _, mut bytes) = stream_bytes(1);
        bytes[0] = b'X';
        let mut parser = PacketParser::new();
        parser.push(&bytes);
        assert!(matches!(
            parser.next_meta(),
            Err(CodecError::InvalidHeader(_))
        ));
    }

    #[test]
    fn corrupt_sync_marker_is_an_error() {
        let (_, _, mut bytes) = stream_bytes(2);
        bytes[crate::bitstream::STREAM_HEADER_SIZE] = 0x00;
        let mut parser = PacketParser::new();
        parser.push(&bytes);
        assert!(matches!(
            parser.next_meta(),
            Err(CodecError::MalformedRecord { .. })
        ));
    }

    #[test]
    fn corrupt_frame_type_is_an_error() {
        let (_, _, mut bytes) = stream_bytes(2);
        // frame_type byte of the first record.
        let idx = crate::bitstream::STREAM_HEADER_SIZE + 26;
        bytes[idx] = 0xEE;
        let mut parser = PacketParser::new();
        parser.push(&bytes);
        let err = parser.next_meta().unwrap_err();
        assert!(matches!(err, CodecError::MalformedRecord { .. }));
        assert!(err.to_string().contains("frame type"));
    }

    #[test]
    fn truncated_stream_parses_prefix() {
        let (_, packets, bytes) = stream_bytes(10);
        let mut parser = PacketParser::new();
        parser.push(&bytes[..bytes.len() - 5]); // cut the last record short
        let out = parser.drain_packets().expect("prefix parses");
        assert_eq!(out.len(), packets.len() - 1);
    }

    #[test]
    fn parsed_sizes_match_on_wire_payloads() {
        // The gate's learned feature (packet size) must equal what the
        // encoder sampled.
        let (_, packets, bytes) = stream_bytes(25);
        let (_, parsed) = parse_stream(&bytes).expect("parse");
        for (a, b) in parsed.iter().zip(&packets) {
            assert_eq!(a.meta.size, b.meta.size);
        }
    }

    #[test]
    fn record_aligned_shared_chunks_parse_without_payload_copies() {
        use crate::bitstream::serialize_stream_chunks;
        let (config, packets, _) = stream_bytes(20);
        let mut parser = PacketParser::new();
        parser.push_shared(Bytes::from(serialize_stream_chunks::header_bytes(
            42, &config,
        )));
        let chunks: Vec<Bytes> = packets
            .iter()
            .map(|p| Bytes::from(serialize_stream_chunks::packet_bytes(p)))
            .collect();
        for chunk in &chunks {
            parser.push_shared(chunk.clone());
        }
        let out = parser.drain_packets().expect("parse");
        assert_eq!(out, packets);
        // The fast path carries the real wire payload as a slice of the
        // arrival chunk — same bytes at the same address, no copy.
        for (parsed, (original, chunk)) in out.iter().zip(packets.iter().zip(&chunks)) {
            assert_eq!(parsed.payload.len(), original.meta.size as usize);
            assert_eq!(parsed.payload[0] as usize, original.refs.len());
            assert_eq!(
                parsed.payload.as_slice().as_ptr(),
                chunk[RECORD_HEADER_SIZE..].as_ptr(),
                "payload must alias the arrival chunk, not a copy of it"
            );
        }
    }

    #[test]
    fn shared_chunks_split_anywhere_still_parse() {
        let (_, packets, bytes) = stream_bytes(15);
        for chunk in [1usize, 7, 64, 1000] {
            let mut parser = PacketParser::new();
            let mut out = Vec::new();
            for piece in bytes.chunks(chunk) {
                parser.push_shared(Bytes::from(piece.to_vec()));
                out.extend(parser.drain_packets().expect("parse"));
            }
            assert_eq!(out, packets, "shared chunk size {chunk}");
        }
    }

    #[test]
    fn mixed_push_and_push_shared_preserve_stream_order() {
        let (_, packets, bytes) = stream_bytes(12);
        let third = bytes.len() / 3;
        let mut parser = PacketParser::new();
        parser.push(&bytes[..third]);
        parser.push_shared(Bytes::from(bytes[third..2 * third].to_vec()));
        // A plain push while shared chunks are pending must stay ordered.
        parser.push(&bytes[2 * third..]);
        let out = parser.drain_packets().expect("parse");
        assert_eq!(out, packets);
    }

    #[test]
    fn shared_chunk_payload_slices_share_the_arrival_allocation() {
        use crate::bitstream::serialize_stream_chunks;
        let (config, packets, _) = stream_bytes(3);
        let mut parser = PacketParser::new();
        parser.push_shared(Bytes::from(serialize_stream_chunks::header_bytes(
            42, &config,
        )));
        let chunk = Bytes::from(serialize_stream_chunks::packet_bytes(&packets[0]));
        parser.push_shared(chunk.clone());
        let p = parser.next_packet().expect("parse").expect("complete");
        // Same bytes as the wire chunk's payload region, at the same
        // address: the parser sliced the arrival buffer, not a copy.
        assert_eq!(&chunk[RECORD_HEADER_SIZE..], &p.payload[..]);
        assert_eq!(
            p.payload.as_slice().as_ptr(),
            chunk[RECORD_HEADER_SIZE..].as_ptr()
        );
    }
}

#[cfg(test)]
mod lossy_tests {
    use super::*;
    use crate::bitstream::serialize_stream;
    use crate::encoder::Encoder;
    use pg_scene::{FireSceneGen, SceneGenerator};

    fn stream(n: usize) -> (EncoderConfig, Vec<Packet>, Vec<u8>) {
        let config = EncoderConfig::new(Codec::H264).with_gop(8).with_b_frames(2);
        let mut enc = Encoder::for_stream(config, 5, 1);
        let mut scene = FireSceneGen::new(5, 25.0);
        let packets: Vec<Packet> = (0..n).map(|_| enc.encode(&scene.next_frame())).collect();
        let bytes = serialize_stream(1, &config, &packets);
        (config, packets, bytes)
    }

    #[test]
    fn resync_recovers_after_a_hole() {
        let (_, packets, bytes) = stream(20);
        // Cut a hole through the middle of the 3rd record.
        let hole_start = crate::bitstream::STREAM_HEADER_SIZE
            + packets[..2]
                .iter()
                .map(|p| crate::bitstream::RECORD_HEADER_SIZE + p.meta.size as usize)
                .sum::<usize>()
            + 10;
        let mut damaged = bytes.clone();
        damaged.drain(hole_start..hole_start + 200);

        let mut parser = PacketParser::new();
        parser.push(&damaged);
        let (recovered, resynced) = parser.drain_packets_lossy();
        assert!(resynced >= 1, "hole should force at least one resync");
        // Packets before the hole survive, most after it recover.
        assert!(recovered.len() >= 15, "recovered only {}", recovered.len());
        assert_eq!(recovered[0], packets[0]);
        // Every recovered packet is one of the originals, in order.
        let mut last_seq = None;
        for r in &recovered {
            assert!(packets.contains(r), "parser fabricated a packet");
            if let Some(last) = last_seq {
                assert!(r.meta.seq > last);
            }
            last_seq = Some(r.meta.seq);
        }
    }

    #[test]
    fn lost_initial_header_recovers_on_inband_repeat() {
        let (config, packets, _) = stream(6);
        // Simulate: first header lost; later the sender repeats it.
        let mut bytes = Vec::new();
        bytes.extend(crate::bitstream::serialize_stream_chunks::packet_bytes(
            &packets[0],
        ));
        bytes.extend(crate::bitstream::serialize_stream_chunks::header_bytes(
            1, &config,
        ));
        for p in &packets[1..] {
            bytes.extend(crate::bitstream::serialize_stream_chunks::packet_bytes(p));
        }
        let mut parser = PacketParser::new();
        parser.push(&bytes);
        let (recovered, resynced) = parser.drain_packets_lossy();
        assert!(resynced >= 1);
        assert_eq!(recovered, packets[1..].to_vec());
        assert!(parser.header().is_some());
    }

    #[test]
    fn inline_header_repeat_is_transparent() {
        let (config, packets, _) = stream(6);
        let mut bytes = crate::bitstream::serialize_stream_chunks::header_bytes(1, &config);
        for (i, p) in packets.iter().enumerate() {
            if i == 3 {
                // In-band parameter-set repeat mid-stream.
                bytes.extend(crate::bitstream::serialize_stream_chunks::header_bytes(
                    1, &config,
                ));
            }
            bytes.extend(crate::bitstream::serialize_stream_chunks::packet_bytes(p));
        }
        let mut parser = PacketParser::new();
        parser.push(&bytes);
        let all = parser
            .drain_packets()
            .expect("clean parse, no resync needed");
        assert_eq!(all, packets);
    }

    #[test]
    fn resync_reports_discarded_bytes() {
        let (_, _, bytes) = stream(5);
        let mut parser = PacketParser::new();
        parser.push(&bytes);
        parser
            .next_packet()
            .expect("first packet")
            .expect("present");
        // Pretend damage: resync from a known-good position discards up to
        // the next marker.
        let skipped = parser.resync();
        assert!(skipped >= 1);
        // Parsing continues from some later record (packets are lost, the
        // stream is not).
        let (rest, _) = parser.drain_packets_lossy();
        assert!(!rest.is_empty());
    }
}
