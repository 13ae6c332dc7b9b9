//! Reference-tracking, cost-accounting video decoder.
//!
//! The decoder enforces the GOP invariant that makes packet gating
//! meaningful: a predicted packet **cannot** be decoded unless its
//! references are decoded. Skipped packets are retained (cheaply) so a
//! later decision can still decode them as part of a dependency closure —
//! the "decode maximal packets that the prioritized packet refers to" step
//! of the paper's Algorithm 1 (line 13).

use pg_scene::SceneFrame;

use crate::cost::CostModel;
use crate::deps::{DependencyTracker, GopRing};
use crate::error::CodecError;
use crate::frame::FrameType;
use crate::packet::Packet;

/// A decoded RGB frame (represented by the scene ground truth the packet
/// carried).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodedFrame {
    /// Stream the frame belongs to.
    pub stream_id: u32,
    /// Decode-order sequence number.
    pub seq: u64,
    /// Presentation timestamp.
    pub pts: u64,
    /// Picture type the frame was encoded as.
    pub frame_type: FrameType,
    /// The frame content.
    pub scene: SceneFrame,
}

impl DecodedFrame {
    /// The frame `packet` decodes to once its references are decoded —
    /// what [`Decoder::decode`] returns, and what an executor given the
    /// packets by [`Decoder::hand_off_closure`] produces.
    pub fn of(packet: &Packet) -> Self {
        DecodedFrame {
            stream_id: packet.meta.stream_id,
            seq: packet.meta.seq,
            pts: packet.meta.pts,
            frame_type: packet.meta.frame_type,
            scene: packet.scene,
        }
    }
}

/// Cumulative decoder statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DecoderStats {
    /// Frames decoded, by picture type (I, P, B).
    pub decoded_i: u64,
    /// Count of decoded P frames.
    pub decoded_p: u64,
    /// Count of decoded B frames.
    pub decoded_b: u64,
    /// Total decode cost spent, in [`CostModel`] units.
    pub cost_spent: f64,
    /// Packets ingested (arrived), decoded or not.
    pub ingested: u64,
}

impl DecoderStats {
    /// Total frames decoded.
    pub fn decoded_total(&self) -> u64 {
        self.decoded_i + self.decoded_p + self.decoded_b
    }

    fn count(&mut self, frame_type: FrameType) {
        match frame_type {
            FrameType::I => self.decoded_i += 1,
            FrameType::P => self.decoded_p += 1,
            FrameType::B => self.decoded_b += 1,
        }
    }
}

/// Per-stream stateful decoder. See module docs.
#[derive(Debug, Clone)]
pub struct Decoder {
    stream_id: u32,
    costs: CostModel,
    tracker: DependencyTracker,
    /// Arrived packets that may still be needed. Fed the same arrivals as
    /// the tracker's window, so both hold the same sequence numbers.
    store: GopRing<Packet>,
    /// Reused buffer for the closure being decoded.
    closure: Vec<u64>,
    stats: DecoderStats,
}

impl Decoder {
    /// Decoder for one stream with the given cost model.
    pub fn new(stream_id: u32, costs: CostModel) -> Self {
        Decoder {
            stream_id,
            costs,
            tracker: DependencyTracker::new(),
            store: GopRing::new(),
            closure: Vec::new(),
            stats: DecoderStats::default(),
        }
    }

    /// The cost model in use.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> DecoderStats {
        self.stats
    }

    /// Access the dependency tracker (read-only), e.g. for cost queries.
    pub fn tracker(&self) -> &DependencyTracker {
        &self.tracker
    }

    /// Register an arrived packet without decoding it. Must be called for
    /// every packet of the stream, in decode order, whether or not it will
    /// be decoded — this is the parser→gate hand-off. The `stream_id` the
    /// packet claims is not checked: a stream is the channel its bytes
    /// arrived on, and bytes off a socket can claim any id.
    pub fn ingest(&mut self, packet: Packet) {
        self.tracker.note_arrival(&packet);
        self.stats.ingested += 1;
        self.store.insert(packet);
    }

    /// The arrived packet with sequence number `seq`, while the window
    /// still holds it.
    pub fn packet(&self, seq: u64) -> Option<&Packet> {
        self.store.get(seq)
    }

    /// The *pending cost* of decoding packet `seq` right now, i.e. the cost
    /// of its undecoded dependency closure including itself (Fig. 6).
    pub fn pending_cost(&mut self, seq: u64) -> Option<f64> {
        self.tracker.pending_cost(seq, &self.costs)
    }

    /// The undecoded dependency closure of `seq` including itself, in
    /// decode order (see [`DependencyTracker::pending_closure`]).
    pub fn pending_closure(&mut self, seq: u64) -> Option<Vec<u64>> {
        self.tracker.pending_closure(seq)
    }

    /// Decode exactly one packet. Fails with
    /// [`CodecError::MissingReference`] if any direct reference is not yet
    /// decoded, and [`CodecError::UnknownPacket`] if the packet was never
    /// ingested. Decoding an already-decoded packet is idempotent and free.
    pub fn decode(&mut self, seq: u64) -> Result<DecodedFrame, CodecError> {
        let packet = self.store.get(seq).ok_or(CodecError::UnknownPacket {
            stream_id: self.stream_id,
            seq,
        })?;
        let already = self.tracker.is_decoded(seq);
        if !already {
            for &r in &packet.refs {
                if !self.tracker.is_decoded(r) {
                    return Err(CodecError::MissingReference {
                        stream_id: self.stream_id,
                        seq,
                        missing: r,
                    });
                }
            }
            self.tracker.mark_decoded(seq);
            self.stats.cost_spent += self.costs.cost(packet.meta.frame_type);
            self.stats.count(packet.meta.frame_type);
        }
        Ok(DecodedFrame::of(packet))
    }

    /// Decode `seq` together with its whole undecoded dependency closure,
    /// in decode order. Returns the decoded frames (references first) and
    /// charges the full closure cost. This is Algorithm 1's reference
    /// completion step.
    pub fn decode_closure(&mut self, seq: u64) -> Result<Vec<DecodedFrame>, CodecError> {
        let mut frames = Vec::new();
        self.decode_closure_into(seq, &mut frames)?;
        Ok(frames)
    }

    /// [`decode_closure`](Self::decode_closure) into a caller's buffer
    /// (cleared first) — the per-round form: allocation-free once `frames`
    /// has grown to closure size. On error `frames` holds what was decoded
    /// (and charged) before the failure.
    pub fn decode_closure_into(
        &mut self,
        seq: u64,
        frames: &mut Vec<DecodedFrame>,
    ) -> Result<(), CodecError> {
        frames.clear();
        self.tracker
            .closure_into(seq, &mut self.closure)
            .ok_or(CodecError::UnknownPacket {
                stream_id: self.stream_id,
                seq,
            })?;
        for k in 0..self.closure.len() {
            let s = self.closure[k];
            frames.push(self.decode(s)?);
        }
        Ok(())
    }

    /// Hand `seq`'s undecoded dependency closure to an executor outside
    /// this decoder: fills `packets` (cleared first) with its packets,
    /// references first, marks them decoded and returns their cost summed
    /// in that order — allocation-free once `packets` has grown to closure
    /// size. `None`, with nothing marked and `packets` empty, when the
    /// closure cannot be produced. `seqs` is scratch a caller shares
    /// between decoders.
    pub fn hand_off_closure(
        &mut self,
        seq: u64,
        seqs: &mut Vec<u64>,
        packets: &mut Vec<Packet>,
    ) -> Option<f64> {
        packets.clear();
        self.tracker.closure_into(seq, seqs)?;
        let mut cost = 0.0f64;
        for &s in seqs.iter() {
            let Some(p) = self.store.get(s) else {
                packets.clear();
                return None;
            };
            cost += self.costs.cost(p.meta.frame_type);
            packets.push(p.clone());
        }
        for p in packets.iter() {
            self.tracker.mark_decoded(p.meta.seq);
            self.stats.count(p.meta.frame_type);
        }
        self.stats.cost_spent += cost;
        Some(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Codec, EncoderConfig};
    use crate::encoder::Encoder;
    use pg_scene::{PersonSceneGen, SceneGenerator};

    fn stream(gop: u32, b: u32, n: usize) -> (Decoder, Vec<Packet>) {
        let config = EncoderConfig::new(Codec::H264)
            .with_gop(gop)
            .with_b_frames(b);
        let mut enc = Encoder::new(config, 13);
        let mut scene = PersonSceneGen::new(13, 25.0);
        let packets: Vec<Packet> = (0..n).map(|_| enc.encode(&scene.next_frame())).collect();
        let mut dec = Decoder::new(0, CostModel::default());
        for p in &packets {
            dec.ingest(p.clone());
        }
        (dec, packets)
    }

    #[test]
    fn decode_in_order_succeeds() {
        let (mut dec, packets) = stream(9, 2, 9);
        for p in &packets {
            let f = dec.decode(p.meta.seq).expect("in-order decode");
            assert_eq!(f.seq, p.meta.seq);
            assert_eq!(f.scene, p.scene);
        }
        assert_eq!(dec.stats().decoded_total(), 9);
    }

    #[test]
    fn decode_b_without_refs_fails() {
        let (mut dec, _) = stream(9, 2, 9);
        // seq 2 is a B referencing I0 and P1.
        let err = dec.decode(2).unwrap_err();
        assert!(matches!(
            err,
            CodecError::MissingReference { missing: 0, .. }
        ));
    }

    #[test]
    fn decode_closure_charges_full_cost() {
        let (mut dec, _) = stream(9, 2, 9);
        let frames = dec.decode_closure(2).expect("closure decode");
        assert_eq!(frames.len(), 3); // I0, P1, B2
        assert_eq!(frames[0].seq, 0);
        assert_eq!(frames[2].seq, 2);
        let costs = CostModel::default();
        let expected = costs.c_i + costs.c_p + costs.c_b;
        assert!((dec.stats().cost_spent - expected).abs() < 1e-9);
    }

    #[test]
    fn hand_off_fills_and_clears_the_callers_buffer() {
        let (mut dec, _) = stream(9, 2, 9);
        let (mut seqs, mut packets) = (Vec::new(), Vec::new());
        let cost = dec.hand_off_closure(2, &mut seqs, &mut packets);
        let costs = CostModel::default();
        assert_eq!(cost, Some(costs.c_i + costs.c_p + costs.c_b));
        let handed: Vec<u64> = packets.iter().map(|p| p.meta.seq).collect();
        assert_eq!(handed, [0, 1, 2]);
        assert!(dec.tracker().is_decoded(1));
        // Only what is still undecoded is handed off; a failure empties
        // the buffer.
        assert_eq!(
            dec.hand_off_closure(3, &mut seqs, &mut packets),
            Some(costs.c_b)
        );
        assert_eq!(packets.len(), 1);
        assert_eq!(dec.hand_off_closure(1000, &mut seqs, &mut packets), None);
        assert!(packets.is_empty());
    }

    #[test]
    fn redecoding_is_free() {
        let (mut dec, _) = stream(9, 2, 9);
        dec.decode(0).unwrap();
        let cost1 = dec.stats().cost_spent;
        dec.decode(0).unwrap();
        assert_eq!(dec.stats().cost_spent, cost1);
        assert_eq!(dec.stats().decoded_i, 1);
    }

    #[test]
    fn pending_cost_shrinks_after_decoding_refs() {
        let (mut dec, _) = stream(9, 2, 9);
        let before = dec.pending_cost(2).unwrap();
        dec.decode(0).unwrap();
        dec.decode(1).unwrap();
        let after = dec.pending_cost(2).unwrap();
        assert!(after < before);
        assert!((after - 1.0).abs() < 1e-9); // just the B itself
    }

    #[test]
    fn unknown_packet_is_an_error() {
        let (mut dec, _) = stream(9, 2, 9);
        assert!(matches!(
            dec.decode(1000),
            Err(CodecError::UnknownPacket { seq: 1000, .. })
        ));
        assert!(dec.decode_closure(1000).is_err());
    }

    #[test]
    fn skipping_gops_then_decoding_new_i_works() {
        let (mut dec, packets) = stream(5, 0, 20);
        // Skip GOPs 0-2 entirely; decode GOP 3's I (seq 15).
        let seq = packets[15].meta.seq;
        assert_eq!(packets[15].meta.frame_type, FrameType::I);
        let frames = dec.decode_closure(seq).unwrap();
        assert_eq!(frames.len(), 1);
    }

    #[test]
    fn store_is_pruned() {
        let (dec, _) = stream(10, 2, 1000);
        assert!(dec.tracker().tracked() <= 20);
    }

    #[test]
    fn stats_count_by_type() {
        let (mut dec, packets) = stream(9, 2, 9);
        for p in &packets {
            dec.decode(p.meta.seq).unwrap();
        }
        let s = dec.stats();
        assert_eq!(s.decoded_i, 1);
        assert_eq!(s.decoded_p, 4); // P1 P4 P7 P8
        assert_eq!(s.decoded_b, 4); // B2 B3 B5 B6
        assert_eq!(s.ingested, 9);
    }
}
