//! Synthetic video encoder: scene frames in, encoded packets out.
//!
//! Packets are emitted **in decode order** (the order they arrive at a
//! receiver and the only order a decoder can process): `I P B B P B B …`
//! for `b_frames = 2`. A B packet's forward reference (the P that follows
//! it in *display* order) therefore precedes it in the packet sequence, so
//! every reference points backwards — exactly the situation PacketGame's
//! optimizer faces when it must "decode the packets that the current
//! prioritized packet refers to" (paper §5.3).
//!
//! Display-order timestamps (`pts`) are reconstructed per mini-group so the
//! reordering is visible to anyone who cares, but neither the gate nor the
//! downstream inference simulator consumes `pts`.

use rand::rngs::StdRng;

use pg_scene::rng::rng;
use pg_scene::SceneFrame;

use crate::config::EncoderConfig;
use crate::frame::FrameType;
use crate::packet::{Packet, PacketMeta, RefList};
use crate::size_model::SizeModel;

/// Stateful per-stream encoder. See module docs.
#[derive(Debug, Clone)]
pub struct Encoder {
    config: EncoderConfig,
    size_model: SizeModel,
    rng: StdRng,
    stream_id: u32,
    /// Next decode-order sequence number.
    seq: u64,
    /// Current GOP index.
    gop_id: u64,
    /// Decode-order position within the current GOP (0 = the I frame).
    pos_in_gop: u32,
    /// Sequence number of the reference frame that starts the current
    /// mini-group's backward dependency (I or previous P).
    back_ref: Option<u64>,
    /// Sequence number of the current mini-group's P frame (forward
    /// reference for its B frames).
    group_p: Option<u64>,
    /// B packets still to emit in the current mini-group.
    b_remaining: u32,
    /// Display-order base pts of the current mini-group.
    group_pts_base: u64,
    /// Next B pts offset within the group.
    b_pts_offset: u64,
    /// Scene-cut threshold for adaptive keyframe insertion: when the
    /// frame's motion exceeds it, a new GOP starts immediately (real
    /// encoders insert I-frames at scene changes). `None` = fixed GOPs.
    adaptive_cut: Option<f64>,
}

impl Encoder {
    /// Create an encoder for stream 0 with the given configuration.
    pub fn new(config: EncoderConfig, seed: u64) -> Self {
        Self::for_stream(config, seed, 0)
    }

    /// Create an encoder for a specific stream id (the seed is mixed with
    /// the stream id so fleets of encoders stay independent).
    pub fn for_stream(config: EncoderConfig, seed: u64, stream_id: u32) -> Self {
        Encoder {
            config,
            size_model: SizeModel::default(),
            rng: rng(seed, 0xE0C0_0000 + u64::from(stream_id)),
            stream_id,
            seq: 0,
            gop_id: 0,
            pos_in_gop: 0,
            back_ref: None,
            group_p: None,
            b_remaining: 0,
            group_pts_base: 0,
            b_pts_offset: 0,
            adaptive_cut: None,
        }
    }

    /// Replace the size model (e.g. to sweep the noise level).
    pub fn with_size_model(mut self, model: SizeModel) -> Self {
        self.size_model = model;
        self
    }

    /// Enable adaptive keyframe insertion: frames whose motion exceeds
    /// `threshold` open a new GOP with an I-frame, as real encoders do at
    /// scene cuts. The configured GOP length remains the maximum distance
    /// between keyframes.
    pub fn with_adaptive_gop(mut self, threshold: f64) -> Self {
        self.adaptive_cut = Some(threshold.max(0.0));
        self
    }

    /// The configuration this encoder was built with.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// Change the target bitrate mid-stream (a live encoder
    /// reconfiguration, e.g. an ABR ladder switch). Takes effect from the
    /// next encoded frame: packet sizes are sampled against the config at
    /// encode time, so no other encoder state needs rebuilding. GOP
    /// structure, sequence numbers, and the size-noise RNG stream are all
    /// unaffected — only the size scale moves.
    pub fn set_bitrate(&mut self, bitrate: u32) {
        self.config = self.config.with_bitrate(bitrate);
    }

    /// Stream id stamped on the packets.
    pub fn stream_id(&self) -> u32 {
        self.stream_id
    }

    /// Encode the next scene frame into a packet (decode order, 1-in-1-out).
    pub fn encode(&mut self, scene: &SceneFrame) -> Packet {
        // Intra-only codecs (JPEG2000) behave as GOP length 1: every frame
        // is an independent I picture.
        let gop = if self.config.codec.has_predicted_frames() {
            self.config.gop.max(1)
        } else {
            1
        };
        let b_frames = self.config.effective_b_frames();

        // Adaptive keyframe insertion: a scene cut restarts the GOP.
        if let Some(threshold) = self.adaptive_cut {
            if self.pos_in_gop != 0 && scene.motion > threshold {
                self.pos_in_gop = 0;
                self.gop_id += 1;
                self.back_ref = None;
                self.group_p = None;
                self.b_remaining = 0;
            }
        }

        // Decide the picture type and references for this decode slot.
        let (frame_type, refs, pts) = if self.pos_in_gop == 0 {
            // GOP opens with an I frame.
            self.back_ref = None;
            self.group_p = None;
            self.b_remaining = 0;
            self.group_pts_base = self.seq;
            (FrameType::I, RefList::new(), self.seq)
        } else if self.b_remaining > 0 {
            // B frame inside the current mini-group: references the group's
            // backward reference and its P (which already arrived).
            self.b_remaining -= 1;
            let mut refs = RefList::new();
            if let Some(r) = self.back_ref {
                refs.push(r);
            }
            if let Some(p) = self.group_p {
                refs.push(p);
            }
            let pts = self.group_pts_base + self.b_pts_offset;
            self.b_pts_offset += 1;
            if self.b_remaining == 0 {
                // Mini-group complete: its P becomes the next backward ref.
                self.back_ref = self.group_p.take();
            }
            (FrameType::B, refs, pts)
        } else {
            // Start a new mini-group with a P frame.
            let prev_ref = self.back_ref.or(self.group_p).unwrap_or(self.seq - 1);
            let remaining_in_gop = gop - self.pos_in_gop;
            // A complete mini-group is 1 P + b_frames B; if it no longer fits
            // before the GOP ends, close the GOP with plain P frames.
            let b_in_group = if remaining_in_gop > b_frames {
                b_frames
            } else {
                0
            };
            self.group_pts_base = self.seq; // pts of the group's first B slot
            self.b_pts_offset = 0;
            let pts = self.seq + u64::from(b_in_group);
            if b_in_group > 0 {
                self.group_p = Some(self.seq);
                self.b_remaining = b_in_group;
            } else {
                self.back_ref = Some(self.seq);
                self.group_p = None;
            }
            (FrameType::P, RefList::from([prev_ref]), pts)
        };

        // The very first reference frame of the GOP is the I frame itself.
        if frame_type == FrameType::I {
            self.back_ref = Some(self.seq);
        }

        let size = self.size_model.sample_size(
            &mut self.rng,
            &self.config,
            frame_type,
            scene.complexity,
            scene.motion,
        );

        let packet = Packet {
            meta: PacketMeta {
                stream_id: self.stream_id,
                seq: self.seq,
                pts,
                frame_type,
                size,
                gop_id: self.gop_id,
            },
            refs,
            scene: *scene,
            payload: bytes::Bytes::new(),
        };
        debug_assert!(packet.validate().is_ok(), "{:?}", packet.validate());

        // Advance GOP bookkeeping.
        self.seq += 1;
        self.pos_in_gop += 1;
        if self.pos_in_gop >= gop {
            self.pos_in_gop = 0;
            self.gop_id += 1;
        }
        packet
    }

    /// Encode a whole trace of scene frames.
    pub fn encode_trace(&mut self, frames: &[SceneFrame]) -> Vec<Packet> {
        frames.iter().map(|f| self.encode(f)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Codec;
    use pg_scene::{PersonSceneGen, SceneGenerator};

    fn packets(codec: Codec, gop: u32, b: u32, n: usize) -> Vec<Packet> {
        let config = EncoderConfig::new(codec).with_gop(gop).with_b_frames(b);
        let mut enc = Encoder::new(config, 5);
        let mut scene = PersonSceneGen::new(5, 25.0);
        (0..n).map(|_| enc.encode(&scene.next_frame())).collect()
    }

    fn type_string(packets: &[Packet]) -> String {
        packets
            .iter()
            .map(|p| p.meta.frame_type.to_string())
            .collect()
    }

    #[test]
    fn set_bitrate_rescales_packet_sizes_mid_stream() {
        let config = EncoderConfig::new(Codec::H264).with_gop(8).with_b_frames(0);
        let mut enc = Encoder::new(config, 5);
        let mut scene = PersonSceneGen::new(5, 25.0);
        let before: u64 = (0..64)
            .map(|_| u64::from(enc.encode(&scene.next_frame()).meta.size))
            .sum();
        let seq_before = enc.encode(&scene.next_frame()).meta.seq;
        enc.set_bitrate(config.bitrate * 2);
        let after: u64 = (0..64)
            .map(|_| u64::from(enc.encode(&scene.next_frame()).meta.size))
            .sum();
        // Sizes roughly double; sequence numbering continues unbroken.
        assert!(
            after > before * 3 / 2,
            "sizes did not rescale: {before} -> {after}"
        );
        assert_eq!(enc.config().bitrate, config.bitrate * 2);
        assert!(enc.encode(&scene.next_frame()).meta.seq > seq_before);
    }

    #[test]
    fn gop_pattern_ipbb() {
        let p = packets(Codec::H264, 9, 2, 18);
        // gop=9, b=2, decode order: I P B B P B B P P | repeat
        assert_eq!(type_string(&p), "IPBBPBBPPIPBBPBBPP");
    }

    #[test]
    fn gop_pattern_no_b_frames() {
        let p = packets(Codec::H264, 4, 0, 8);
        assert_eq!(type_string(&p), "IPPPIPPP");
    }

    #[test]
    fn jpeg2000_is_intra_only() {
        let p = packets(Codec::Jpeg2000, 25, 2, 50);
        assert!(p.iter().all(|pk| pk.meta.frame_type == FrameType::I));
        assert!(p.iter().all(|pk| pk.refs.is_empty()));
    }

    #[test]
    fn all_packets_validate() {
        for (gop, b) in [(1, 0), (2, 0), (5, 2), (25, 2), (300, 3), (7, 10)] {
            let pkts = packets(Codec::H264, gop, b, 200);
            for pk in &pkts {
                pk.validate()
                    .unwrap_or_else(|e| panic!("gop={gop} b={b}: {e}"));
            }
        }
    }

    #[test]
    fn b_frames_reference_backward_ref_and_group_p() {
        let p = packets(Codec::H264, 9, 2, 9);
        // seq: 0=I 1=P 2=B 3=B 4=P 5=B 6=B 7=P 8=P
        assert_eq!(p[2].refs, vec![0, 1]); // B refs I0 and P1
        assert_eq!(p[3].refs, vec![0, 1]);
        assert_eq!(p[4].refs, vec![1]); // P refs previous reference P1
        assert_eq!(p[5].refs, vec![1, 4]);
        assert_eq!(p[7].refs, vec![4]);
        assert_eq!(p[8].refs, vec![7]); // trailing P (group truncated at GOP end)
    }

    #[test]
    fn gop_ids_advance() {
        let p = packets(Codec::H264, 5, 0, 12);
        assert_eq!(p[0].meta.gop_id, 0);
        assert_eq!(p[4].meta.gop_id, 0);
        assert_eq!(p[5].meta.gop_id, 1);
        assert_eq!(p[10].meta.gop_id, 2);
    }

    #[test]
    fn i_sizes_exceed_p_sizes_on_average() {
        let p = packets(Codec::H264, 25, 2, 2000);
        let mean = |t: FrameType| {
            let v: Vec<f64> = p
                .iter()
                .filter(|pk| pk.meta.frame_type == t)
                .map(|pk| f64::from(pk.meta.size))
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(mean(FrameType::I) > 5.0 * mean(FrameType::P));
        assert!(mean(FrameType::P) > mean(FrameType::B));
    }

    #[test]
    fn encoder_is_deterministic() {
        let a = packets(Codec::H265, 25, 2, 300);
        let b = packets(Codec::H265, 25, 2, 300);
        assert_eq!(a, b);
    }

    #[test]
    fn per_stream_encoders_are_independent() {
        let config = EncoderConfig::new(Codec::H264);
        let mut e0 = Encoder::for_stream(config, 1, 0);
        let mut e1 = Encoder::for_stream(config, 1, 1);
        let mut scene = PersonSceneGen::new(1, 25.0);
        let f = scene.next_frame();
        let p0 = e0.encode(&f);
        let p1 = e1.encode(&f);
        assert_eq!(p0.meta.stream_id, 0);
        assert_eq!(p1.meta.stream_id, 1);
        assert_ne!(p0.meta.size, p1.meta.size, "noise streams should differ");
    }

    #[test]
    fn pts_reorders_within_groups() {
        let p = packets(Codec::H264, 9, 2, 9);
        // Group P1 B2 B3: display order should be B2 B3 P1 → P gets the
        // later pts.
        assert!(p[1].meta.pts > p[2].meta.pts);
        assert!(p[1].meta.pts > p[3].meta.pts);
    }

    #[test]
    fn adaptive_gop_inserts_keyframes_at_scene_cuts() {
        use pg_scene::{SceneFrame, SceneState};
        let config = EncoderConfig::new(Codec::H264)
            .with_gop(50)
            .with_b_frames(2);
        let mut enc = Encoder::new(config, 5).with_adaptive_gop(0.8);
        let mut packets = Vec::new();
        for i in 0..30u64 {
            // A hard cut at frame 17.
            let motion = if i == 17 { 2.0 } else { 0.1 };
            let frame = SceneFrame::new(i, 0.5, motion, SceneState::Fire(false));
            packets.push(enc.encode(&frame));
        }
        assert_eq!(packets[0].meta.frame_type, FrameType::I);
        assert_eq!(
            packets[17].meta.frame_type,
            FrameType::I,
            "scene cut must force a keyframe"
        );
        assert_eq!(packets[17].meta.gop_id, 1);
        assert!(packets[17].refs.is_empty());
        // Everything still validates and decodes in order.
        for p in &packets {
            p.validate().unwrap();
        }
        let mut dec = crate::decoder::Decoder::new(0, crate::cost::CostModel::default());
        for p in &packets {
            dec.ingest(p.clone());
            dec.decode(p.meta.seq).expect("in-order decode");
        }
    }

    #[test]
    fn adaptive_gop_respects_max_gop_length() {
        use pg_scene::{SceneFrame, SceneState};
        let config = EncoderConfig::new(Codec::H264)
            .with_gop(10)
            .with_b_frames(0);
        let mut enc = Encoder::new(config, 6).with_adaptive_gop(5.0); // never triggers
        let mut i_positions = Vec::new();
        for i in 0..40u64 {
            let frame = SceneFrame::new(i, 0.5, 0.1, SceneState::Fire(false));
            let p = enc.encode(&frame);
            if p.meta.frame_type == FrameType::I {
                i_positions.push(i);
            }
        }
        assert_eq!(i_positions, vec![0, 10, 20, 30]);
    }

    #[test]
    fn large_gop_300() {
        let p = packets(Codec::H264, 300, 2, 600);
        let i_count = p
            .iter()
            .filter(|pk| pk.meta.frame_type == FrameType::I)
            .count();
        assert_eq!(i_count, 2);
        assert_eq!(p[300].meta.frame_type, FrameType::I);
    }
}
