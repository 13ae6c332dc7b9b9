//! Cross-crate property-based tests on the system's core invariants.

use proptest::prelude::*;

use pg_codec::{
    parse_stream, serialize_stream, Codec, CostModel, Decoder, DependencyTracker, Encoder,
    EncoderConfig, FrameType,
};
use pg_scene::{generator_for, TaskKind};

fn any_codec() -> impl Strategy<Value = Codec> {
    prop_oneof![
        Just(Codec::H264),
        Just(Codec::H265),
        Just(Codec::Vp9),
        Just(Codec::Jpeg2000),
    ]
}

fn any_task() -> impl Strategy<Value = TaskKind> {
    prop_oneof![
        Just(TaskKind::PersonCounting),
        Just(TaskKind::AnomalyDetection),
        Just(TaskKind::SuperResolution),
        Just(TaskKind::FireDetection),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any (codec, gop, b-frames, bitrate, task, seed) combination produces
    /// a stream that serializes, parses back identically, and decodes fully
    /// in order.
    #[test]
    fn encode_serialize_parse_decode_roundtrip(
        codec in any_codec(),
        gop in 1u32..40,
        b_frames in 0u32..4,
        bitrate in 50_000u32..8_000_000,
        task in any_task(),
        seed in 0u64..1000,
    ) {
        let enc = EncoderConfig::new(codec)
            .with_gop(gop)
            .with_b_frames(b_frames)
            .with_bitrate(bitrate);
        let mut gen = generator_for(task, seed, enc.fps);
        let mut encoder = Encoder::for_stream(enc, seed, 9);
        let packets: Vec<_> = (0..60).map(|_| encoder.encode(&gen.next_frame())).collect();

        // Every packet is structurally valid.
        for p in &packets {
            prop_assert!(p.validate().is_ok(), "{:?}", p.validate());
        }

        // Bytes roundtrip.
        let bytes = serialize_stream(9, &enc, &packets);
        let (header, parsed) = parse_stream(&bytes).expect("parse");
        prop_assert_eq!(header.config, enc);
        prop_assert_eq!(&parsed, &packets);

        // In-order decode succeeds for every packet.
        let mut decoder = Decoder::new(9, CostModel::default());
        for p in parsed {
            let seq = p.meta.seq;
            decoder.ingest(p);
            prop_assert!(decoder.decode(seq).is_ok());
        }
        prop_assert_eq!(decoder.stats().decoded_total(), 60);
    }

    /// Pending closure cost is monotone: at every arrival, decoding the
    /// newest packet's closure never increases the pending cost of the
    /// next arrival.
    #[test]
    fn pending_cost_is_monotone_under_decoding(
        gop in 2u32..20,
        b_frames in 0u32..3,
        decode_mask in proptest::collection::vec(any::<bool>(), 40),
        seed in 0u64..500,
    ) {
        let enc = EncoderConfig::new(Codec::H264).with_gop(gop).with_b_frames(b_frames);
        let mut gen = generator_for(TaskKind::PersonCounting, seed, enc.fps);
        let mut encoder = Encoder::new(enc, seed);
        let costs = CostModel::default();

        let mut tracker = DependencyTracker::new();
        for &decode in &decode_mask {
            let p = encoder.encode(&gen.next_frame());
            tracker.note_arrival(&p);
            let before = tracker.pending_cost(p.meta.seq, &costs).unwrap();
            prop_assert!(before >= costs.cost(p.meta.frame_type) - 1e-9);
            if decode {
                for s in tracker.pending_closure(p.meta.seq).unwrap() {
                    tracker.mark_decoded(s);
                }
                let after = tracker.pending_cost(p.meta.seq, &costs).unwrap();
                prop_assert!(
                    after <= before + 1e-9,
                    "packet {} pending cost grew: {before} -> {after}",
                    p.meta.seq
                );
            }
        }
    }

    /// The closure of a freshly-arrived packet is self-contained: every
    /// reference of every closure member is either decoded or in the
    /// closure. (Queried at arrival time, the live access pattern — the
    /// tracker prunes GOPs older than one behind the newest.)
    #[test]
    fn closures_are_self_contained(
        gop in 2u32..25,
        b_frames in 0u32..3,
        seed in 0u64..500,
    ) {
        let enc = EncoderConfig::new(Codec::H264).with_gop(gop).with_b_frames(b_frames);
        let mut gen = generator_for(TaskKind::FireDetection, seed, enc.fps);
        let mut encoder = Encoder::new(enc, seed);

        let mut tracker = DependencyTracker::new();
        let mut by_seq: std::collections::HashMap<u64, Vec<u64>> = Default::default();
        for _ in 0..50 {
            let p = encoder.encode(&gen.next_frame());
            tracker.note_arrival(&p);
            by_seq.insert(p.meta.seq, p.refs.to_vec());
            let seq = p.meta.seq;
            let closure = tracker.pending_closure(seq).unwrap();
            let closure_set: std::collections::HashSet<u64> =
                closure.iter().copied().collect();
            for &s in &closure {
                for &r in &by_seq[&s] {
                    prop_assert!(
                        closure_set.contains(&r) || tracker.is_decoded(r),
                        "closure of {seq} misses reference {r} of member {s}"
                    );
                }
            }
        }
    }

    /// Decoding in closure order always succeeds and charges exactly the
    /// pending cost quoted at arrival time.
    #[test]
    fn closure_decode_cost_matches_quote(
        gop in 2u32..20,
        decode_mask in proptest::collection::vec(any::<bool>(), 40),
        seed in 0u64..500,
    ) {
        let enc = EncoderConfig::new(Codec::H264).with_gop(gop).with_b_frames(2);
        let mut gen = generator_for(TaskKind::AnomalyDetection, seed, enc.fps);
        let mut encoder = Encoder::new(enc, seed);
        let mut decoder = Decoder::new(0, CostModel::default());
        for &decode in &decode_mask {
            let p = encoder.encode(&gen.next_frame());
            let seq = p.meta.seq;
            decoder.ingest(p);
            if decode {
                let quote = decoder.pending_cost(seq).unwrap();
                let before = decoder.stats().cost_spent;
                decoder.decode_closure(seq).expect("decodes");
                let charged = decoder.stats().cost_spent - before;
                prop_assert!(
                    (charged - quote).abs() < 1e-9,
                    "quote {quote} vs charged {charged}"
                );
            }
        }
    }

    /// Scene necessity rates stay in a sane band for all tasks and seeds —
    /// the workload never degenerates into all-necessary or all-redundant.
    #[test]
    fn necessity_rates_are_sane(task in any_task(), seed in 0u64..200) {
        let mut gen = generator_for(task, seed, 25.0);
        let trace = gen.generate(4000);
        let rate = trace.necessity_rate();
        prop_assert!(rate > 0.001, "{task} seed {seed}: rate {rate} ~ 0");
        prop_assert!(rate < 0.95, "{task} seed {seed}: rate {rate} ~ 1");
    }

    /// JPEG2000 streams are all-I regardless of configuration.
    #[test]
    fn jpeg2000_is_always_intra(gop in 1u32..50, b in 0u32..5, seed in 0u64..100) {
        let enc = EncoderConfig::new(Codec::Jpeg2000).with_gop(gop).with_b_frames(b);
        let mut gen = generator_for(TaskKind::SuperResolution, seed, enc.fps);
        let mut encoder = Encoder::new(enc, seed);
        for _ in 0..30 {
            let p = encoder.encode(&gen.next_frame());
            prop_assert_eq!(p.meta.frame_type, FrameType::I);
            prop_assert!(p.refs.is_empty());
        }
    }
}
