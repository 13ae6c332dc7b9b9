//! Single-threaded layer probes.
//!
//! Each probe times one layer's public functions on the workload's own
//! input chunks, with nothing else running, and counts its allocations.
//! The probe costs are what `pipeline.orchestration_ns_per_stream_round`
//! subtracts from the end-to-end CPU cost: what is left is the runtime's
//! own channels, batches, stores and pool.

use std::hint::black_box;
use std::time::Instant;

use crate::alloc;
use crate::inputs::Inputs;
use crate::surface::{
    data_payload, encode_frame_into, model_for, test_config, train_for_task, Codec, CostModel,
    DecodedFrame, Decoder, DependencyTracker, FeedbackEvent, FrameDecoder, GatePolicy, Packet,
    PacketContext, PacketGame, PacketParser, RedundancyJudge, FT_DATA,
};
use crate::workload::TASK;

/// Probes look at no more than this many packets, so they stay a small
/// part of a traced run.
const MAX_PROBE_PACKETS: usize = 120_000;
/// Stand-in for the gate's keep rate where a probe must pick packets to
/// decode: every fourth packet, close to the measured 22–25%.
const DECODE_EVERY: usize = 4;
/// Socket-read granularity of the frame-decode probe.
const READ_CHUNK: usize = 64 * 1024;

/// Run every probe on (a prefix of) `inputs`; values are pushed by name.
pub fn run(inputs: &Inputs, budget: f64, seed: u64, values: &mut Vec<(&'static str, f64)>) {
    let m = inputs.streams;
    let rounds = (inputs.rounds as usize).min((MAX_PROBE_PACKETS / m).max(1));
    values.push((
        "codec.encode_ns_per_packet",
        inputs.encode_time.as_nanos() as f64 / inputs.chunk_count().max(1) as f64,
    ));

    // ---- pg-codec: parse ----
    let mut parsers: Vec<PacketParser> = (0..m).map(|_| PacketParser::new()).collect();
    for (p, h) in parsers.iter_mut().zip(&inputs.headers) {
        p.push_shared(h.clone());
        assert!(
            matches!(p.next_packet(), Ok(None)),
            "a header yields no packet"
        );
    }
    // Round-major, like the runtime sees them.
    let mut packets: Vec<Packet> = Vec::with_capacity(m * rounds);
    let a0 = alloc::snapshot();
    let t = Instant::now();
    for round in 0..rounds {
        for (i, parser) in parsers.iter_mut().enumerate() {
            parser.push_shared(inputs.chunk(round as u64, i).clone());
            while let Some(p) = parser.next_packet().expect("clean input parses") {
                packets.push(p);
            }
        }
    }
    let parse_ns = t.elapsed().as_nanos() as f64;
    let parse_allocs = alloc::since(a0).allocs;
    assert_eq!(packets.len(), m * rounds, "one packet per chunk");
    let n = packets.len() as f64;
    values.push(("codec.parse_ns_per_packet", parse_ns / n));
    values.push(("codec.parse_allocs_per_packet", parse_allocs as f64 / n));

    // ---- pg-codec: dependency closure ----
    let costs = CostModel::default();
    let mut trackers: Vec<DependencyTracker> = (0..m).map(|_| DependencyTracker::new()).collect();
    let t = Instant::now();
    for (k, p) in packets.iter().enumerate() {
        let tracker = &mut trackers[k % m];
        tracker.note_arrival(p);
        black_box(
            tracker
                .pending_cost(p.meta.seq, &costs)
                .expect("clean input has no lost references"),
        );
        if k % DECODE_EVERY == 0 {
            let closure = tracker
                .pending_closure(p.meta.seq)
                .expect("clean input has no lost references");
            for s in &closure {
                tracker.mark_decoded(*s);
            }
            black_box(closure);
        }
    }
    values.push((
        "codec.closure_ns_per_packet",
        t.elapsed().as_nanos() as f64 / n,
    ));

    // ---- pg-codec: reference decoder (lockstep's decode path) ----
    let mut decoders: Vec<Decoder> = (0..m).map(|i| Decoder::new(i as u32, costs)).collect();
    let mut frames: Vec<DecodedFrame> = Vec::with_capacity(packets.len());
    let t = Instant::now();
    for (k, p) in packets.iter().enumerate() {
        let decoder = &mut decoders[k % m];
        decoder.ingest(p.clone());
        if k % DECODE_EVERY == 0 {
            frames.extend(
                decoder
                    .decode_closure(p.meta.seq)
                    .expect("clean input decodes"),
            );
        }
    }
    values.push((
        "codec.decode_ns_per_frame",
        t.elapsed().as_nanos() as f64 / frames.len().max(1) as f64,
    ));

    // ---- pg-inference: model plus redundancy judge ----
    let mut models: Vec<_> = (0..m).map(|_| model_for(TASK)).collect();
    let mut judges: Vec<RedundancyJudge> = (0..m).map(|_| RedundancyJudge::new()).collect();
    let t = Instant::now();
    let mut necessary = 0u64;
    for f in &frames {
        let i = f.stream_id as usize % m;
        let result = models[i].infer(f);
        necessary += u64::from(judges[i].feedback(result));
    }
    black_box(necessary);
    values.push((
        "inference.infer_ns_per_frame",
        t.elapsed().as_nanos() as f64 / frames.len().max(1) as f64,
    ));

    // ---- packetgame: select in isolation ----
    // The same candidates the runtime would offer, with feedback from the
    // real model on what the gate kept, but no other thread running.
    let mut gate = PacketGame::new(test_config(), train_for_task(TASK, &test_config(), seed));
    let mut trackers: Vec<DependencyTracker> = (0..m).map(|_| DependencyTracker::new()).collect();
    let mut judges: Vec<RedundancyJudge> = (0..m).map(|_| RedundancyJudge::new()).collect();
    let mut contexts: Vec<PacketContext> = Vec::with_capacity(m);
    let mut events: Vec<FeedbackEvent> = Vec::with_capacity(m);
    let (mut select_ns, mut select_allocs, mut offered) = (0u128, 0u64, 0u64);
    for round in 0..rounds {
        contexts.clear();
        let row = &packets[round * m..(round + 1) * m];
        for (i, p) in row.iter().enumerate() {
            trackers[i].note_arrival(p);
            contexts.push(PacketContext {
                stream_idx: i,
                meta: p.meta,
                pending_cost: trackers[i]
                    .pending_cost(p.meta.seq, &costs)
                    .expect("clean input has no lost references"),
                codec: Codec::H264,
                oracle_necessary: None,
            });
        }
        let a0 = alloc::snapshot();
        let t = Instant::now();
        let selection = gate.select(round as u64, &contexts, budget);
        select_ns += t.elapsed().as_nanos();
        // Warm-up rounds grow the gate's scratch; steady state starts
        // after the first GOP.
        if round >= rounds / 2 {
            select_allocs += alloc::since(a0).allocs;
        }
        offered += m as u64;
        events.clear();
        let mut spent = 0.0;
        for idx in selection {
            if spent >= budget {
                break;
            }
            let p = &row[idx];
            spent += contexts[idx].pending_cost;
            for s in trackers[idx]
                .pending_closure(p.meta.seq)
                .unwrap_or_default()
            {
                trackers[idx].mark_decoded(s);
            }
            let frame = DecodedFrame {
                stream_id: p.meta.stream_id,
                seq: p.meta.seq,
                pts: p.meta.pts,
                frame_type: p.meta.frame_type,
                scene: p.scene,
            };
            events.push(FeedbackEvent {
                stream_idx: idx,
                round: round as u64,
                necessary: judges[idx].feedback(models[idx].infer(&frame)),
            });
        }
        gate.feedback(&events);
    }
    values.push((
        "gate.isolated_select_ns_per_candidate",
        select_ns as f64 / offered.max(1) as f64,
    ));
    values.push((
        "gate.select_allocs_per_round",
        select_allocs as f64 / (rounds - rounds / 2).max(1) as f64,
    ));

    // ---- pg-net: PGL1 framing ----
    let mut wire = Vec::with_capacity(
        inputs.bytes as usize / inputs.rounds.max(1) as usize * rounds + 64 * m * rounds,
    );
    let t = Instant::now();
    for round in 0..rounds {
        for i in 0..m {
            let chunk = inputs.chunk(round as u64, i);
            encode_frame_into(
                &mut wire,
                FT_DATA,
                &data_payload(round as u64, chunk.as_slice()),
            );
        }
    }
    values.push((
        "net.frame_encode_ns_per_frame",
        t.elapsed().as_nanos() as f64 / n,
    ));
    let mut decoder = FrameDecoder::new();
    let mut out = Vec::with_capacity(READ_CHUNK / 64);
    let mut decoded = 0usize;
    let a0 = alloc::snapshot();
    let t = Instant::now();
    for read in wire.chunks(READ_CHUNK) {
        decoder
            .push(read, &mut out)
            .expect("well-formed frames decode");
        decoded += out.len();
        out.clear();
    }
    let decode_ns = t.elapsed().as_nanos() as f64;
    let decode_allocs = alloc::since(a0).allocs;
    assert_eq!(decoded, packets.len(), "one frame per chunk");
    values.push(("net.frame_decode_ns_per_frame", decode_ns / n));
    values.push((
        "net.frame_decode_allocs_per_frame",
        decode_allocs as f64 / n,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::concurrent_encoder;

    #[test]
    fn probes_report_every_layer() {
        let inputs = Inputs::generate(TASK, concurrent_encoder(), 7, 16, 60);
        let mut values = Vec::new();
        run(&inputs, 4.0, 7, &mut values);
        for name in [
            "codec.encode_ns_per_packet",
            "codec.parse_ns_per_packet",
            "codec.parse_allocs_per_packet",
            "codec.closure_ns_per_packet",
            "codec.decode_ns_per_frame",
            "inference.infer_ns_per_frame",
            "gate.isolated_select_ns_per_candidate",
            "gate.select_allocs_per_round",
            "net.frame_encode_ns_per_frame",
            "net.frame_decode_ns_per_frame",
            "net.frame_decode_allocs_per_frame",
        ] {
            let v = values.iter().find(|(n, _)| *n == name);
            assert!(
                v.is_some_and(|(_, v)| v.is_finite() && *v >= 0.0),
                "{name}: {v:?}"
            );
        }
    }
}
