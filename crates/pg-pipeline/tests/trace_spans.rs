//! End-to-end properties of the tracing subsystem (ISSUE 9): causal
//! ordering of recorded spans, round-coverage and attribution accuracy
//! against the independently measured round latencies, decision
//! neutrality of the trace hooks, and the bounded-store guarantee.

use std::collections::HashMap;

use pg_pipeline::concurrent::{ConcurrentConfig, ConcurrentPipeline, DecodeWorkModel};
use pg_pipeline::gate::DecodeAll;
use pg_pipeline::round::{RoundSimulator, SimConfig};
use pg_pipeline::{Telemetry, Trace, TraceConfig, TraceSpan, TraceStage};
use pg_scene::TaskKind;
use proptest::prelude::*;

fn traced_concurrent_run(
    streams: usize,
    rounds: u64,
    workers: usize,
    shards: usize,
) -> (pg_pipeline::ConcurrentReport, Trace) {
    let trace = Trace::enabled();
    let telemetry = Telemetry::enabled().with_trace(trace.clone());
    let cfg = ConcurrentConfig {
        streams,
        rounds,
        decode_workers: workers,
        parser_shards: shards,
        budget_per_round: 1e9,
        work: DecodeWorkModel::spin(100),
        ..ConcurrentConfig::default()
    };
    let report = ConcurrentPipeline::new(cfg)
        .with_telemetry(telemetry)
        .run(&mut DecodeAll);
    (report, trace)
}

/// Check causal ordering over a recorded span set. A parent link is one
/// of two kinds: an *enclosing* link (the child begins inside the
/// parent's interval — e.g. Round → GateSelect) must nest fully, and a
/// *follows-from* link (the child begins at or after the parent's end —
/// e.g. QueueWait → Decode, Decode → Infer) only requires begin ordering.
/// Either way a child can never begin before its parent. Returns the
/// number of parent links actually checked.
fn assert_causal_order(spans: &[TraceSpan]) -> usize {
    let by_id: HashMap<u64, &TraceSpan> = spans.iter().map(|s| (s.id, s)).collect();
    let mut checked = 0;
    for child in spans {
        if child.parent == 0 {
            continue;
        }
        // The bounded store may have evicted the parent; only retained
        // pairs are checkable.
        let Some(parent) = by_id.get(&child.parent) else {
            continue;
        };
        checked += 1;
        assert!(
            parent.begin_ns <= child.begin_ns,
            "child {:?} (id {}) begins at {} before its parent {:?} (id {}) at {}",
            child.stage,
            child.id,
            child.begin_ns,
            parent.stage,
            parent.id,
            parent.begin_ns,
        );
        if parent.track == child.track && child.begin_ns < parent.end_ns {
            // Enclosing link: the child started inside the parent's
            // interval on the same track, so it must end inside it too
            // (same-thread clock reads are ordered, so nesting is exact,
            // not approximate). Cross-track links — a queue-wait span
            // begun at dispatch on the gate thread but closed by the
            // worker that popped it — only guarantee begin ordering.
            assert!(
                child.end_ns <= parent.end_ns,
                "enclosed child {:?} [{}, {}] escapes parent {:?} [{}, {}]",
                child.stage,
                child.begin_ns,
                child.end_ns,
                parent.stage,
                parent.begin_ns,
                parent.end_ns,
            );
        }
    }
    checked
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Causal-ordering property over varied pipeline shapes: every
    /// retained child span begins after its parent, and same-track
    /// children nest fully inside their parents.
    #[test]
    fn spans_nest_inside_their_parents(
        streams in 2usize..6,
        rounds in 10u64..30,
        workers in 1usize..4,
        shards in 1usize..3,
    ) {
        let (_, trace) = traced_concurrent_run(streams, rounds, workers, shards);
        let spans = trace.spans();
        prop_assert!(!spans.is_empty(), "a traced run must record spans");
        let checked = assert_causal_order(&spans);
        prop_assert!(checked > 0, "at least some parent links must be retained");
    }
}

#[test]
fn round_spans_cover_measured_round_wall_time() {
    let (report, trace) = traced_concurrent_run(4, 40, 4, 2);
    let snapshot = trace.snapshot().expect("enabled trace snapshots");
    let measured_us: u64 = report.round_latency_us.iter().sum();
    let round_stage = snapshot
        .stage(TraceStage::Round)
        .expect("round spans recorded");
    assert_eq!(round_stage.count, 40, "one round span per round");
    // The round span brackets a strict superset of the measured interval
    // (it opens before the health tick and closes after the latency
    // push), so its total must cover at least 95% of the measured time.
    assert!(
        round_stage.total_us as f64 >= 0.95 * measured_us as f64,
        "round spans cover {} µs of {} µs measured",
        round_stage.total_us,
        measured_us,
    );
}

#[test]
fn stage_attribution_sums_within_ten_percent_of_round_latency() {
    let (report, trace) = traced_concurrent_run(8, 60, 2, 2);
    let snapshot = trace.snapshot().expect("enabled trace snapshots");
    let measured_us: u64 = report.round_latency_us.iter().sum();
    let attributed_us: u64 = [
        TraceStage::IngestWait,
        TraceStage::Assemble,
        TraceStage::GateSelect,
        TraceStage::Dispatch,
    ]
    .into_iter()
    .filter_map(|stage| snapshot.stage(stage))
    .map(|s| s.total_us)
    .sum();
    let measured = measured_us as f64;
    let attributed = attributed_us as f64;
    assert!(
        (attributed - measured).abs() <= 0.10 * measured,
        "attributed {attributed} µs vs measured {measured} µs (>10% apart)",
    );
}

#[test]
fn queue_wait_spans_ride_decode_jobs_across_threads() {
    let (report, trace) = traced_concurrent_run(4, 30, 4, 1);
    assert_eq!(report.packets_decoded, 120);
    let snapshot = trace.snapshot().expect("snapshot");
    let queue = snapshot
        .stage(TraceStage::QueueWait)
        .expect("queue-wait spans recorded");
    let decode = snapshot
        .stage(TraceStage::Decode)
        .expect("decode spans recorded");
    assert_eq!(queue.count, 120, "one queue-wait span per dispatched job");
    assert_eq!(decode.count, 120, "one decode span per executed job");
    // Four workers' waits overlap in wall time, so the summed share may
    // exceed one round's span; it must only be a well-formed share.
    assert!(snapshot.queue_wait_share.is_finite() && snapshot.queue_wait_share >= 0.0);
    // Every retained decode span is parented by a queue-wait span, and
    // the spans land on decode-worker tracks, not the gate track.
    let spans = trace.spans();
    let by_id: HashMap<u64, &TraceSpan> = spans.iter().map(|s| (s.id, s)).collect();
    let mut parented = 0;
    for s in &spans {
        if s.stage == TraceStage::Decode {
            assert!(
                matches!(s.track, pg_pipeline::Track::Decode(_)),
                "decode span on {:?}",
                s.track
            );
            if let Some(parent) = by_id.get(&s.parent) {
                assert_eq!(parent.stage, TraceStage::QueueWait);
                parented += 1;
            }
        }
    }
    assert!(parented > 0, "decode spans must link to queue-wait parents");
}

/// Tracing must be decision-neutral: the same seeded run produces the
/// same deterministic outputs with no telemetry, with a disabled trace,
/// and with tracing fully enabled.
#[test]
fn disabled_and_enabled_trace_runs_are_bit_identical() {
    let cfg = ConcurrentConfig {
        streams: 6,
        rounds: 40,
        decode_workers: 2,
        parser_shards: 2,
        budget_per_round: 4.0,
        work: DecodeWorkModel::spin(100),
        ..ConcurrentConfig::default()
    };
    let baseline = ConcurrentPipeline::new(cfg.clone()).run(&mut DecodeAll);
    let disabled = ConcurrentPipeline::new(cfg.clone())
        .with_telemetry(Telemetry::enabled().with_trace(Trace::disabled()))
        .run(&mut DecodeAll);
    let enabled = ConcurrentPipeline::new(cfg)
        .with_telemetry(Telemetry::enabled().with_trace(Trace::enabled()))
        .run(&mut DecodeAll);
    for run in [&disabled, &enabled] {
        assert_eq!(baseline.packets_parsed, run.packets_parsed);
        assert_eq!(baseline.packets_decoded, run.packets_decoded);
        assert_eq!(baseline.frames_decoded, run.frames_decoded);
        assert_eq!(baseline.frames_per_stream, run.frames_per_stream);
        assert_eq!(baseline.bytes_parsed, run.bytes_parsed);
        assert!((baseline.cost_spent - run.cost_spent).abs() < 1e-9);
    }
}

#[test]
fn span_store_never_exceeds_its_cap_under_a_long_run() {
    let cap = 512usize;
    let trace = Trace::with_config(TraceConfig {
        sample_every: 1,
        capacity: cap,
    });
    let report = RoundSimulator::uniform(
        TaskKind::PersonCounting,
        4,
        7,
        SimConfig {
            budget_per_round: 2.0,
            segments: 4,
            ..SimConfig::default()
        },
    )
    .with_telemetry(Telemetry::enabled().with_trace(trace.clone()))
    .run(&mut DecodeAll, 1_000);
    assert_eq!(report.rounds, 1_000);
    let snapshot = trace.snapshot().expect("snapshot");
    assert!(
        snapshot.spans_retained <= cap,
        "store holds {} spans over the {} cap",
        snapshot.spans_retained,
        cap
    );
    assert!(trace.spans().len() <= cap);
    assert!(
        snapshot.spans_evicted > 0,
        "a 1k-round run must overflow a {cap}-span store"
    );
    // Attribution still covers every recorded span despite eviction.
    assert!(snapshot.spans_recorded > cap as u64);
    let round_stage = snapshot.stage(TraceStage::Round).expect("round stage");
    assert_eq!(round_stage.count, 1_000);
}

#[test]
fn sampled_tracing_records_only_sampled_rounds() {
    let trace = Trace::with_config(TraceConfig {
        sample_every: 8,
        capacity: 4096,
    });
    let (_, telemetry) = {
        let telemetry = Telemetry::enabled().with_trace(trace.clone());
        let cfg = ConcurrentConfig {
            streams: 2,
            rounds: 32,
            decode_workers: 1,
            parser_shards: 1,
            budget_per_round: 1e9,
            work: DecodeWorkModel::spin(50),
            ..ConcurrentConfig::default()
        };
        let report = ConcurrentPipeline::new(cfg)
            .with_telemetry(telemetry.clone())
            .run(&mut DecodeAll);
        (report, telemetry)
    };
    let snapshot = telemetry.snapshot().expect("snapshot");
    let trace_snap = snapshot.trace.expect("trace snapshot rides telemetry");
    let round_stage = trace_snap.stage(TraceStage::Round).expect("round stage");
    assert_eq!(round_stage.count, 4, "32 rounds at sample_every=8");
    for span in trace.spans() {
        assert_eq!(span.round % 8, 0, "unsampled round {} leaked", span.round);
    }
}
