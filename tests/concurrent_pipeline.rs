//! Integration tests for the threaded concurrent pipeline with real gates.

use std::sync::mpsc;
use std::time::Duration;

use packetgame::training::{test_config, train_for_task};
use packetgame::{PacketGame, RandomGate, TemporalGate};
use pg_pipeline::concurrent::{ConcurrentConfig, ConcurrentPipeline, DecodeWorkModel};
use pg_pipeline::gate::{DecodeAll, FeedbackEvent, GatePolicy, PacketContext};
use pg_pipeline::{ChunkFaultMode, FaultPlan, Stage, Telemetry};
use pg_scene::TaskKind;

fn base_config(budget: f64) -> ConcurrentConfig {
    ConcurrentConfig {
        streams: 12,
        rounds: 150,
        decode_workers: 2,
        budget_per_round: budget,
        task: TaskKind::AnomalyDetection,
        work: DecodeWorkModel::spin(30_000),
        seed: 11,
        ..ConcurrentConfig::default()
    }
}

#[test]
fn packetgame_gate_runs_through_threads() {
    let config = test_config();
    let predictor = train_for_task(TaskKind::AnomalyDetection, &config, 13);
    let mut gate = PacketGame::new(config, predictor);
    let report = ConcurrentPipeline::new(base_config(4.0)).run(&mut gate);
    assert_eq!(report.packets_parsed, 12 * 150);
    assert!(report.packets_decoded > 0);
    assert!(
        report.packets_decoded < report.packets_parsed,
        "the budget must actually gate"
    );
    // The async feedback loop (decode workers → gate) must have closed:
    // the gate's temporal state only updates via feedback events, and
    // selection stays functional throughout.
    assert!(report.frames_decoded >= report.packets_decoded);
}

#[test]
fn gating_speeds_up_the_wall_clock() {
    let mut all = DecodeAll;
    let full = ConcurrentPipeline::new(ConcurrentConfig {
        budget_per_round: 1e9,
        ..base_config(0.0)
    })
    .run(&mut all);

    let mut temporal = TemporalGate::new(5, 0.3);
    let gated = ConcurrentPipeline::new(base_config(3.0)).run(&mut temporal);

    assert!(
        gated.frames_decoded < full.frames_decoded / 2,
        "gated {} vs full {}",
        gated.frames_decoded,
        full.frames_decoded
    );
    assert!(
        gated.wall < full.wall,
        "gating should finish faster: {:?} vs {:?}",
        gated.wall,
        full.wall
    );
}

#[test]
fn pipeline_is_deterministic_for_feedback_free_gates() {
    // Wall-clock varies and feedback *timing* is thread-dependent, so only
    // gates that ignore feedback are bit-deterministic across runs.
    let run = || {
        let mut gate = RandomGate::new(9);
        let r = ConcurrentPipeline::new(base_config(2.0)).run(&mut gate);
        (r.packets_parsed, r.packets_decoded, r.frames_decoded)
    };
    assert_eq!(run(), run());
}

/// A gate that panics after a fixed number of rounds — the deterministic
/// stand-in for any stage failure inside the pipeline.
struct PanickingGate {
    rounds_before_panic: u64,
}

impl GatePolicy for PanickingGate {
    fn name(&self) -> &'static str {
        "panicking"
    }
    fn select(&mut self, round: u64, candidates: &[PacketContext], _b: f64) -> Vec<usize> {
        assert!(
            round < self.rounds_before_panic,
            "gate policy failure injected at round {round}"
        );
        (0..candidates.len()).collect()
    }
    fn feedback(&mut self, _e: &[FeedbackEvent]) {}
}

/// Run `f` on a helper thread and insist it finishes within `secs` seconds
/// — converts a shutdown deadlock into a test failure instead of a hang.
fn must_finish_within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx
        .recv_timeout(Duration::from_secs(secs))
        .expect("pipeline did not shut down within the deadline");
    handle.join().expect("helper thread");
    out
}

#[test]
fn panicking_gate_yields_error_not_deadlock() {
    // A gate panic tears down the gate thread mid-run. Every other stage
    // must observe its channels closing and drain out; try_run converts
    // the unwind into an Err. The deadline turns any regression into a
    // failure rather than a hung test binary.
    let result = must_finish_within(60, || {
        let mut gate = PanickingGate {
            rounds_before_panic: 10,
        };
        ConcurrentPipeline::new(base_config(1e9)).try_run(&mut gate)
    });
    let err = result.expect_err("a panicking gate must surface as Err");
    assert!(
        err.contains("round 10"),
        "error should carry the panic payload, got: {err}"
    );
}

#[test]
fn immediate_gate_panic_still_shuts_down() {
    // Panic on the very first decision: producer and parser are mid-flight
    // with full channels; all of them must still unwind promptly.
    let result = must_finish_within(60, || {
        let mut gate = PanickingGate {
            rounds_before_panic: 0,
        };
        ConcurrentPipeline::new(base_config(2.0)).try_run(&mut gate)
    });
    assert!(result.is_err());
}

#[test]
fn try_run_passes_reports_through_on_success() {
    let report = must_finish_within(120, || {
        let mut gate = RandomGate::new(5);
        ConcurrentPipeline::new(base_config(2.0)).try_run(&mut gate)
    })
    .expect("healthy run succeeds");
    assert_eq!(report.packets_parsed, 12 * 150);
    assert!(report.packets_decoded > 0);
}

#[test]
fn telemetry_snapshot_rides_on_the_concurrent_report() {
    let telemetry = Telemetry::enabled();
    let mut gate = DecodeAll;
    let report = ConcurrentPipeline::new(ConcurrentConfig {
        budget_per_round: 1e9,
        ..base_config(0.0)
    })
    .with_telemetry(telemetry)
    .run(&mut gate);

    let snap = report.telemetry.expect("telemetry attached");
    let parse = snap.stage(Stage::Parse).expect("parse stage");
    let decode = snap.stage(Stage::Decode).expect("decode stage");
    let infer = snap.stage(Stage::Infer).expect("infer stage");
    assert_eq!(parse.items, report.packets_parsed);
    assert_eq!(decode.items, report.frames_decoded);
    assert_eq!(infer.items, report.frames_decoded);
    let gate_stage = snap.stage(Stage::Gate).expect("gate stage");
    assert_eq!(gate_stage.calls, report.rounds);
    // Stage timing flows into the histograms.
    let bucket_sum: u64 = gate_stage.latency_buckets.iter().map(|b| b.count).sum();
    assert_eq!(bucket_sum, report.rounds);

    // Without a handle, reports carry no telemetry.
    let mut gate = DecodeAll;
    let plain = ConcurrentPipeline::new(base_config(2.0)).run(&mut gate);
    assert!(plain.telemetry.is_none());
}

#[test]
fn worker_count_is_invisible_to_a_feedback_free_gate() {
    // Each worker now runs decode → infer → feedback for the jobs it
    // takes. `DecodeAll` ignores feedback and the budget admits everything,
    // so what a run reports cannot depend on how many workers share that.
    let run = |decode_workers| {
        let mut gate = DecodeAll;
        ConcurrentPipeline::new(ConcurrentConfig {
            decode_workers,
            budget_per_round: 1e9,
            work: DecodeWorkModel::spin(2_000),
            faults: FaultPlan::new(11).with_corrupt(7, 40, ChunkFaultMode::Truncate),
            ..base_config(0.0)
        })
        .with_telemetry(Telemetry::enabled())
        .run(&mut gate)
    };
    let (one, four) = (run(1), run(4));
    assert!(!one.faults.is_empty(), "the damaged chunk must be noticed");
    assert_eq!(one.packets_decoded, four.packets_decoded);
    assert_eq!(one.frames_per_stream, four.frames_per_stream);
    assert_eq!(one.faults, four.faults);
    assert_eq!(one.health, four.health);
    let inferred = |report: &pg_pipeline::ConcurrentReport| {
        let snap = report.telemetry.as_ref().expect("telemetry attached");
        snap.stage(Stage::Infer).expect("infer stage").items
    };
    assert_eq!(inferred(&one), one.packets_decoded);
    assert_eq!(inferred(&one), inferred(&four));
}
