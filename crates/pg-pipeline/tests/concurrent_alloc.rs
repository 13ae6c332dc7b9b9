//! Allocation budget of the concurrent runtime's steady state.
//!
//! A counting global allocator wraps `System` and counts every thread:
//! the runtime's work is spread over parser, gate, decode and inference
//! threads. Input is generated before counting starts and replayed by a
//! source that only clones refcounted chunks, so what is counted is the
//! runtime itself: parse → window → pending cost → select → closure →
//! job → decode hand-off → inference → feedback.
//!
//! The measure is *marginal*: allocations of a 300-round run minus those
//! of a 100-round run, per stream-round of the 200 extra rounds. Thread
//! spawns, channels, parsers and windows growing to size, and buffers
//! warming up, are paid by both runs and cancel. A decode job's closure
//! buffer comes back with its verdict and a shard batch comes back to its
//! parser (DESIGN.md D19), so nothing is allocated per kept packet or per
//! shard batch. What remains is per round, not per stream: the gate's
//! selection `Vec` and the containers that park a round's batches.
//!
//! The measure is taken twice: on clean input, and with decodes stalled
//! and feedback dropped throughout the run. A buffer that an error path
//! failed to send back would be allocated anew for a later job, so the
//! allocations would grow with the run's length there too.
//!
//! The allocator is process-global, so this file holds exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use pg_pipeline::concurrent::ConcurrentConfig;
use pg_pipeline::{
    ChunkSource, ConcurrentPipeline, ConcurrentReport, DecodeWorkModel, FaultPlan, FeedbackEvent,
    GatePolicy, IngestSink, PacketContext, QuarantineConfig, StreamFeed,
};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn note_alloc() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const STREAMS: usize = 64;
const LONG: u64 = 300;
const SHORT: u64 = 100;
/// Allocations per stream-round the steady state may make.
const BOUND: f64 = 0.1;

/// Pre-generated input: one header and one record chunk per stream-round.
struct Inputs {
    headers: Vec<Bytes>,
    /// `rounds[r][i]` is stream `i`'s record of round `r`.
    rounds: Vec<Vec<Bytes>>,
}

/// Replays the first `rounds` rounds of [`Inputs`]; clones only.
struct Replay {
    inputs: Arc<Inputs>,
    rounds: u64,
}

impl ChunkSource for Replay {
    fn run(self: Box<Self>, sink: IngestSink) {
        for (i, header) in self.inputs.headers.iter().enumerate() {
            if !sink.deliver(i, 0, header.clone()) {
                return;
            }
        }
        for (round, row) in self
            .inputs
            .rounds
            .iter()
            .take(self.rounds as usize)
            .enumerate()
        {
            for (i, chunk) in row.iter().enumerate() {
                if !sink.deliver(i, round as u64, chunk.clone()) {
                    return;
                }
            }
        }
    }
}

/// Offers the candidates in a fresh pseudo-random order every round, like
/// `packetgame::RandomGate` (which this crate cannot depend on).
struct Shuffled(u64);

impl GatePolicy for Shuffled {
    fn name(&self) -> &'static str {
        "Shuffled"
    }

    fn select(&mut self, _round: u64, candidates: &[PacketContext], _budget: f64) -> Vec<usize> {
        let mut order: Vec<usize> = candidates.iter().map(|c| c.stream_idx).collect();
        for k in (1..order.len()).rev() {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            order.swap(k, (self.0 % (k as u64 + 1)) as usize);
        }
        order
    }

    fn feedback(&mut self, _events: &[FeedbackEvent]) {}
}

/// Run `rounds` rounds under `faults`; returns the allocations made
/// during the run and its report.
fn counted_run(inputs: &Arc<Inputs>, rounds: u64, faults: &FaultPlan) -> (u64, ConcurrentReport) {
    let cfg = ConcurrentConfig {
        streams: STREAMS,
        rounds,
        decode_workers: 1,
        parser_shards: 1,
        budget_per_round: 40.0,
        work: DecodeWorkModel::spin(0),
        // A stalled decode must not sideline its stream: the kept share,
        // and so the number of jobs, stays that of the clean run.
        quarantine: QuarantineConfig::disabled(),
        faults: faults.clone(),
        ..ConcurrentConfig::default()
    };
    let pipeline = ConcurrentPipeline::new(cfg);
    let source = Box::new(Replay {
        inputs: inputs.clone(),
        rounds,
    });
    let mut gate = Shuffled(0x9E37_79B9_7F4A_7C15);
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let report = pipeline.run_with_source(&mut gate, source);
    COUNTING.store(false, Ordering::SeqCst);
    assert_eq!(report.packets_parsed, STREAMS as u64 * rounds);
    (ALLOCS.load(Ordering::SeqCst), report)
}

/// Allocations per stream-round of the long run's extra rounds, and the
/// long run's report.
fn marginal(inputs: &Arc<Inputs>, faults: &FaultPlan) -> (f64, ConcurrentReport) {
    let (short_allocs, _) = counted_run(inputs, SHORT, faults);
    let (long_allocs, report) = counted_run(inputs, LONG, faults);
    let kept = report.packets_decoded as f64 / report.packets_parsed as f64;
    assert!(
        (0.15..=0.35).contains(&kept),
        "the budget should keep about a quarter of the packets, kept {kept:.3}"
    );
    let extra_stream_rounds = (STREAMS as u64 * (LONG - SHORT)) as f64;
    let marginal = (long_allocs as f64 - short_allocs as f64) / extra_stream_rounds;
    assert!(
        marginal <= BOUND,
        "{marginal:.3} allocations per stream-round in steady state \
         ({short_allocs} over {SHORT} rounds, {long_allocs} over {LONG}; {} faults)",
        report.faults.len()
    );
    (marginal, report)
}

/// Feedback dropped on every other stream-round, and one decode stalled
/// per round, over the whole long run. Dropped feedback is the dense one
/// because its error allocates nothing; a stall's error carries a message
/// string.
fn error_paths() -> FaultPlan {
    let mut plan = FaultPlan::new(5);
    for round in 0..LONG {
        for i in (round as usize % 2..STREAMS).step_by(2) {
            plan = plan.with_dropped_feedback(i, round);
        }
        plan = plan.with_decoder_stall(round as usize * 7 % STREAMS, round);
    }
    plan
}

#[test]
fn marginal_allocations_per_stream_round_stay_under_a_tenth() {
    let defaults = ConcurrentConfig::default();
    let no_faults = FaultPlan::default();
    let mut feeds: Vec<StreamFeed> = (0..STREAMS)
        .map(|i| StreamFeed::new(defaults.task, defaults.encoder, defaults.seed, i))
        .collect();
    let inputs = Arc::new(Inputs {
        headers: feeds
            .iter()
            .map(|f| Bytes::from(f.header_chunk(&no_faults)))
            .collect(),
        rounds: (0..LONG)
            .map(|round| {
                feeds
                    .iter_mut()
                    .map(|f| Bytes::from(f.next_chunk(round, &no_faults)))
                    .collect()
            })
            .collect(),
    });

    let (clean_marginal, clean) = marginal(&inputs, &no_faults);
    assert!(clean.faults.is_empty(), "clean input: {:?}", clean.faults);

    let (faulty_marginal, faulty) = marginal(&inputs, &error_paths());
    eprintln!(
        "allocations per stream-round: clean {clean_marginal:.4}, error paths {faulty_marginal:.4}"
    );
    for kind in ["decode_fail", "feedback_lost"] {
        let seen = faulty.faults.iter().filter(|f| f.kind == kind).count();
        assert!(
            seen >= 10,
            "only {seen} {kind} faults: the error paths were barely run"
        );
    }
}
