//! Allocations of the learning gate and of offline training.
//!
//! With online learning on, a round's feature snapshots, the retrain
//! rings and the training step all live in flat, grow-only buffers
//! (DESIGN.md D20). Once every stream has been seen, `select` + `feedback`
//! allocate only what `select` allocates with learning off: the returned
//! `Vec`, plus `sort_by`'s heap scratch above 512 candidates. Offline
//! `train` stages one mini-batch at a time, so its allocations do not grow
//! with the number of samples it is given.
//!
//! The allocator is process-global, so this file holds exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use packetgame::training::{balance_dataset, build_offline_dataset, test_config, train};
use packetgame::{ContextualPredictor, OnlineConfig, PacketGame};
use pg_codec::{Codec, EncoderConfig, FrameType, PacketMeta};
use pg_pipeline::gate::{FeedbackEvent, GatePolicy, PacketContext};
use pg_scene::TaskKind;

struct CountingAlloc;

// Per-thread flag, as in `batch_alloc.rs`: only the calling thread's
// allocations count, and a `const`-initialised `Cell` reads without
// allocating.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn counting() -> bool {
    COUNTING.with(Cell::get)
}

fn set_counting(on: bool) {
    COUNTING.with(|c| c.set(on));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Round `round`'s candidates: one packet per stream, 10-frame GOPs with
/// stream- and round-dependent sizes, unit decode cost.
fn fill_round(candidates: &mut Vec<PacketContext>, m: usize, round: u64) {
    candidates.clear();
    candidates.extend((0..m).map(|s| {
        let intra = round.is_multiple_of(10);
        let size =
            if intra { 30_000 } else { 2_000 } + ((s as u64 * 37 + round * 11) % 1_500) as u32;
        PacketContext {
            stream_idx: s,
            meta: PacketMeta {
                stream_id: s as u32,
                seq: round,
                pts: round,
                frame_type: if intra { FrameType::I } else { FrameType::P },
                size,
                gop_id: round / 10,
            },
            pending_cost: 1.0,
            codec: Codec::H264,
            oracle_necessary: None,
        }
    }));
}

/// Allocations made while `f` runs on this thread.
fn count<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::SeqCst);
    set_counting(true);
    let out = f();
    set_counting(false);
    (ALLOCS.load(Ordering::SeqCst) - before, out)
}

#[test]
fn learning_rounds_and_offline_training_allocate_a_bounded_amount() {
    // Phase 1: the learning gate at m = 1 024, B = 256.
    const WARM_UP: u64 = 300;
    const COUNTED: u64 = 20;
    const PER_ROUND: u64 = 8;
    let m = 1024;
    let config = test_config();
    let mut gate = PacketGame::new(config.clone(), ContextualPredictor::new(config));
    gate.enable_online_learning(OnlineConfig::default());
    let mut candidates = Vec::with_capacity(m);
    let mut events = Vec::with_capacity(m);
    let mut counted = 0;
    for round in 0..WARM_UP + COUNTED {
        fill_round(&mut candidates, m, round);
        let (n, kept) = count(|| gate.select(round, &candidates, (m / 4) as f64));
        events.clear();
        events.extend(kept.iter().map(|&s| FeedbackEvent {
            stream_idx: s,
            round,
            necessary: (s as u64 + round).is_multiple_of(3),
        }));
        let (n_fb, ()) = count(|| gate.feedback(&events));
        if round >= WARM_UP {
            counted += n + n_fb;
        }
    }
    let steps = gate.online_steps();
    assert!(steps >= WARM_UP, "learning must step every round: {steps}");
    assert!(
        counted <= PER_ROUND * COUNTED,
        "learning gate: {counted} allocations over {COUNTED} select + feedback rounds \
         (allowed {PER_ROUND} per round)"
    );

    // Phase 2: offline training, 2 000 against 8 000 samples.
    let mut config = test_config();
    config.epochs = 2;
    let enc = EncoderConfig::new(Codec::H264);
    let samples = build_offline_dataset(TaskKind::AnomalyDetection, 8, 1_500, enc, &config, 5);
    let samples = balance_dataset(&samples, 5);
    assert!(
        samples.len() >= 8_000,
        "dataset too small: {}",
        samples.len()
    );
    let mut allocs = Vec::new();
    for n in [2_000, 8_000] {
        let mut predictor = ContextualPredictor::new(config.clone());
        let (a, _) = count(|| train(&mut predictor, &samples[..n], &config));
        allocs.push(a);
    }
    assert!(
        allocs[1] <= allocs[0],
        "offline train allocations grow with the sample count: 2 000 → {}, 8 000 → {}",
        allocs[0],
        allocs[1]
    );
}
