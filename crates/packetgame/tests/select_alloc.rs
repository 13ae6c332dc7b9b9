//! Allocations per `PacketGame::select` in steady state.
//!
//! The batched predictor and the knapsack both run in grow-only scratch,
//! so once the gate has seen its high-water round the only allocation a
//! `select` makes is the exact-size `Vec` the `GatePolicy` contract
//! returns — plus `sort_by`'s heap scratch when more than 512 candidates
//! are sorted. Nothing else: no regrown selection buffer, no helper
//! thread.
//!
//! The allocator is process-global, so this file holds exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use packetgame::training::test_config;
use packetgame::{ContextualPredictor, PacketGame};
use pg_codec::{Codec, FrameType, PacketMeta};
use pg_pipeline::gate::{FeedbackEvent, GatePolicy, PacketContext};

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

#[test]
fn steady_state_select_allocates_only_the_returned_vec() {
    const WARM_UP: u64 = 300;
    const COUNTED: u64 = 20;
    // Exactly the returned `Vec` at m = 64; at m = 1024 the sort's heap
    // scratch may add one more.
    for (m, allowed) in [(64usize, COUNTED..=COUNTED), (1024, COUNTED..=2 * COUNTED)] {
        let config = test_config();
        let mut gate = PacketGame::new(config.clone(), ContextualPredictor::new(config));
        let budget = (m / 4) as f64;
        let mut candidates = Vec::with_capacity(m);
        let mut events = Vec::with_capacity(m);
        let mut kept_sink = 0usize;
        ALLOCS.store(0, Ordering::SeqCst);
        for round in 0..WARM_UP + COUNTED {
            fill_round(&mut candidates, m, round);
            // Only the `select` calls after warm-up count.
            set_counting(round >= WARM_UP);
            let kept = gate.select(round, &candidates, budget);
            set_counting(false);
            kept_sink += kept.len();
            events.clear();
            events.extend(kept.iter().map(|&s| FeedbackEvent {
                stream_idx: s,
                round,
                necessary: (s as u64 + round).is_multiple_of(3),
            }));
            gate.feedback(&events);
        }
        assert!(kept_sink > 0);
        let counted = ALLOCS.load(Ordering::SeqCst);
        assert!(
            allowed.contains(&counted),
            "m = {m}: {counted} allocations over {COUNTED} selects (allowed {allowed:?})"
        );
    }
}
