//! Zero-allocation guarantee of the batched gate decision path.
//!
//! A counting global allocator wraps `System`; after one warm-up round at
//! the high-water batch size, repeated stage-and-predict rounds through
//! `PredictScratch` + `ContextualPredictor::predict_batch` must perform
//! **zero** heap allocations — the property the scratch's grow-only
//! ping-pong buffers exist to provide.
//!
//! The allocator is process-global, so this file holds exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use packetgame::{
    CombinatorialOptimizer, ContextualPredictor, Item, PacketGameConfig, PredictScratch,
    SelectScratch,
};

struct CountingAlloc;

// The counting flag is per-thread: the libtest harness runs its own
// bookkeeping (channel sends, watchdog) on other threads of this same
// process, and a process-global flag intermittently counted those
// allocations as the gate path's. A `const`-initialised `Cell` compiles
// to a plain TLS slot — no lazy registration, so reading it inside the
// allocator cannot itself allocate.
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

/// Stage `m` synthetic rows and predict; returns a checksum so the
/// optimizer can't elide the work.
fn round(p: &ContextualPredictor, s: &mut PredictScratch, m: usize, w: usize, salt: f32) -> f64 {
    s.begin(m, w);
    for r in 0..m {
        let (vi, vp) = s.stream_row(r, f64::from(salt) * 0.5);
        for (t, x) in vi.iter_mut().enumerate() {
            *x = (r as f32 * 0.37 + t as f32 * 0.11 + salt).sin();
        }
        for (t, x) in vp.iter_mut().enumerate() {
            *x = (r as f32 * 0.23 + t as f32 * 0.19 + salt).cos();
        }
    }
    p.predict_batch(s, 0).iter().sum()
}

#[test]
fn steady_state_batched_rounds_do_not_allocate() {
    let config = PacketGameConfig::default();
    let w = config.window;
    let p = ContextualPredictor::new(config);

    // m = 1024: the paper's fleet scale, with a padded `lane_stride`.
    for m in [64, 1024] {
        let mut s = PredictScratch::new();
        // Warm-up: reach the high-water shape (and a smaller one, to show
        // shrinking rounds don't churn either).
        let mut sink = round(&p, &mut s, m, w, 0.0);
        sink += round(&p, &mut s, 7, w, 0.5);

        ALLOCS.store(0, Ordering::SeqCst);
        set_counting(true);
        for i in 0..10 {
            sink += round(&p, &mut s, m, w, i as f32 * 0.1);
            sink += round(&p, &mut s, m / 2, w, i as f32 * 0.2);
        }
        set_counting(false);
        let allocs = ALLOCS.load(Ordering::SeqCst);

        assert!(sink.is_finite());
        assert_eq!(
            allocs, 0,
            "steady-state batched rounds at m = {m} performed {allocs} heap allocations"
        );
    }

    // Same property for the greedy knapsack: with a caller-owned
    // `SelectScratch`, repeated selections over a stable candidate count
    // must not touch the allocator either (the priority sort, the
    // selection, and the walk all reuse grow-only buffers).
    let opt = CombinatorialOptimizer;
    let mut items: Vec<Item> = (0..64)
        .map(|i| Item {
            idx: i,
            confidence: (i % 13) as f64 / 13.0,
            cost: 1.0 + (i % 5) as f64,
        })
        .collect();
    let mut sel = SelectScratch::new();
    let mut spent_sink = opt.select_with(&items, 40.0, &mut sel); // warm-up

    ALLOCS.store(0, Ordering::SeqCst);
    set_counting(true);
    for r in 0..10 {
        for (i, it) in items.iter_mut().enumerate() {
            it.confidence = ((i + r) % 17) as f64 / 17.0;
        }
        spent_sink += opt.select_with(&items, 40.0, &mut sel);
        spent_sink += sel.selected().len() as f64;
    }
    set_counting(false);
    let select_allocs = ALLOCS.load(Ordering::SeqCst);

    assert!(spent_sink.is_finite());
    assert_eq!(
        select_allocs, 0,
        "steady-state selections performed {select_allocs} heap allocations"
    );
}
