//! Zero-allocation guarantee of the per-packet codec path.
//!
//! A counting global allocator wraps `System`. After one GOP of warm-up
//! the steady-state work the runtimes do per packet — parse a record,
//! note its arrival, quote its pending cost, take its closure into a
//! reused buffer, mark it decoded, keep the packet in the decoder's
//! window — must perform **zero** heap allocations: references live
//! inline in the packet, windows are rings that stopped growing, and the
//! closure walk runs in scratch the tracker owns. Handing a closure to
//! a decode job — cloning its packets into a buffer the caller reuses —
//! allocates nothing either once that buffer has grown to closure size.
//!
//! Flag and counter are per-thread (the libtest harness allocates on its
//! own threads), so the tests in this file can run side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use pg_codec::bitstream::serialize_stream_chunks::{header_bytes, packet_bytes};
use pg_codec::{
    Codec, CostModel, DecodedFrame, Decoder, DependencyTracker, Encoder, EncoderConfig, Packet,
    PacketParser,
};
use pg_scene::{PersonSceneGen, SceneGenerator};

struct CountingAlloc;

// `const`-initialised `Cell`s compile to plain TLS slots — no lazy
// registration, so touching them inside the allocator cannot allocate.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    if COUNTING.with(Cell::get) {
        ALLOCS.with(|n| n.set(n.get() + 1));
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

/// Allocations this thread performs while running `work`.
fn allocs_during(work: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    work();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(Cell::get)
}

const GOP: usize = 25;

fn config() -> EncoderConfig {
    EncoderConfig::new(Codec::H264)
        .with_gop(GOP as u32)
        .with_b_frames(2)
}

fn encoded(n: usize) -> Vec<Packet> {
    let mut enc = Encoder::for_stream(config(), 21, 3);
    let mut scene = PersonSceneGen::new(21, 25.0);
    (0..n).map(|_| enc.encode(&scene.next_frame())).collect()
}

#[test]
fn steady_state_window_work_does_not_allocate() {
    let packets = encoded(12 * GOP);
    let costs = CostModel::default();
    let mut tracker = DependencyTracker::new();
    let mut decoder = Decoder::new(3, costs);
    let mut closure: Vec<u64> = Vec::new();
    let mut frames: Vec<DecodedFrame> = Vec::new();
    let mut sink = 0.0f64;

    // Every fourth packet is kept, so closures reach back over skipped
    // references; `step` is what the runtimes do per packet.
    let mut step = |k: usize, p: &Packet| {
        tracker.note_arrival(p);
        sink += tracker
            .pending_cost(p.meta.seq, &costs)
            .expect("clean stream");
        decoder.ingest(p.clone());
        sink += decoder.pending_cost(p.meta.seq).expect("clean stream");
        if k.is_multiple_of(4) {
            tracker
                .closure_into(p.meta.seq, &mut closure)
                .expect("clean stream");
            for &s in &closure {
                tracker.mark_decoded(s);
            }
            decoder
                .decode_closure_into(p.meta.seq, &mut frames)
                .expect("clean stream");
            sink += (closure.len() + frames.len()) as f64;
        }
    };

    // Warm-up: the windows reach their two-GOP high-water mark one packet
    // into the third GOP.
    let (warm, steady) = packets.split_at(2 * GOP + 1);
    for (k, p) in warm.iter().enumerate() {
        step(k, p);
    }
    let allocs = allocs_during(|| {
        for (k, p) in steady.iter().enumerate() {
            step(warm.len() + k, p);
        }
    });
    assert!(sink.is_finite());
    assert_eq!(
        allocs,
        0,
        "steady-state window work performed {allocs} heap allocations over {} packets",
        steady.len()
    );
}

#[test]
fn handing_off_closures_into_a_warm_buffer_does_not_allocate() {
    let packets = encoded(12 * GOP);
    let mut decoder = Decoder::new(3, CostModel::default());
    let (mut seqs, mut closure): (Vec<u64>, Vec<Packet>) = (Vec::new(), Vec::new());
    let mut cost = 0.0f64;
    let mut handed = 0usize;

    // Every fourth packet is handed off, as a decode job would take it:
    // closures reach back over skipped P and B references and, where a
    // kept packet follows an unkept I, across the GOP boundary.
    let mut step = |k: usize, p: &Packet| {
        decoder.ingest(p.clone());
        if k.is_multiple_of(4) {
            cost += decoder
                .hand_off_closure(p.meta.seq, &mut seqs, &mut closure)
                .expect("clean stream");
            handed += closure.len();
        }
    };

    // Which packets are kept repeats every four GOPs; by then the caller's
    // buffer has met every closure shape, and the windows are warm.
    let (warm, steady) = packets.split_at(4 * GOP + 1);
    for (k, p) in warm.iter().enumerate() {
        step(k, p);
    }
    let allocs = allocs_during(|| {
        for (k, p) in steady.iter().enumerate() {
            step(warm.len() + k, p);
        }
    });
    assert!(cost > 0.0);
    assert!(
        handed >= packets.len() / 4,
        "each kept packet is in its own closure"
    );
    assert_eq!(
        allocs,
        0,
        "handing off closures performed {allocs} heap allocations over {} packets",
        steady.len()
    );
}

#[test]
fn parsing_clean_single_chunk_records_does_not_allocate() {
    let packets = encoded(4 * GOP);
    // Chunks are built (and their buffers allocated) up front; the parser
    // only ever slices them.
    let chunks: Vec<Bytes> = packets
        .iter()
        .map(|p| Bytes::from(packet_bytes(p)))
        .collect();
    let mut parser = PacketParser::new();
    parser.push_shared(Bytes::from(header_bytes(3, &config())));
    let mut chunks = chunks.into_iter();
    let mut parsed = 0usize;
    let mut parse_one = |parser: &mut PacketParser, chunk: Bytes| {
        parser.push_shared(chunk);
        let p = parser
            .next_packet()
            .expect("clean record parses")
            .expect("one whole record per chunk");
        assert_eq!(p.refs, packets[parsed].refs);
        parsed += 1;
    };
    for chunk in chunks.by_ref().take(GOP) {
        parse_one(&mut parser, chunk);
    }
    let allocs = allocs_during(|| {
        for chunk in chunks {
            parse_one(&mut parser, chunk);
        }
    });
    assert_eq!(parsed, packets.len());
    assert_eq!(
        allocs, 0,
        "parsing clean records performed {allocs} heap allocations"
    );
}
