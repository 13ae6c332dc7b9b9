//! Allocation budget of the PGL1 receive and send paths.
//!
//! A counting global allocator wraps `System` (per-thread flag and
//! counter, as in `pg-codec/tests/window_alloc.rs`, so the server's own
//! threads and the libtest harness are not counted). After warm-up:
//!
//! * a DATA frame travelling slab → `SessionMachine::feed` → event costs
//!   no allocation of its own — the only allocations left are the slabs,
//!   one buffer plus one refcount per ≈ 100 frames;
//! * `SessionClient::queue_chunk` frames into its retained outbox and
//!   allocates nothing;
//! * no payload byte is deep-copied on either path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use pg_net::wire::{claim_payload, encode_data_frame_into, encode_frame_into, hello_payload};
use pg_net::wire::{FT_CLAIM, FT_HELLO};
use pg_net::{SessionClient, SessionEvent, SessionMachine, SessionServer, SessionServerConfig};

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

// SAFETY: every operation is `System`'s, unchanged; the tally is
// thread-local state the allocator itself never reads.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
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

/// The paper's ≈ 0.6 KB packet.
const CHUNK: usize = 600;
/// The server's slab policy (`server.rs`: `SLAB_SIZE`, `MIN_READ`).
const SLAB_SIZE: usize = 64 * 1024;
const MIN_READ: usize = 4 * 1024;
/// Chunks a consumer holds on to, like a decoder's two-GOP window.
const HELD: usize = 64;

#[test]
fn data_frames_cross_the_receive_path_without_allocating() {
    const FRAMES: usize = 10_000;
    let mut machine = SessionMachine::new();
    let mut events: Vec<SessionEvent> = Vec::new();
    let mut outbound: Vec<u8> = Vec::new();
    let mut hello = Vec::new();
    encode_frame_into(&mut hello, FT_HELLO, &hello_payload());
    encode_frame_into(&mut hello, FT_CLAIM, &claim_payload(3, 0));
    machine
        .feed(hello.into(), None, &mut events, &mut outbound)
        .expect("handshake");

    let chunk = [0xA5u8; CHUNK];
    let mut wire = Vec::new();
    let mut slab = BytesMut::zeroed(0);
    let mut held: Vec<Bytes> = vec![Bytes::new(); HELD];
    // What an ingest thread does per ready socket, `frames_per_read`
    // frames arriving together; `round` counts frames.
    let mut read = |round: &mut u64, frames_per_read: usize| {
        wire.clear();
        for r in *round..*round + frames_per_read as u64 {
            encode_data_frame_into(&mut wire, r, &chunk);
        }
        if slab.len() < MIN_READ.max(wire.len()) {
            slab = BytesMut::zeroed(SLAB_SIZE);
        }
        slab[..wire.len()].copy_from_slice(&wire);
        let input = slab.split_to(wire.len()).freeze();
        events.clear();
        let frames = machine
            .feed(input, None, &mut events, &mut outbound)
            .expect("well-formed frames");
        assert_eq!(frames, frames_per_read);
        for event in events.drain(..) {
            let SessionEvent::Data { round: tag, chunk } = event else {
                panic!("expected Data, got {event:?}");
            };
            assert_eq!((tag, chunk.len()), (*round, CHUNK));
            held[*round as usize % HELD] = chunk;
            *round += 1;
        }
    };

    let mut round = 0u64;
    for _ in 0..200 {
        read(&mut round, 4);
    }
    let copies_before = bytes::deep_copy_count();
    let warm = round;
    let allocs = allocs_during(|| {
        while ((round - warm) as usize) < FRAMES {
            let frames_per_read = 1 + round as usize % 4;
            read(&mut round, frames_per_read);
        }
    });
    let frames = (round - warm) as f64;
    assert_eq!(
        bytes::deep_copy_count(),
        copies_before,
        "payload deep copies"
    );
    assert!(
        allocs as f64 / frames <= 0.05,
        "{allocs} allocations over {frames} frames"
    );
    // And they are the slabs: a buffer and a refcount each.
    let slabs = (frames * (CHUNK + 13) as f64 / (SLAB_SIZE - MIN_READ) as f64).ceil();
    assert!(
        allocs as f64 <= 2.0 * slabs + 2.0,
        "{allocs} allocations for about {slabs} slabs"
    );
}

#[test]
fn the_client_frames_chunks_in_place() {
    let mut server = SessionServer::bind(SessionServerConfig::default(), None).expect("bind");
    let timeout = Duration::from_secs(5);
    let mut client = SessionClient::connect(server.local_addr(), 0, 0, timeout).expect("connect");
    let chunk = [0x5Au8; CHUNK];
    // Warm-up: the outbox grows to one frame and keeps that capacity.
    client.queue_chunk(0, &chunk);
    client.flush_blocking(timeout).expect("flush");
    let copies_before = bytes::deep_copy_count();
    let allocs = allocs_during(|| {
        for round in 1..=1_000u64 {
            client.queue_chunk(round, &chunk);
            client.flush_blocking(timeout).expect("flush");
        }
    });
    assert_eq!(allocs, 0, "queue_chunk + flush allocated {allocs} times");
    assert_eq!(
        bytes::deep_copy_count(),
        copies_before,
        "payload deep copies"
    );
    server.shutdown();
}
