//! The session server's lifecycle is driven by readiness and wake-ups,
//! not by clocks: idle expiry needs no traffic (and survives
//! back-pressure), an idle server issues no reads, a socket dealt to
//! another thread is serviced at once, and `shutdown()` does not wait
//! anything out.
//!
//! Most witnesses are counts. Where a duration is asserted it is one the
//! old scan loop could not have met by an order of magnitude, or the
//! issue's own bound (idle expiry within 2× the timeout). The tests share
//! descriptors, threads and the clock, so they take turns.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use pg_net::{
    ResumeOracle, ResumePoint, ServerEvent, SessionClient, SessionServer, SessionServerConfig,
};

static TURN: Mutex<()> = Mutex::new(());

fn my_turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

const HANDSHAKE: Duration = Duration::from_secs(5);

fn connect(addr: SocketAddr, stream: u32) -> SessionClient {
    SessionClient::connect(addr, stream, 0, HANDSHAKE).expect("handshake")
}

/// Silent stream 0 among three chattering ones: only the silent one is
/// retired, for idleness, between 1× and 2× the timeout after it went
/// quiet.
fn expire_the_silent_one(paused: bool) {
    let timeout = Duration::from_millis(100);
    let mut server = SessionServer::bind(
        SessionServerConfig {
            idle_timeout: timeout,
            ..SessionServerConfig::default()
        },
        None,
    )
    .expect("bind");
    let counters = server.counters();
    let events = server.events();
    let mut live: Vec<SessionClient> = (1..4).map(|i| connect(server.local_addr(), i)).collect();
    let _silent = connect(server.local_addr(), 0);
    let since = Instant::now();
    if paused {
        // Hold the queue gauge over the hi-watermark: the threads stop
        // reading, as under a bridge that has fallen behind. Each notices
        // after the wake-up it may be in the middle of.
        counters.queue_depth.fetch_add(1 << 40, Relaxed);
        while counters.backpressure_pauses.load(Relaxed) < 10 {
            for client in &mut live {
                client.queue_keepalive();
                client.try_flush().expect("live session still open");
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let frames_before = counters.frames_rx.load(Relaxed);
    let expired_after = loop {
        assert!(
            since.elapsed() < 10 * timeout,
            "silent session never expired"
        );
        for client in &mut live {
            client.queue_keepalive();
            client.try_flush().expect("live session still open");
        }
        let event = events.recv_timeout(Duration::from_millis(10));
        if let Ok(ServerEvent::SessionDown {
            stream_id, reason, ..
        }) = event
        {
            assert_eq!(stream_id, Some(0), "a live session was dropped: {reason}");
            assert_eq!(reason, "idle timeout");
            break since.elapsed();
        }
    };
    assert!(
        expired_after >= timeout,
        "expired early, after {expired_after:?}"
    );
    assert!(
        expired_after <= 2 * timeout,
        "expired late, after {expired_after:?}"
    );
    assert_eq!(counters.active.load(Relaxed), 3, "the live sessions stay");
    if paused {
        assert_eq!(
            counters.frames_rx.load(Relaxed),
            frames_before,
            "a paused server reads nothing"
        );
        // Released, it catches up on the keepalives that kept them alive.
        counters.queue_depth.fetch_sub(1 << 40, Relaxed);
        let t = Instant::now();
        while counters.keepalives.load(Relaxed) < 3 {
            assert!(t.elapsed() < HANDSHAKE, "never resumed reading");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(counters.active.load(Relaxed), 3);
    }
    server.shutdown();
}

#[test]
fn a_silent_session_expires_without_traffic_of_its_own() {
    let _turn = my_turn();
    expire_the_silent_one(false);
}

#[test]
fn a_silent_session_expires_under_backpressure_and_the_live_ones_do_not() {
    let _turn = my_turn();
    expire_the_silent_one(true);
}

#[test]
fn frames_rx_counts_every_decoded_frame_including_the_hello() {
    let _turn = my_turn();
    let mut server = SessionServer::bind(SessionServerConfig::default(), None).expect("bind");
    let counters = server.counters();
    let mut client = connect(server.local_addr(), 0);
    assert_eq!(counters.frames_rx.load(Relaxed), 2, "HELLO and CLAIM");
    client.queue_keepalive();
    client.queue_chunk(0, &[1, 2, 3]);
    client.queue_bye();
    client.flush_blocking(HANDSHAKE).expect("flush");
    let t = Instant::now();
    while counters.disconnects.load(Relaxed) < 1 {
        assert!(t.elapsed() < HANDSHAKE, "BYE never processed");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(counters.frames_rx.load(Relaxed), 5);
    server.shutdown();
}

#[cfg(target_os = "linux")]
#[test]
fn idle_sessions_cost_no_reads() {
    let _turn = my_turn();
    const SESSIONS: u64 = 256;
    let mut server = SessionServer::bind(SessionServerConfig::default(), None).expect("bind");
    let counters = server.counters();
    let clients: Vec<SessionClient> = (0..SESSIONS as u32)
        .map(|i| connect(server.local_addr(), i))
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(counters.handshakes.load(Relaxed), SESSIONS);
    let empty = counters.empty_reads.load(Relaxed);
    assert!(
        empty <= SESSIONS,
        "{empty} reads found nothing across {SESSIONS} idle sessions"
    );
    assert!(server
        .control_json()
        .contains(&format!("\"empty_reads\":{empty},")));
    drop(clients);
    server.shutdown();
}

#[test]
fn shutdown_wakes_the_threads_instead_of_waiting_them_out() {
    let _turn = my_turn();
    const SESSIONS: u32 = 512;
    let mut server = SessionServer::bind(SessionServerConfig::default(), None).expect("bind");
    let counters = server.counters();
    let clients: Vec<SessionClient> = (0..SESSIONS)
        .map(|i| connect(server.local_addr(), i))
        .collect();
    assert_eq!(counters.active.load(Relaxed), u64::from(SESSIONS));
    // The threads now sleep in their pollers until the idle sweep, 15 s
    // away; only a wake-up gets them out in time.
    let t = Instant::now();
    server.shutdown();
    let took = t.elapsed();
    assert_eq!(counters.active.load(Relaxed), 0, "every session retired");
    assert!(took <= Duration::from_millis(20), "shutdown took {took:?}");
    drop(clients);
}

/// Records which ingest thread answered each claim.
#[derive(Default)]
struct ThreadTally(Mutex<BTreeMap<String, usize>>);

impl ResumeOracle for ThreadTally {
    fn resume_point(&self, _stream_id: u32) -> ResumePoint {
        let thread = std::thread::current().name().unwrap_or("?").to_string();
        *self.0.lock().unwrap().entry(thread).or_default() += 1;
        ResumePoint::fresh()
    }
}

#[test]
fn dealt_sockets_are_spread_evenly_and_serviced_without_waiting() {
    let _turn = my_turn();
    let tally = Arc::new(ThreadTally::default());
    let mut server = SessionServer::bind(
        SessionServerConfig {
            ingest_threads: 2,
            ..SessionServerConfig::default()
        },
        Some(tally.clone()),
    )
    .expect("bind");
    let addr = server.local_addr();
    let mut clients = Vec::new();
    let mut handshake_us = Vec::new();
    for i in 0..200u32 {
        let t = Instant::now();
        clients.push(connect(addr, i));
        handshake_us.push(t.elapsed().as_micros());
        if i == 99 {
            let per_thread = tally.0.lock().unwrap().clone();
            let expected: BTreeMap<String, usize> = [
                ("pg-ingest-0".to_string(), 50),
                ("pg-ingest-1".to_string(), 50),
            ]
            .into();
            assert_eq!(per_thread, expected);
        }
    }
    // Every second socket crosses to thread 1, whose next timeout is 15 s
    // away: a hand-off that was not announced would show here as seconds.
    // (The benchmark's `net.handshake_p50_us` holds the fine-grained bound.)
    handshake_us.sort_unstable();
    let p50 = handshake_us[handshake_us.len() / 2];
    assert!(
        p50 < 5_000,
        "handshake p50 {p50} µs, worst {:?} µs",
        handshake_us.last()
    );
    eprintln!(
        "handshake p50 {p50} µs over {} sequential connects",
        handshake_us.len()
    );
    drop(clients);
    server.shutdown();
}
