//! The `net_paced` transport: PGL1 sessions over loopback TCP.
//!
//! The program side is `NetIngestSource::bind` (session server plus the
//! ingest bridge). The benchmark side is one feeder thread multiplexing
//! one nonblocking `SessionClient` per stream on the open-loop schedule.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::inputs::Inputs;
use crate::procfs;
use crate::source::{ns_since, sleep_until, Schedule, SourceLog, PACED_LEAD};
use crate::spans::{Span, Track};
use crate::surface::{NetIngestSource, SessionClient, SessionCounters, SessionServerConfig};

const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);
/// How long the feeder waits for a backpressured socket before retrying.
const FLUSH_RETRY: Duration = Duration::from_micros(100);
/// A round's bytes must leave the outboxes within this, or the rep fails.
const FLUSH_LIMIT: Duration = Duration::from_secs(5);

/// A bound server with every session connected and its header sent.
pub struct NetRig {
    source: NetIngestSource,
    clients: Vec<SessionClient>,
    pub counters: Arc<SessionCounters>,
    /// Connect-plus-handshake time of each session, in µs.
    pub handshake_us: Vec<f64>,
}

impl NetRig {
    /// Bind on an ephemeral loopback port and connect one session per
    /// stream, blocking through each handshake.
    pub fn connect(inputs: &Inputs, rounds: u64) -> Result<NetRig, String> {
        let m = inputs.streams;
        let source = NetIngestSource::bind(m, rounds, SessionServerConfig::default())?;
        let counters = source.counters();
        let addr = source.local_addr();
        let mut clients = Vec::with_capacity(m);
        let mut handshake_us = Vec::with_capacity(m);
        for i in 0..m {
            let t = Instant::now();
            let mut client = SessionClient::connect(addr, i as u32, 0, HANDSHAKE_TIMEOUT)
                .map_err(|e| format!("session {i}: {e}"))?;
            handshake_us.push(t.elapsed().as_secs_f64() * 1e6);
            if client.resume().header_needed {
                client.queue_header(inputs.headers[i].as_slice());
                client
                    .flush_blocking(HANDSHAKE_TIMEOUT)
                    .map_err(|e| format!("session {i}: header flush: {e}"))?;
            }
            clients.push(client);
        }
        Ok(NetRig {
            source,
            clients,
            counters,
            handshake_us,
        })
    }

    pub fn split(self) -> (NetIngestSource, Vec<SessionClient>) {
        (self.source, self.clients)
    }

    /// Process CPU per second of wall time with every session connected
    /// and no data flowing: the cost of the server finding no work.
    pub fn idle_cpu_ms_per_s(&self, window: Duration) -> f64 {
        let cpu0 = procfs::process_cpu();
        let t = Instant::now();
        std::thread::sleep(window);
        let cpu = procfs::process_cpu() - cpu0;
        cpu.as_secs_f64() * 1e3 / t.elapsed().as_secs_f64()
    }

    /// Say goodbye on every session and drop the server.
    pub fn hang_up(self) {
        for mut client in self.clients {
            client.queue_bye();
            let _ = client.flush_blocking(HANDSHAKE_TIMEOUT);
        }
    }
}

/// Start the feeder thread. Round r is due at `t0 + r·period`, with `t0`
/// a short lead after the spawn so the pipeline's threads are up.
pub fn spawn_feeder(
    clients: Vec<SessionClient>,
    inputs: Arc<Inputs>,
    rounds: u64,
    period: Duration,
    epoch: Instant,
    traced: bool,
) -> JoinHandle<Result<SourceLog, String>> {
    std::thread::Builder::new()
        .name("bench-feeder".to_string())
        .spawn(move || feed(clients, &inputs, rounds, period, epoch, traced))
        .expect("spawn feeder thread")
}

fn feed(
    mut clients: Vec<SessionClient>,
    inputs: &Inputs,
    rounds: u64,
    period: Duration,
    epoch: Instant,
    traced: bool,
) -> Result<SourceLog, String> {
    let mut log = SourceLog::new(rounds, traced);
    let schedule = Schedule {
        t0: Instant::now() + PACED_LEAD,
        period,
    };
    let (cpu0, wall0) = (procfs::thread_cpu(), Instant::now());
    for round in 0..rounds {
        let due = schedule.due(round);
        sleep_until(due);
        let start = Instant::now();
        log.begin_round(epoch, Some(due), start);
        // Pass 1: frame each stream's chunk and offer it to its socket.
        let mut backlog = false;
        for (i, client) in clients.iter_mut().enumerate() {
            client.queue_chunk(round, inputs.chunk(round, i).as_slice());
            backlog |= !client
                .try_flush()
                .map_err(|e| format!("session {i}: round {round}: {e}"))?;
        }
        let offered = Instant::now();
        // Pass 2: wait out sockets that pushed back.
        while backlog {
            if offered.elapsed() > FLUSH_LIMIT {
                return Err(format!("round {round}: sockets stayed backpressured"));
            }
            std::thread::sleep(FLUSH_RETRY);
            backlog = false;
            for (i, client) in clients.iter_mut().enumerate() {
                if client.pending() > 0 {
                    backlog |= !client
                        .try_flush()
                        .map_err(|e| format!("session {i}: round {round}: {e}"))?;
                }
            }
        }
        let flushed = Instant::now();
        log.delivered_ns.push(ns_since(epoch, flushed));
        if let Some(spans) = &mut log.spans {
            let (a, b, c) = (
                ns_since(epoch, start),
                ns_since(epoch, offered),
                ns_since(epoch, flushed),
            );
            spans.push(Span {
                name: "source.deliver",
                track: Track::Net,
                start_ns: a,
                end_ns: b,
                round,
            });
            spans.push(Span {
                name: "net.flush",
                track: Track::Net,
                start_ns: b,
                end_ns: c,
                round,
            });
        }
    }
    log.cpu = procfs::thread_cpu() - cpu0;
    log.wall = wall0.elapsed();
    for client in &mut clients {
        client.queue_bye();
        let _ = client.flush_blocking(HANDSHAKE_TIMEOUT);
    }
    Ok(log)
}

fn read(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// Session-plane output checks: every stream handshook exactly once and
/// nothing was refused or dropped for a protocol violation.
pub fn check_counters(counters: &SessionCounters, streams: u64, fails: &mut Vec<String>) {
    if read(&counters.handshakes) != streams {
        fails.push(format!(
            "{} handshakes for {streams} streams",
            read(&counters.handshakes)
        ));
    }
    if read(&counters.rejected) != 0 {
        fails.push(format!("{} sessions rejected", read(&counters.rejected)));
    }
    if read(&counters.protocol_errors) != 0 {
        fails.push(format!(
            "{} protocol errors",
            read(&counters.protocol_errors)
        ));
    }
}

/// Per-layer figures read off the server's counters after a rep.
pub fn push_counters(
    values: &mut Vec<(&'static str, f64)>,
    counters: &SessionCounters,
    wall_s: f64,
) {
    let rate = read(&counters.bytes_rx) as f64 / wall_s;
    values.push(("net.bytes_rx_per_s", rate));
    for (name, counter) in [
        ("net.backpressure_pauses", &counters.backpressure_pauses),
        ("net.protocol_errors", &counters.protocol_errors),
        ("net.rejected", &counters.rejected),
    ] {
        values.push((name, read(counter) as f64));
    }
}
