//! Readiness-driven TCP session server for the live ingest plane.
//!
//! Thousands of mostly-idle connections share a small fixed pool of
//! ingest threads over plain `std::net` sockets. Each thread is a reactor
//! (DESIGN.md D17): it blocks in its own poller — epoll on Linux,
//! hand-declared in [`crate::poller`]; vendored deps only, no tokio/mio —
//! and runs only when a socket has bytes, a peer wakes it, or its idle
//! sweep is due. A wake-up does one bounded read per ready socket, so a
//! busy session cannot starve the rest; level-triggered readiness brings
//! it back. Thread 0 owns the listener and deals accepted sockets
//! round-robin into its peers' mailboxes, waking the receiver through a
//! socketpair end in its poll set; `shutdown()` wakes every thread the
//! same way. Nothing is discovered by polling on a clock.
//!
//! Reads land in a per-thread slab ([`BytesMut`]): the bytes just read are
//! frozen into a [`Bytes`] view and DATA chunks reach the bridge as slices
//! of it, so the socket buffer *is* the packet payload. A slab is replaced
//! when its writable tail runs short and freed with its last chunk.
//!
//! Session events funnel into one global MPSC channel so the ingest
//! bridge observes a single total order per stream — an old connection's
//! events always precede a replacement connection's.
//!
//! Backpressure: the bridge decrements [`SessionCounters::queue_depth`]
//! as it drains; while the gauge exceeds the configured hi-watermark an
//! ingest thread waits without reading (kernel TCP buffers fill, clients
//! block) until the pipeline catches up.

use crate::poller::Poller;
use crate::session::{reject_frame, ResumeOracle, SessionCounters, SessionEvent, SessionMachine};
use bytes::{Bytes, BytesMut};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs for [`SessionServer`].
#[derive(Debug, Clone)]
pub struct SessionServerConfig {
    /// Bind address, e.g. `"127.0.0.1:0"` for an ephemeral port.
    pub addr: String,
    /// Fixed pool of ingest threads (thread 0 also accepts).
    pub ingest_threads: usize,
    /// Connections beyond this are refused with a REJECT frame.
    pub max_sessions: usize,
    /// Connections silent for longer than this are dropped.
    pub idle_timeout: Duration,
    /// Pause socket reads while `queue_depth` exceeds this.
    pub queue_hi_watermark: i64,
}

impl Default for SessionServerConfig {
    fn default() -> Self {
        SessionServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ingest_threads: 2,
            max_sessions: 4096,
            idle_timeout: Duration::from_secs(30),
            queue_hi_watermark: 8192,
        }
    }
}

/// Events the server publishes to the ingest bridge, in per-stream order.
#[derive(Debug, Clone)]
pub enum ServerEvent {
    /// A connection finished its handshake and claimed a stream.
    SessionUp {
        /// Server-local connection id.
        conn_id: u64,
        /// Stream the connection speaks for.
        stream_id: u32,
        /// Whether the claim resumed mid-stream (next_round > 0).
        resumed: bool,
    },
    /// Stream header bytes arrived.
    Header {
        /// Stream the header belongs to.
        stream_id: u32,
        /// Header chunk (refcounted, zero-copy).
        chunk: Bytes,
    },
    /// One round of bitstream arrived.
    Data {
        /// Stream the chunk belongs to.
        stream_id: u32,
        /// Client-tagged round.
        round: u64,
        /// Chunk bytes (refcounted slice of the frame payload).
        chunk: Bytes,
    },
    /// A connection ended.
    SessionDown {
        /// Server-local connection id.
        conn_id: u64,
        /// Stream the connection had claimed, if handshaken.
        stream_id: Option<u32>,
        /// `true` for a clean BYE, `false` for an abrupt drop.
        graceful: bool,
        /// Human-readable close reason.
        reason: String,
    },
}

/// Sentinel in [`ConnStat::stream_id`] for "not yet claimed".
const NO_STREAM: u32 = u32::MAX;

/// Per-connection stats surfaced by the control endpoint.
struct ConnStat {
    stream_id: AtomicU32,
    rounds_rx: AtomicU64,
    bytes_rx: AtomicU64,
}

/// Poller token of a thread's wake-up socket (no connection id gets this
/// high) and of the listener (thread 0 only).
const WAKE: u64 = u64::MAX;
const LISTENER: u64 = u64::MAX - 1;
/// Read slab size: ≈ 100 of the paper's ≈ 0.6 KB packets per allocation.
const SLAB_SIZE: usize = 64 * 1024;
/// A slab whose writable tail is shorter than this is replaced before the
/// next read; the bound on what one read may take is the tail itself.
const MIN_READ: usize = 4 * 1024;
/// How long a back-pressured ingest thread waits before looking again.
const PAUSE_WAIT: Duration = Duration::from_millis(1);

struct Conn {
    id: u64,
    stream: TcpStream,
    machine: SessionMachine,
    stat: Arc<ConnStat>,
    last_activity: Instant,
    /// Reply bytes the socket has not taken yet.
    outbound: Vec<u8>,
    /// Whether the poller currently watches this socket for writability.
    watching_write: bool,
}

/// What other threads may do to an ingest thread: leave it sockets, and
/// wake it out of its poller.
struct Mailbox {
    inbox: Mutex<Vec<(u64, TcpStream)>>,
    waker: UnixStream,
}

impl Mailbox {
    fn wake(&self) {
        // A full pipe means a wake-up is already pending.
        let _ = (&self.waker).write(&[1]);
    }

    fn deliver(&self, id: u64, stream: TcpStream) {
        let mut inbox = self.inbox.lock().expect("inbox lock");
        inbox.push((id, stream));
        drop(inbox);
        self.wake();
    }
}

/// What the server handle and its ingest threads share.
struct Shared {
    cfg: SessionServerConfig,
    counters: Arc<SessionCounters>,
    registry: Mutex<BTreeMap<u64, Arc<ConnStat>>>,
    events_tx: Sender<ServerEvent>,
    oracle: Option<Arc<dyn ResumeOracle>>,
    stop: AtomicBool,
    mailboxes: Vec<Mailbox>,
}

impl Shared {
    /// Queue `event` for the bridge, counting it into the depth gauge the
    /// bridge counts back down — only if it really was queued.
    fn publish(&self, event: ServerEvent) {
        self.counters.queue_depth.fetch_add(1, Ordering::Relaxed);
        if self.events_tx.send(event).is_err() {
            self.counters.queue_depth.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// The live ingest session server. Dropping it stops all threads.
pub struct SessionServer {
    local_addr: SocketAddr,
    events_rx: Receiver<ServerEvent>,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl SessionServer {
    /// Bind the listener and start the ingest thread pool. `oracle`
    /// answers resume points at claim time (None ⇒ every claim is
    /// treated as fresh).
    pub fn bind(
        cfg: SessionServerConfig,
        oracle: Option<Arc<dyn ResumeOracle>>,
    ) -> std::io::Result<SessionServer> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let (events_tx, events_rx) = unbounded::<ServerEvent>();
        let mut mailboxes = Vec::new();
        let mut wake_rxs = Vec::new();
        for _ in 0..cfg.ingest_threads.max(1) {
            let (waker, wake_rx) = UnixStream::pair()?;
            waker.set_nonblocking(true)?;
            wake_rx.set_nonblocking(true)?;
            mailboxes.push(Mailbox {
                inbox: Mutex::new(Vec::new()),
                waker,
            });
            wake_rxs.push(wake_rx);
        }
        let shared = Arc::new(Shared {
            cfg,
            counters: SessionCounters::new(),
            registry: Mutex::new(BTreeMap::new()),
            events_tx,
            oracle,
            stop: AtomicBool::new(false),
            mailboxes,
        });
        let mut listener = Some(listener);
        let mut workers = Vec::new();
        for (index, wake_rx) in wake_rxs.into_iter().enumerate() {
            let mut poller = Poller::new()?;
            poller.add(&wake_rx, WAKE, false)?;
            let listener = listener.take();
            if let Some(listener) = &listener {
                poller.add(listener, LISTENER, false)?;
            }
            workers.push(IngestThread {
                index,
                shared: shared.clone(),
                poller,
                wake_rx,
                listener,
                next_conn_id: 0,
                accept_failed: false,
                conns: HashMap::new(),
                slab: BytesMut::zeroed(0),
                events: Vec::new(),
            });
        }
        // Nothing fallible is left: no thread starts unless all can.
        let spawn = |worker: IngestThread| {
            std::thread::Builder::new()
                .name(format!("pg-ingest-{}", worker.index))
                .spawn(move || worker.run())
                .expect("spawn ingest thread")
        };
        let threads = workers.into_iter().map(spawn).collect();
        Ok(SessionServer {
            local_addr,
            events_rx,
            shared,
            threads,
        })
    }

    /// Address the listener actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Shared session counters (telemetry / Prometheus / backpressure).
    pub fn counters(&self) -> Arc<SessionCounters> {
        self.shared.counters.clone()
    }

    /// The global event stream consumed by the ingest bridge. The
    /// receiver is cloneable (MPMC) but per-stream ordering is only
    /// meaningful through a single consumer.
    pub fn events(&self) -> Receiver<ServerEvent> {
        self.events_rx.clone()
    }

    /// JSON snapshot of session state for the control endpoint:
    /// aggregate gauges plus per-connection rows (capped at 2048).
    pub fn control_json(&self) -> String {
        let c = &self.shared.counters;
        let registry = self.shared.registry.lock().expect("registry lock");
        let sessions: Vec<String> = registry
            .iter()
            .take(2048)
            .map(|(conn_id, stat)| {
                let (stream_id, state) = match stat.stream_id.load(Ordering::Relaxed) {
                    NO_STREAM => ("null".to_string(), "handshake"),
                    id => (id.to_string(), "streaming"),
                };
                format!(
                    "{{\"conn_id\":{conn_id},\"stream_id\":{stream_id},\"state\":\"{state}\",\
                     \"rounds_rx\":{},\"bytes_rx\":{}}}",
                    stat.rounds_rx.load(Ordering::Relaxed),
                    stat.bytes_rx.load(Ordering::Relaxed),
                )
            })
            .collect();
        format!(
            "{{\"active\":{},\"peak_active\":{},\"accepted\":{},\"handshakes\":{},\
             \"disconnects\":{},\"queue_depth\":{},\"empty_reads\":{},\"sessions\":[{}]}}",
            c.active.load(Ordering::Relaxed),
            c.peak_active.load(Ordering::Relaxed),
            c.accepted.load(Ordering::Relaxed),
            c.handshakes.load(Ordering::Relaxed),
            c.disconnects.load(Ordering::Relaxed),
            c.queue_depth.load(Ordering::Relaxed),
            c.empty_reads.load(Ordering::Relaxed),
            sessions.join(","),
        )
    }

    /// Stop all ingest threads and close the listener. The threads are
    /// woken, not waited out: this returns as soon as they have retired
    /// their connections.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for mailbox in &self.shared.mailboxes {
            mailbox.wake();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for SessionServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Why a connection is being retired: `(graceful, reason)`.
type Close = (bool, String);

struct IngestThread {
    index: usize,
    shared: Arc<Shared>,
    poller: Poller,
    wake_rx: UnixStream,
    listener: Option<TcpListener>,
    next_conn_id: u64,
    /// The last accept failed for a reason other than an empty backlog.
    accept_failed: bool,
    conns: HashMap<u64, Conn>,
    slab: BytesMut,
    /// Scratch for one read's session events.
    events: Vec<SessionEvent>,
}

impl IngestThread {
    fn run(mut self) {
        let shared = self.shared.clone();
        // Half the timeout: a silent connection is retired no later than
        // 1.5× `idle_timeout` after its last byte. Clamped so that "never"
        // (`Duration::MAX`) cannot overflow the deadline arithmetic.
        let sweep_every = (shared.cfg.idle_timeout / 2)
            .clamp(Duration::from_millis(1), Duration::from_secs(3600));
        let mut next_sweep = Instant::now() + sweep_every;
        let mut ready: Vec<(u64, bool)> = Vec::new();
        while !shared.stop.load(Ordering::SeqCst) {
            let depth = shared.counters.queue_depth.load(Ordering::Relaxed);
            let paused = depth > shared.cfg.queue_hi_watermark;
            if paused {
                let pauses = &shared.counters.backpressure_pauses;
                pauses.fetch_add(1, Ordering::Relaxed);
            }
            if paused || std::mem::take(&mut self.accept_failed) {
                // Backpressure: the bridge is behind, so stop reading and
                // let kernel TCP buffers push back on the clients. Ready
                // sockets stay ready (level-triggered) — and so does a
                // listener that cannot accept for want of descriptors —
                // so this must be a plain timed wait, not a poll.
                std::thread::sleep(PAUSE_WAIT);
            } else {
                ready.clear();
                let timeout = next_sweep.saturating_duration_since(Instant::now());
                if self.poller.wait(&mut ready, timeout).is_err() {
                    break;
                }
                let now = Instant::now();
                for &(token, readable) in &ready {
                    match token {
                        WAKE => self.adopt_inbox(),
                        LISTENER => self.accept(),
                        id => self.service(id, readable, now),
                    }
                }
            }
            let now = Instant::now();
            if now >= next_sweep {
                self.sweep_idle(now);
                next_sweep = now + sweep_every;
            }
        }
        // Shutdown: close every connection this thread still owns.
        for (_, conn) in std::mem::take(&mut self.conns) {
            self.retire_conn(conn, (false, "server shutdown".to_string()));
        }
    }

    /// Thread 0: drain the accept queue, dealing sockets round-robin.
    /// Every hand-off is announced the same way, this thread's own too.
    fn accept(&mut self) {
        let Some(listener) = &self.listener else {
            return;
        };
        let (counters, mailboxes) = (&self.shared.counters, &self.shared.mailboxes);
        loop {
            let stream = match listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                // Out of descriptors, most likely: the backlog stays
                // readable, so retry after a pause instead of spinning.
                Err(_) => {
                    self.accept_failed = true;
                    break;
                }
            };
            if counters.active.load(Ordering::Relaxed) as usize >= self.shared.cfg.max_sessions {
                counters.rejected.fetch_add(1, Ordering::Relaxed);
                let _ = (&stream).write_all(&reject_frame(1, "at capacity"));
                let _ = stream.shutdown(Shutdown::Both);
                continue;
            }
            let id = self.next_conn_id;
            self.next_conn_id += 1;
            counters.connection_opened();
            mailboxes[id as usize % mailboxes.len()].deliver(id, stream);
        }
    }

    /// Woken: adopt the sockets handed to this thread, if any.
    fn adopt_inbox(&mut self) {
        let mut sink = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
        let mailbox = &self.shared.mailboxes[self.index];
        let inbox = std::mem::take(&mut *mailbox.inbox.lock().expect("inbox lock"));
        for (id, stream) in inbox {
            let watched = stream
                .set_nonblocking(true)
                .and_then(|()| self.poller.add(&stream, id, false));
            if watched.is_err() {
                // Failed adoption: undo the accept-side bookkeeping.
                self.shared.counters.connection_closed();
                continue;
            }
            let _ = stream.set_nodelay(true);
            let stat = Arc::new(ConnStat {
                stream_id: AtomicU32::new(NO_STREAM),
                rounds_rx: AtomicU64::new(0),
                bytes_rx: AtomicU64::new(0),
            });
            let mut registry = self.shared.registry.lock().expect("registry lock");
            registry.insert(id, stat.clone());
            let conn = Conn {
                id,
                stream,
                machine: SessionMachine::new(),
                stat,
                last_activity: Instant::now(),
                outbound: Vec::new(),
                watching_write: false,
            };
            self.conns.insert(id, conn);
        }
    }

    /// One ready socket: at most one read, then whatever it owes in replies.
    fn service(&mut self, id: u64, readable: bool, now: Instant) {
        // A report can outlive its connection within one batch.
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let mut outcome = Ok(());
        if readable {
            outcome = read_conn(conn, &mut self.slab, &mut self.events, &self.shared, now);
        }
        // Replies go out even when the read ended the session (acks
        // before a BYE, the REJECT after a protocol error).
        if flush_pending(&mut conn.outbound, &mut &conn.stream).is_err() {
            outcome = outcome.and_then(|()| Err((false, "write error".to_string())));
        }
        // Unsent reply bytes wait for writability, not for this thread.
        let want_write = !conn.outbound.is_empty();
        if outcome.is_ok() && want_write != conn.watching_write {
            conn.watching_write = want_write;
            let (poller, stream) = (&mut self.poller, &conn.stream);
            let removed = poller.remove(stream);
            let rearmed = removed.and_then(|()| poller.add(stream, id, want_write));
            outcome = rearmed.map_err(|e| (false, format!("poller error: {e}")));
        }
        if let Err(close) = outcome {
            if let Some(conn) = self.conns.remove(&id) {
                self.retire_conn(conn, close);
            }
        }
    }

    /// Retire connections silent for longer than `idle_timeout`. Runs
    /// off the poller's timeout, paused or not, so it needs no traffic.
    fn sweep_idle(&mut self, now: Instant) {
        let idle_timeout = self.shared.cfg.idle_timeout;
        let mut expired = Vec::new();
        for conn in self.conns.values_mut() {
            if now.duration_since(conn.last_activity) <= idle_timeout {
                continue;
            }
            // Bytes waiting in the kernel mean the peer is not silent:
            // this thread is the one behind (back-pressure, a full batch).
            match conn.stream.peek(&mut [0u8; 1]) {
                Ok(n) if n > 0 => conn.last_activity = now,
                _ => expired.push(conn.id),
            }
        }
        for id in expired {
            if let Some(conn) = self.conns.remove(&id) {
                self.retire_conn(conn, (false, "idle timeout".to_string()));
            }
        }
    }

    fn retire_conn(&mut self, conn: Conn, (graceful, reason): Close) {
        let _ = self.poller.remove(&conn.stream);
        let _ = conn.stream.shutdown(Shutdown::Both);
        let shared = &self.shared;
        let mut registry = shared.registry.lock().expect("registry lock");
        registry.remove(&conn.id);
        drop(registry);
        shared.counters.connection_closed();
        shared.publish(ServerEvent::SessionDown {
            conn_id: conn.id,
            stream_id: conn.machine.stream_id(),
            graceful,
            reason,
        });
    }
}

/// One bounded read off a ready socket into the slab, decoded and
/// published. `Err` says the connection is over and why.
fn read_conn(
    conn: &mut Conn,
    slab: &mut BytesMut,
    events: &mut Vec<SessionEvent>,
    shared: &Shared,
    now: Instant,
) -> Result<(), Close> {
    let counters = &shared.counters;
    if slab.len() < MIN_READ {
        *slab = BytesMut::zeroed(SLAB_SIZE);
    }
    let n = match conn.stream.read(slab) {
        Ok(0) => return Err((conn.machine.is_closed(), "peer closed".to_string())),
        Ok(n) => n,
        Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
            counters.empty_reads.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => return Ok(()),
        Err(e) => return Err((false, format!("read error: {e}"))),
    };
    let input = slab.split_to(n).freeze();
    conn.last_activity = now;
    counters.bytes_rx.fetch_add(n as u64, Ordering::Relaxed);
    conn.stat.bytes_rx.fetch_add(n as u64, Ordering::Relaxed);
    events.clear();
    let oracle = shared.oracle.as_deref();
    match conn.machine.feed(input, oracle, events, &mut conn.outbound) {
        Ok(frames) => counters
            .frames_rx
            .fetch_add(frames as u64, Ordering::Relaxed),
        Err(e) => {
            counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
            let reject = reject_frame(2, &e.to_string());
            conn.outbound.extend_from_slice(&reject);
            return Err((false, format!("protocol error: {e}")));
        }
    };
    let mut outcome = Ok(());
    for event in events.drain(..) {
        match event {
            SessionEvent::Claimed { stream_id, resume } => {
                counters.handshakes.fetch_add(1, Ordering::Relaxed);
                if resume.next_round > 0 {
                    counters.resumed.fetch_add(1, Ordering::Relaxed);
                }
                conn.stat.stream_id.store(stream_id, Ordering::Relaxed);
                shared.publish(ServerEvent::SessionUp {
                    conn_id: conn.id,
                    stream_id,
                    resumed: resume.next_round > 0,
                });
            }
            SessionEvent::Header { chunk } => {
                if let Some(stream_id) = conn.machine.stream_id() {
                    shared.publish(ServerEvent::Header { stream_id, chunk });
                }
            }
            SessionEvent::Data { round, chunk } => {
                counters.data_chunks.fetch_add(1, Ordering::Relaxed);
                conn.stat.rounds_rx.fetch_add(1, Ordering::Relaxed);
                if let Some(stream_id) = conn.machine.stream_id() {
                    shared.publish(ServerEvent::Data {
                        stream_id,
                        round,
                        chunk,
                    });
                }
            }
            SessionEvent::Keepalive => {
                counters.keepalives.fetch_add(1, Ordering::Relaxed);
            }
            SessionEvent::Bye => outcome = Err((true, "bye".to_string())),
        }
    }
    outcome
}

/// Write as much of `pending` as `socket` takes right now, keeping the
/// rest for the next writability report. `Err` is a dead socket.
fn flush_pending(pending: &mut Vec<u8>, socket: &mut impl Write) -> std::io::Result<()> {
    let mut written = 0;
    while written < pending.len() {
        match socket.write(&pending[written..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) => return Err(e),
        }
    }
    pending.drain(..written);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Takes `room` bytes, then pushes back like a full socket buffer.
    struct Throttled {
        taken: Vec<u8>,
        room: usize,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.room == 0 {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.room);
            self.taken.extend_from_slice(&buf[..n]);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn unsent_reply_bytes_stay_pending_instead_of_blocking_the_thread() {
        let mut pending = b"hello-ack claim-ack".to_vec();
        let mut socket = Throttled {
            taken: Vec::new(),
            room: 5,
        };
        flush_pending(&mut pending, &mut socket).unwrap();
        assert_eq!(socket.taken, b"hello");
        assert_eq!(pending, b"-ack claim-ack", "the rest waits for writability");
        flush_pending(&mut pending, &mut socket).unwrap();
        assert_eq!(pending.len(), 14, "a full socket is not an error");
        socket.room = 100;
        flush_pending(&mut pending, &mut socket).unwrap();
        assert!(pending.is_empty());
        assert_eq!(socket.taken, b"hello-ack claim-ack");
    }
}
