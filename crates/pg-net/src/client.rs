//! Blocking session client: the feeder side of the live ingest plane.
//!
//! Used by `pgv feed`, the loopback bench fleets, and tests. The
//! handshake (hello → claim → acks) runs blocking with a read timeout;
//! after that the socket is switched to nonblocking so one backpressured
//! stream cannot stall a feeder thread that multiplexes many clients —
//! data writes go through a small outbox drained with `try_flush`.

use crate::session::ResumePoint;
use crate::wire::{self, FrameDecoder};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A connected, handshaken session client.
pub struct SessionClient {
    stream: TcpStream,
    resume: ResumePoint,
    outbox: Vec<u8>,
    sent: usize,
}

impl SessionClient {
    /// Connect, handshake, and claim `stream_id`. `resume_hint` is what
    /// the client believes its next round is; the server's answer (via
    /// its resume oracle) wins and is available as [`resume`].
    ///
    /// [`resume`]: SessionClient::resume
    pub fn connect(
        addr: SocketAddr,
        stream_id: u32,
        resume_hint: u64,
        timeout: Duration,
    ) -> Result<SessionClient, String> {
        let stream = TcpStream::connect_timeout(&addr, timeout)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        let _ = stream.set_nodelay(true);
        let mut client = SessionClient {
            stream,
            resume: ResumePoint::fresh(),
            outbox: Vec::new(),
            sent: 0,
        };
        let mut hello = Vec::new();
        wire::encode_frame_into(&mut hello, wire::FT_HELLO, &wire::hello_payload());
        wire::encode_frame_into(
            &mut hello,
            wire::FT_CLAIM,
            &wire::claim_payload(stream_id, resume_hint),
        );
        client
            .stream
            .write_all(&hello)
            .map_err(|e| format!("handshake write: {e}"))?;
        client.read_acks(timeout)?;
        client
            .stream
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
        Ok(client)
    }

    fn read_acks(&mut self, timeout: Duration) -> Result<(), String> {
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        let mut buf = [0u8; 1024];
        let deadline = Instant::now() + timeout;
        while frames.len() < 2 {
            if Instant::now() > deadline {
                return Err("handshake timed out".to_string());
            }
            let n = match self.stream.read(&mut buf) {
                Ok(0) => return Err("server closed during handshake".to_string()),
                Ok(n) => n,
                Err(ref e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(e) => return Err(format!("handshake read: {e}")),
            };
            dec.push(&buf[..n], &mut frames)
                .map_err(|e| format!("handshake framing: {e}"))?;
        }
        match frames[0].0 {
            wire::FT_HELLO_ACK => {}
            wire::FT_REJECT => {
                return Err(format!("rejected: {}", reject_message(&frames[0].1)))
            }
            t => return Err(format!("unexpected handshake frame {t:#04x}")),
        }
        match frames[1].0 {
            wire::FT_CLAIM_ACK => {
                let p = &frames[1].1;
                let header_needed = p.get(4).copied().unwrap_or(1) != 0;
                let next_round = wire::read_u64(p, 5).unwrap_or(0);
                self.resume = ResumePoint {
                    header_needed,
                    next_round,
                };
                Ok(())
            }
            wire::FT_REJECT => Err(format!("rejected: {}", reject_message(&frames[1].1))),
            t => Err(format!("unexpected handshake frame {t:#04x}")),
        }
    }

    /// Resume point the server handed back at claim time.
    pub fn resume(&self) -> ResumePoint {
        self.resume
    }

    /// Queue the stream header chunk.
    pub fn queue_header(&mut self, header: &[u8]) {
        wire::encode_frame_into(&mut self.outbox, wire::FT_HEADER, header);
    }

    /// Queue one round of bitstream, framed in place: the outbox keeps
    /// its capacity across flushes, so a steady feeder allocates nothing.
    pub fn queue_chunk(&mut self, round: u64, chunk: &[u8]) {
        wire::encode_data_frame_into(&mut self.outbox, round, chunk);
    }

    /// Queue a keepalive ping.
    pub fn queue_keepalive(&mut self) {
        wire::encode_frame_into(&mut self.outbox, wire::FT_KEEPALIVE, &[]);
    }

    /// Queue the graceful goodbye.
    pub fn queue_bye(&mut self) {
        wire::encode_frame_into(&mut self.outbox, wire::FT_BYE, &[]);
    }

    /// Bytes queued but not yet accepted by the kernel.
    pub fn pending(&self) -> usize {
        self.outbox.len() - self.sent
    }

    /// Push queued bytes into the socket without blocking. Returns
    /// `Ok(true)` when the outbox fully drained, `Ok(false)` when the
    /// socket would block (try again later).
    pub fn try_flush(&mut self) -> std::io::Result<bool> {
        while self.sent < self.outbox.len() {
            match self.stream.write(&self.outbox[self.sent..]) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => self.sent += n,
                Err(ref e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::Interrupted =>
                {
                    return Ok(false);
                }
                Err(e) => return Err(e),
            }
        }
        self.outbox.clear();
        self.sent = 0;
        Ok(true)
    }

    /// Block (politely) until the outbox drains or the deadline passes.
    pub fn flush_blocking(&mut self, timeout: Duration) -> std::io::Result<()> {
        let deadline = Instant::now() + timeout;
        loop {
            if self.try_flush()? {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(std::io::ErrorKind::TimedOut.into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Abruptly drop the connection (no BYE) — simulates a torn link.
    pub fn abort(self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

fn reject_message(payload: &[u8]) -> String {
    if payload.len() <= 1 {
        return "unspecified".to_string();
    }
    String::from_utf8_lossy(&payload[1..]).into_owned()
}
