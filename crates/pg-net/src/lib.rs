#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]
//! # pg-net — network transport substrate
//!
//! The paper's deployment ingests more than 1000 **RTSP** camera streams
//! over a campus network before anything is parsed or gated. This crate
//! models that ingest path so the reproduction exercises real
//! transport-facing code:
//!
//! * [`frag`] — RTP-style fragmentation of the PGVS bitstream into
//!   MTU-sized datagrams with sequence numbers and CRC-32 integrity;
//! * [`impair`] — a deterministic impaired channel with fault injection
//!   (drop / duplicate / reorder / corrupt / delay), in the spirit of the
//!   fault-injection options every smoltcp example ships with;
//! * [`receiver`] — a reordering, integrity-checking reassembly buffer
//!   that delivers the in-order byte stream and skips unrecoverable gaps
//!   after a configurable stall;
//! * [`source`] — [`NetworkedStream`], an end-to-end camera: scene →
//!   encoder → fragmenter → channel → receiver → parser, yielding parsed
//!   packets plus transport statistics.
//!
//! Lost datagrams tear holes in the byte stream; the PGVS parser recovers
//! at the next record sync marker (see
//! [`PacketParser::resync`](pg_codec::PacketParser::resync)), so a lossy
//! link degrades gracefully into lost *packets* rather than a dead stream.
//!
//! ## Live ingest plane
//!
//! The datagram modules above simulate transport in-process. The live
//! ingest plane carries real bytes over real sockets:
//!
//! * [`wire`] — length-framed session protocol (hello / claim / header /
//!   data / keepalive) with a frame decoder that slices DATA payloads out
//!   of the read they arrived in;
//! * [`session`] — the transport-agnostic server-side state machine,
//!   resume oracle, and shared session counters;
//! * [`server`] — a readiness-driven `std::net` session server: a fixed
//!   pool of ingest threads, each blocked in its own poller (epoll on
//!   Linux, three hand-declared symbols; a scan of the same three calls
//!   elsewhere) and reading ready sockets into a shared slab, so an idle
//!   connection costs nothing and a received chunk is never copied;
//! * [`client`] — the blocking feeder client used by `pgv feed`, the
//!   loopback bench fleets, and tests;
//! * [`httpd`] — the one hand-rolled HTTP/1.1 accept loop shared by the
//!   metrics scrape endpoint and the session control endpoint.
//!
//! ## Quick tour
//!
//! ```
//! use pg_net::{ImpairmentConfig, NetworkedStream};
//! use pg_scene::TaskKind;
//!
//! let mut stream = NetworkedStream::new(TaskKind::FireDetection, 7, ImpairmentConfig::lossy(0.05));
//! let mut received = 0;
//! for _ in 0..200 {
//!     received += stream.tick().len();
//! }
//! assert!(received > 100, "most packets should survive 5% datagram loss");
//! ```

pub mod arq;
pub mod client;
pub mod crc;
pub mod frag;
pub mod httpd;
pub mod impair;
#[cfg_attr(target_os = "linux", path = "epoll.rs")]
#[cfg_attr(not(target_os = "linux"), path = "scan.rs")]
mod poller;
pub mod receiver;
#[cfg(all(test, target_os = "linux"))]
mod scan;
pub mod server;
pub mod session;
pub mod source;
pub mod wire;

pub use arq::{Nack, ReliableLink};
pub use client::SessionClient;
pub use crc::crc32;
pub use frag::{Datagram, Fragmenter, DATAGRAM_HEADER_SIZE, DEFAULT_MTU};
pub use httpd::{HttpHandler, HttpResponse, MiniHttpServer};
pub use impair::{
    flip_bit_seeded, flip_random_bit, truncate_seeded, ImpairedChannel, ImpairmentConfig,
};
pub use receiver::{ReassemblyConfig, ReorderReceiver};
pub use server::{ServerEvent, SessionServer, SessionServerConfig};
pub use session::{ResumeOracle, ResumePoint, SessionCounters, SessionEvent, SessionMachine};
pub use source::{NetworkedStream, TransportStats};
