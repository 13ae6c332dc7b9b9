#![warn(missing_docs)]
//! # pg-codec — synthetic video codec substrate
//!
//! This crate is the **FFmpeg substitute** for the PacketGame reproduction.
//! PacketGame sits *between the packet parser and the decoder* and only ever
//! reads packet metadata — size and picture type (paper §6.1: FFmpeg's
//! `av_parser_parse2`, `pkt.size`, `pkt.pict_type`). We therefore don't need
//! pixels; we need a codec whose
//!
//! * **packetization** follows real GOP structure (I/P/B picture types,
//!   configurable GOP length and B-frame count),
//! * **packet sizes** are conditioned on scene content the way real encoders
//!   are (I-size tracks spatial complexity, P/B-size tracks motion/residual,
//!   with per-codec efficiency factors for H.264/H.265/VP9/JPEG2000),
//! * **decode costs** are heterogeneous and dependency-laden (paper Fig. 6:
//!   decoding a packet may require first decoding skipped reference frames).
//!
//! The crate provides a real binary bitstream container ([`bitstream`]), an
//! incremental parser ([`parser`]) that recovers packet metadata from raw
//! bytes (our `av_parser_parse2`), a reference-tracking [`decoder`] that
//! refuses to decode packets with missing references, and a GOP
//! [`deps`]-tracker that computes the *pending decode cost* of a packet
//! given which of its ancestors were skipped — the quantity PacketGame's
//! combinatorial optimizer needs.
//!
//! The optimizer needs that quantity for every stream every round, so the
//! per-packet path — parse, note arrival, pending cost, closure, decode
//! hand-off — is kept off the allocator: a packet's references sit inline
//! in a [`RefList`], and everything a stream remembers about its last two
//! GOPs sits in one sorted ring, [`GopRing`] (see the [`deps`] module
//! docs). `tests/window_alloc.rs` counts.
//!
//! ## Quick tour
//!
//! ```
//! use pg_codec::{Codec, Encoder, EncoderConfig};
//! use pg_scene::{PersonSceneGen, SceneGenerator};
//!
//! let config = EncoderConfig::new(Codec::H264).with_gop(25).with_b_frames(2);
//! let mut encoder = Encoder::new(config, 7);
//! let mut scene = PersonSceneGen::new(7, 25.0);
//! let packet = encoder.encode(&scene.next_frame());
//! assert!(packet.meta.size > 0);
//! ```

pub mod bitstream;
pub mod config;
pub mod cost;
pub mod decoder;
pub mod deps;
pub mod encoder;
pub mod error;
pub mod frame;
pub mod packet;
pub mod parser;
pub mod size_model;

pub use bitstream::{
    serialize_stream, serialize_stream_chunks, BitstreamWriter, STREAM_MAGIC, SYNC_MARKER,
};
pub use config::{Codec, EncoderConfig};
pub use cost::CostModel;
pub use decoder::{DecodedFrame, Decoder, DecoderStats};
pub use deps::{DependencyTracker, GopRing};
pub use encoder::Encoder;
pub use error::CodecError;
pub use frame::FrameType;
pub use packet::{Packet, PacketMeta, RefList};
pub use parser::{parse_stream, PacketParser, ParsedStreamHeader};
pub use size_model::SizeModel;
