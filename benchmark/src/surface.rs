//! The benchmark's whole view of the program: every external item it uses
//! is imported here, exactly once, and nowhere else. An API break in the
//! repo therefore shows up as one clear compile error in this file. The
//! same list is documented in `benchmark/README.md`.

pub use bytes::{deep_copy_count, Bytes};

pub use pg_scene::TaskKind;

pub use pg_codec::{
    Codec, CostModel, DecodedFrame, Decoder, DependencyTracker, EncoderConfig, Packet, PacketParser,
};

pub use pg_inference::redundancy::RedundancyJudge;
pub use pg_inference::tasks::model_for;

pub use pg_net::wire::{data_payload, encode_frame_into, FrameDecoder, FT_DATA};
pub use pg_net::{SessionClient, SessionCounters, SessionServerConfig};

pub use pg_pipeline::concurrent::ConcurrentConfig;
pub use pg_pipeline::{
    ChunkSource, ConcurrentPipeline, ConcurrentReport, DecodeWorkModel, FaultPlan, FeedbackEvent,
    GatePolicy, IngestSink, NetIngestSource, PacketContext, RoundSimReport, RoundSimulator,
    SimConfig, StreamFeed,
};

pub use packetgame::training::test_config;
pub use packetgame::{train_for_task, PacketGame, RandomGate};
