#![warn(missing_docs)]
//! # pg-pipeline — the multi-stream video-inference pipeline
//!
//! The **evaluation substrate**: parse → gate → decode → infer → feedback,
//! over `m` concurrent streams, under a per-round decoding budget.
//!
//! Every mode runs one round engine (the crate-private `engine` module,
//! DESIGN.md D14, D16). Four deterministic **lockstep** modes differ only
//! in the packet source they hand it. One round = one packet per stream (the
//! paper's formalization, §4.1: "we divide one second into 25 rounds, so
//! we receive 1000 packets at each round"):
//!
//! * [`round::RoundSimulator`] — scene generator + encoder per stream,
//!   with optional fault and drift injection; behind every
//!   accuracy/concurrency experiment;
//! * [`replay::ReplaySimulator`] — pre-encoded packet sequences (e.g.
//!   parsed `.pgv` files), no re-encoding;
//! * [`netround::NetworkedRoundSimulator`] — senders behind a simulated
//!   lossy link, raw or ARQ;
//! * [`cluster::ClusterSim`] — N gate instances over one fleet, with
//!   scheduled stream migration.
//!
//! Two **threaded** runtimes measure wall-clock behaviour:
//!
//! * [`concurrent::ConcurrentPipeline`] — threads and channels moving real
//!   bytes through sharded parsers and a work-stealing decoder pool, fed
//!   in-process or from live TCP sessions ([`ingest::NetIngestSource`]).
//!   Its gate thread runs the same engine over the parsers' batches, with
//!   decode handed to the pool instead of done inline;
//! * [`cluster::ClusterPipeline`] — N concurrent pipelines under an epoch
//!   budget coordinator.
//!
//! Gating policies plug in through the [`gate::GatePolicy`] trait; the
//! `packetgame` crate provides PacketGame itself plus all baselines.

pub mod autopilot;
pub mod budget;
pub mod cluster;
pub mod concurrent;
pub(crate) mod engine;
pub mod export;
pub mod fault;
pub mod gate;
pub mod ingest;
pub mod insight;
pub mod metrics;
pub mod netround;
pub mod replay;
pub mod round;
pub mod search;
pub mod steal;
pub mod telemetry;
pub mod trace;

pub use autopilot::{Autopilot, AutopilotAction, AutopilotConfig, AutopilotSnapshot};
pub use budget::RoundBudget;
pub use cluster::{
    partition_fleet, BudgetDecision, ClusterConfig, ClusterPipeline, ClusterReport, ClusterSim,
    ClusterSimConfig, ClusterSimReport, MigrationPlan,
};
pub use concurrent::{
    ChunkSource, ClusterControl, ConcurrentPipeline, ConcurrentReport, DecodeWorkModel,
    IngestSink, WorkKind,
};
pub use export::{
    prometheus_exposition, prometheus_exposition_with_instance, validate_exposition,
    with_instance_label,
};
pub use fault::{
    ChunkFaultMode, FaultKind, FaultPlan, FaultRecord, HealthSummary, PipelineError,
    QuarantineConfig, StreamHealth,
};
pub use gate::{FeedbackEvent, GatePolicy, PacketContext};
pub use ingest::{
    ChurnEvent, ChurnPlan, FleetConfig, FleetReport, IngestControl, LoopbackFleet,
    NetIngestSource, StreamFeed,
};
pub use insight::{
    Insight, InsightConfig, InsightPulse, InsightSnapshot, Lemma1Snapshot, PacketOutcome,
    PageHinkley, RegretSnapshot, RoundOutcome, SelectionEntry,
};
pub use metrics::RoundSimReport;
pub use netround::{NetworkedRoundSimulator, NetworkedSimReport};
pub use replay::ReplaySimulator;
pub use round::{RegimeShift, RoundSimulator, SimConfig, StreamSpec};
pub use search::max_streams_at_accuracy;
pub use telemetry::{
    AuditReason, GateAuditEntry, IngestSnapshot, Stage, Telemetry, TelemetrySnapshot,
};
pub use trace::{
    RoundBreakdown, RoundPart, SpanId, SpanToken, Trace, TraceConfig, TraceSnapshot, TraceSpan,
    TraceStage, Track,
};
