//! `pgv pipeline` — run the multi-core concurrent runtime end to end.
//!
//! Unlike `pgv gate` (round simulator, accuracy-focused), this drives the
//! real threaded pipeline — producer → sharded parsers → gate →
//! work-stealing decode pool, whose workers also run inference and send
//! the gate its feedback — and reports throughput.

use crate::args::{parse_task, Options};
use packetgame::training::test_config;
use packetgame::PacketGame;
use pg_pipeline::concurrent::ConcurrentConfig;
use pg_pipeline::gate::DecodeAll;
use pg_pipeline::{ConcurrentPipeline, DecodeWorkModel, GatePolicy, Telemetry, Trace};

const HELP: &str = "\
pgv pipeline — run the threaded end-to-end runtime and report throughput

OPTIONS:
    --task <PC|AD|SR|FD>   workload task (default AD)
    --streams <n>          concurrent streams (default 64)
    --rounds <n>           packets per stream (default 200)
    --budget <units>       decode budget per round (default streams/2)
    --workers <n>          decode worker threads (default 2)
    --shards <n>           parser shards; 0 = auto min(4, cores/2)
                           (default 0)
    --policy <name>        packetgame|decodeall (default packetgame;
                           packetgame trains a small predictor on the fly)
    --offload-ns <n>       model decode as an n-nanosecond hardware
                           offload per cost unit instead of a CPU spin
                           (default 0 = spin)
    --seed <n>             workload seed (default 1)
    --trace-out <path>     record per-stage spans (parser shards, gate
                           select, queue-wait vs decode execution,
                           inference) and write a Chrome trace-event
                           JSON loadable in Perfetto / chrome://tracing
    --trace-sample <n>     trace every n-th round only (default 1)
";

pub fn run(args: &[String]) -> Result<(), String> {
    let o = Options::parse(args)?;
    if o.wants_help() {
        print!("{HELP}");
        return Ok(());
    }
    let task = parse_task(&o.str_or("task", "AD"))?;
    let streams: usize = o.num_or("streams", 64)?;
    let rounds: u64 = o.num_or("rounds", 200)?;
    let budget: f64 = o.num_or("budget", streams as f64 / 2.0)?;
    let workers: usize = o.num_or("workers", 2)?;
    let shards: usize = o.num_or("shards", 0)?;
    let policy = o.str_or("policy", "packetgame");
    let offload_ns: u64 = o.num_or("offload-ns", 0)?;
    let seed: u64 = o.num_or("seed", 1)?;
    let trace_path = o.str_or("trace-out", "");
    let trace_sample: u64 = o.num_or("trace-sample", 1)?;
    let trace = if trace_path.is_empty() {
        Trace::disabled()
    } else {
        Trace::with_config(pg_pipeline::TraceConfig {
            sample_every: trace_sample,
            ..pg_pipeline::TraceConfig::default()
        })
    };

    let cfg = ConcurrentConfig {
        streams,
        rounds,
        decode_workers: workers.max(1),
        parser_shards: shards,
        budget_per_round: budget,
        task,
        seed,
        work: if offload_ns > 0 {
            DecodeWorkModel::offload_ns(offload_ns)
        } else {
            DecodeWorkModel::default()
        },
        ..Default::default()
    };
    let effective_shards = cfg.effective_shards();
    let mut gate: Box<dyn GatePolicy> = match policy.as_str() {
        "decodeall" => Box::new(DecodeAll),
        "packetgame" => {
            eprintln!("training a small predictor ...");
            let config = test_config();
            let predictor = packetgame::train_for_task(task, &config, seed);
            Box::new(PacketGame::new(config, predictor))
        }
        other => return Err(format!("unknown policy {other:?} (packetgame/decodeall)")),
    };

    eprintln!(
        "running {streams} x {task} streams for {rounds} rounds, \
         {} decode workers, {effective_shards} parser shards, B={budget} ...",
        cfg.decode_workers
    );
    let mut pipeline = ConcurrentPipeline::new(cfg);
    if trace.is_enabled() {
        pipeline = pipeline.with_telemetry(Telemetry::enabled().with_trace(trace.clone()));
    }
    let report = pipeline.run(gate.as_mut());

    println!("wall            {:.2}s", report.wall.as_secs_f64());
    println!("streams/sec     {:.0}", report.streams_decoded_per_sec());
    println!("packets/sec     {:.0}", report.pipeline_pps());
    println!(
        "round latency   p50 {:?}  p99 {:?}",
        report.round_latency_percentile(50.0),
        report.round_latency_percentile(99.0)
    );
    println!("parser shards   {}", report.parser_shards);
    println!(
        "parsed          {} packets ({} bytes)",
        report.packets_parsed, report.bytes_parsed
    );
    println!(
        "decoded         {} packets -> {} frames ({:.1} cost units spent)",
        report.packets_decoded, report.frames_decoded, report.cost_spent
    );
    if !report.faults.is_empty() || report.health.degraded_events > 0 {
        let h = &report.health;
        println!("faults          {} recorded", report.faults.len());
        println!(
            "health          {} degraded, {} recovered, {} quarantined at end, {} dead",
            h.degraded_events, h.recovered_events, h.quarantined_at_end, h.dead_streams
        );
    }
    crate::cmd_gate::write_trace(&trace_path, &trace)?;
    Ok(())
}
