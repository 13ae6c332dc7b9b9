//! The four workloads: sizes, set-up, one rep, and the output checks.
//!
//! A rep is one call into the program on a fresh pipeline (or simulator)
//! and a freshly trained gate; training, binding and handshakes happen
//! before the timed window opens. Throughput, CPU and allocation figures
//! cover the whole call, start-up and drain included; latency percentiles
//! skip a rep's first [`LATENCY_SKIP_ROUNDS`] rounds, where stores and
//! channels first grow.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::alloc::{self, AllocWindow};
use crate::gate::{census_rounds, GateLog, TimedGate, COST_EPS};
use crate::inputs::Inputs;
use crate::net::{self, NetRig};
use crate::procfs;
use crate::source::{ns_since, Pace, ReplaySource, SourceLog};
use crate::spans::{self, Span, Track};
use crate::stats;
use crate::surface::{
    deep_copy_count, test_config, train_for_task, Codec, ConcurrentConfig, ConcurrentPipeline,
    ConcurrentReport, DecodeWorkModel, EncoderConfig, GatePolicy, PacketGame, RandomGate,
    RoundSimReport, RoundSimulator, SimConfig, TaskKind,
};

/// Every workload gates anomaly-detection streams.
pub const TASK: TaskKind = TaskKind::AnomalyDetection;
/// The paper's 25 rounds per second (§4.1).
pub const ROUND_PERIOD: Duration = Duration::from_millis(40);
/// A paced generator later than this (p90 over a rep) invalidates the rep.
pub const MAX_LATE_P90_MS: f64 = 1.0;
/// A flood generator off-CPU for less than this share invalidates the rep.
pub const MIN_BLOCKED_SHARE: f64 = 0.5;
/// Rounds at the start of each rep left out of latency percentiles.
pub const LATENCY_SKIP_ROUNDS: u64 = 10;
const STALL_TIMEOUT: Duration = Duration::from_secs(10);

/// The concurrent workloads' encoder: 400 kbit/s keeps a packet near
/// 0.55 KB, so a rep's pre-generated input stays small. No in-process
/// layer reads the payload padding.
pub fn concurrent_encoder() -> EncoderConfig {
    EncoderConfig::new(Codec::H264).with_bitrate(400_000)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Flood,
    Paced,
    NetPaced,
    Lockstep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Flood,
        Workload::Paced,
        Workload::NetPaced,
        Workload::Lockstep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Flood => "flood",
            Workload::Paced => "paced",
            Workload::NetPaced => "net_paced",
            Workload::Lockstep => "lockstep",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How large one workload runs.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub streams: usize,
    pub budget: f64,
    /// Rounds in a measured rep.
    pub rounds: u64,
    /// Rounds in the discarded warm-up rep (0 = none).
    pub warmup_rounds: u64,
    /// Times set-up is repeated (the median is reported).
    pub setup_reps: usize,
    /// Measured reps a run makes at least.
    pub min_reps: usize,
    /// Quick mode: tiny sizes, results not comparable with a full run.
    pub quick: bool,
}

impl Sizes {
    /// Full sizes. The issue's 1000-round reps do not fit the driver's
    /// time cap (92 runs in 3420 s), so reps are shorter and repeated for
    /// as long as `--seconds` allows; stream counts and budgets are kept.
    pub fn full(w: Workload) -> Sizes {
        let (streams, budget, rounds, warmup_rounds) = match w {
            Workload::Flood => (1024, 256.0, 300, 150),
            Workload::Paced => (1024, 256.0, 110, 40),
            // One PGL1 session per stream: 384 keeps client plus server
            // descriptors under a 1024 ulimit.
            Workload::NetPaced => (384, 96.0, 110, 40),
            Workload::Lockstep => (1024, 256.0, 400, 200),
        };
        Sizes {
            streams,
            budget,
            rounds,
            warmup_rounds,
            // Set-up is short and single-threaded, so its time is the
            // noisiest number of a run; where it is cheap it is repeated
            // more often.
            setup_reps: if w == Workload::Flood { 5 } else { 7 },
            min_reps: 3,
            quick: false,
        }
    }

    /// Smoke sizes: same workloads and metric names, a few seconds each,
    /// no warm-up rep.
    pub fn quick(w: Workload) -> Sizes {
        let (streams, budget, rounds, warmup_rounds) = match w {
            Workload::Flood => (256, 64.0, 100, 0),
            Workload::Paced => (256, 64.0, 25, 0),
            Workload::NetPaced => (96, 24.0, 25, 0),
            Workload::Lockstep => (256, 64.0, 120, 0),
        };
        Sizes {
            streams,
            budget,
            rounds,
            warmup_rounds,
            setup_reps: 1,
            min_reps: 2,
            quick: true,
        }
    }
}

/// What set-up produces and every rep shares.
pub struct Prepared {
    /// `None` for `lockstep`, whose simulator generates its own packets.
    pub inputs: Option<Arc<Inputs>>,
}

/// One timed set-up: input generation, predictor training, and on
/// `net_paced` a bind plus every session's handshake.
pub fn set_up(w: Workload, sizes: &Sizes, seed: u64) -> Result<(Prepared, Duration), String> {
    let t = Instant::now();
    let rounds = sizes.rounds.max(sizes.warmup_rounds);
    let inputs = (w != Workload::Lockstep).then(|| {
        Arc::new(Inputs::generate(
            TASK,
            concurrent_encoder(),
            seed,
            sizes.streams,
            rounds,
        ))
    });
    std::hint::black_box(train_for_task(TASK, &test_config(), seed));
    if w == Workload::NetPaced {
        let inputs = inputs.as_ref().expect("net_paced has inputs");
        NetRig::connect(inputs, sizes.rounds)?.hang_up();
    }
    if w == Workload::Lockstep {
        std::hint::black_box(lockstep_simulator(sizes, seed));
    }
    Ok((Prepared { inputs }, t.elapsed()))
}

/// Process-level accounting over one timed window.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// When the window opened, nanoseconds since the rep's epoch.
    pub start_ns: u64,
    pub wall: Duration,
    pub cpu: Duration,
    pub alloc: AllocWindow,
    pub rss_growth_mb: f64,
    pub deep_copies: u64,
}

impl Window {
    /// When the window closed, nanoseconds since the rep's epoch.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.wall.as_nanos() as u64
    }

    /// The root span of a traced rep: the whole timed call.
    fn run_span(&self) -> Span {
        Span {
            name: "run",
            track: Track::Run,
            start_ns: self.start_ns,
            end_ns: self.end_ns(),
            round: 0,
        }
    }
}

fn timed<T>(epoch: Instant, f: impl FnOnce() -> T) -> (T, Window) {
    let rss0 = procfs::rss_mb();
    let copies0 = deep_copy_count();
    let alloc0 = alloc::snapshot();
    let cpu0 = procfs::process_cpu();
    let wall0 = Instant::now();
    let out = f();
    let wall = wall0.elapsed();
    let cpu = procfs::process_cpu() - cpu0;
    let alloc = alloc::since(alloc0);
    let window = Window {
        start_ns: ns_since(epoch, wall0),
        wall,
        cpu,
        alloc,
        rss_growth_mb: procfs::rss_mb() - rss0,
        deep_copies: deep_copy_count() - copies0,
    };
    (out, window)
}

/// Everything one rep yields.
pub struct RepOutcome {
    /// Metric values of this rep, by name.
    pub values: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold (empty = correct).
    pub check_failures: Vec<String>,
    /// Why the validity guard rejects the rep, if it does.
    pub invalid: Option<String>,
    /// Post-skip decision latencies in ms, for pooled tails.
    pub decision_ms: Vec<f64>,
    /// Spans of a traced rep, rep-epoch nanoseconds.
    pub spans: Vec<Span>,
    /// Lockstep only: decision digest and accuracy, compared across reps.
    pub digest: Option<u64>,
    pub accuracy: Option<f64>,
}

impl RepOutcome {
    fn new(attempted: u64) -> Self {
        RepOutcome {
            values: Vec::with_capacity(64),
            attempted,
            failed: 0,
            check_failures: Vec::new(),
            invalid: None,
            decision_ms: Vec::new(),
            spans: Vec::new(),
            digest: None,
            accuracy: None,
        }
    }
}

/// The shape of one concurrent rep.
#[derive(Debug, Clone, Copy)]
pub struct ConcurrentPlan {
    pub streams: usize,
    pub budget: f64,
    pub rounds: u64,
    pub pace: Pace,
    pub over_tcp: bool,
    pub quick: bool,
}

impl ConcurrentPlan {
    pub fn of(w: Workload, sizes: &Sizes, rounds: u64) -> ConcurrentPlan {
        ConcurrentPlan {
            streams: sizes.streams,
            budget: sizes.budget,
            rounds,
            pace: if w == Workload::Flood {
                Pace::Flood
            } else {
                Pace::Every(ROUND_PERIOD)
            },
            over_tcp: w == Workload::NetPaced,
            quick: sizes.quick,
        }
    }

    fn config(&self, seed: u64) -> ConcurrentConfig {
        let paced = self.pace != Pace::Flood;
        ConcurrentConfig {
            streams: self.streams,
            rounds: self.rounds,
            // Decode is free (flood: all time is real CPU work in the
            // layers) or sleeping (paced: 256 units × 0.4 ms over four
            // workers is about 64% pool utilisation), never spinning.
            decode_workers: if paced { 4 } else { 1 },
            parser_shards: 1,
            budget_per_round: self.budget,
            task: TASK,
            encoder: concurrent_encoder(),
            work: if paced {
                DecodeWorkModel::offload_ns(400_000)
            } else {
                DecodeWorkModel::spin(0)
            },
            seed,
            stall_timeout: STALL_TIMEOUT,
            ..ConcurrentConfig::default()
        }
    }
}

fn fresh_gate(seed: u64) -> PacketGame {
    PacketGame::new(test_config(), train_for_task(TASK, &test_config(), seed))
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// One rep of `flood`, `paced` or `net_paced` (or of the in-process
/// control that `net_paced` is compared against).
pub fn concurrent_rep(
    plan: &ConcurrentPlan,
    inputs: &Arc<Inputs>,
    seed: u64,
    traced: bool,
) -> Result<RepOutcome, String> {
    let m = plan.streams;
    let rounds = plan.rounds;
    let policy = fresh_gate(seed);
    let rig = if plan.over_tcp {
        Some(NetRig::connect(inputs, rounds)?)
    } else {
        None
    };
    let period = match plan.pace {
        Pace::Flood => None,
        Pace::Every(p) => Some(p),
    };

    let epoch = Instant::now();
    let mut gate = TimedGate::new(policy, epoch, m, rounds, traced);
    let pipeline = ConcurrentPipeline::new(plan.config(seed));
    let slot = Arc::new(Mutex::new(None));
    let mut net_side = None;
    let ((report, source_log), window) = match rig {
        None => {
            let source = ReplaySource {
                inputs: inputs.clone(),
                rounds,
                pace: plan.pace,
                epoch,
                traced,
                slot: slot.clone(),
            };
            timed(epoch, || {
                let report = pipeline.run_with_source(&mut gate, Box::new(source));
                let log = slot.lock().expect("log slot").take();
                (report, log)
            })
        }
        Some(rig) => {
            let counters = rig.counters.clone();
            let handshake_us = rig.handshake_us.clone();
            let period = period.expect("net_paced is paced");
            let (source, clients) = rig.split();
            let out = timed(epoch, || {
                let feeder =
                    net::spawn_feeder(clients, inputs.clone(), rounds, period, epoch, traced);
                let report = pipeline.run_with_source(&mut gate, Box::new(source));
                let log = feeder.join().expect("feeder thread does not panic");
                (report, log.ok())
            });
            net_side = Some((counters, handshake_us));
            out
        }
    };
    let gate_log = gate.into_log();
    let Some(source_log) = source_log else {
        return Err("the load generator did not finish its rounds".to_string());
    };

    let mut out = RepOutcome::new(m as u64 * rounds);
    check_concurrent(plan, &report, &gate_log, &window, &mut out);
    if let Some((counters, _)) = &net_side {
        net::check_counters(counters, m as u64, &mut out.check_failures);
    }
    if gate_log.select_out_ns.len() as u64 != rounds || source_log.arrive_ns.len() as u64 != rounds
    {
        out.check_failures.push(format!(
            "{} of {rounds} rounds decided, {} delivered",
            gate_log.select_out_ns.len(),
            source_log.arrive_ns.len()
        ));
        return Ok(out);
    }

    // ---- end-to-end figures of this rep ----
    let stream_rounds = (m as u64 * rounds) as f64;
    let wall_s = window.wall.as_secs_f64();
    let decision: Vec<f64> = (LATENCY_SKIP_ROUNDS.min(rounds / 2)..rounds)
        .map(|r| {
            ms(gate_log.select_out_ns[r as usize].saturating_sub(source_log.arrive_ns[r as usize]))
        })
        .collect();
    push_common(&mut out.values, &window, stream_rounds);
    out.values.push(("streams_per_s", stream_rounds / wall_s));
    for (name, pct) in [("decision_p50_ms", 50.0), ("decision_p90_ms", 90.0)] {
        match stats::percentile(&decision, pct, plan.quick) {
            Some(v) => out.values.push((name, v)),
            None => out.check_failures.push(format!(
                "{name}: {} samples do not support p{pct}",
                decision.len()
            )),
        }
    }
    if let Some(period) = period {
        let limit = period.as_secs_f64() * 1e3;
        let missed = decision.iter().filter(|&&d| d > limit).count();
        out.values.push((
            "pipeline.deadline_miss_share",
            missed as f64 / decision.len().max(1) as f64,
        ));
    }

    // ---- validity of the load generator ----
    let late: Vec<f64> = source_log.late_ns.iter().map(|&n| ms(n)).collect();
    if period.is_some() {
        let late_p90 = stats::percentile(&late, 90.0, plan.quick).unwrap_or(0.0);
        out.values.push(("source.late_p90_ms", late_p90));
        out.values.push((
            "source.late_max_ms",
            late.iter().copied().fold(0.0, f64::max),
        ));
        if late_p90 > MAX_LATE_P90_MS {
            out.invalid = Some(format!(
                "generator ran late: p90 {late_p90:.3} ms > {MAX_LATE_P90_MS} ms"
            ));
        }
    } else {
        let blocked = source_log.blocked_share();
        out.values.push(("source.blocked_share", blocked));
        if blocked < MIN_BLOCKED_SHARE {
            out.invalid = Some(format!(
                "generator-bound: blocked share {blocked:.3} < {MIN_BLOCKED_SHARE}"
            ));
        }
    }

    // ---- per-layer figures taken in-run ----
    push_gate_figures(
        &mut out.values,
        &gate_log,
        report.packets_decoded,
        stream_rounds,
        wall_s,
        plan.quick,
    );
    let mut round_us: Vec<f64> = report.round_latency_us.iter().map(|&u| u as f64).collect();
    round_us.drain(..(LATENCY_SKIP_ROUNDS.min(rounds / 2) as usize).min(round_us.len()));
    for (name, pct) in [
        ("pipeline.round_p50_us", 50.0),
        ("pipeline.round_p90_us", 90.0),
    ] {
        if let Some(v) = stats::percentile(&round_us, pct, plan.quick) {
            out.values.push((name, v));
        }
    }
    let last_select = *gate_log.select_out_ns.last().expect("rounds > 0");
    out.values.push((
        "pipeline.drain_s",
        window.end_ns().saturating_sub(last_select) as f64 / 1e9,
    ));
    out.values
        .push(("pipeline.payload_deep_copies", window.deep_copies as f64));
    if traced {
        let pre_gate: Vec<f64> = (0..rounds as usize)
            .map(|r| {
                let select_in = gate_log.select_out_ns[r] - gate_log.select_ns[r];
                select_in.saturating_sub(source_log.delivered_ns[r]) as f64 / 1e3
            })
            .collect();
        if let Some(v) = stats::percentile(&pre_gate, 50.0, plan.quick) {
            out.values.push(("pipeline.pre_gate_p50_us", v));
        }
        if let (Some((_, sw0)), Some((threads, sw1))) =
            (gate_log.census_first, gate_log.census_last)
        {
            let (first, last) = census_rounds(rounds);
            out.values.push(("proc.threads", threads as f64));
            out.values.push((
                "pipeline.ctx_switches_per_round",
                sw1.saturating_sub(sw0) as f64 / (last - first) as f64,
            ));
        }
    }
    if let Some((counters, handshake_us)) = &net_side {
        net::push_counters(&mut out.values, counters, wall_s);
        out.values
            .push(("net.handshake_p50_us", stats::median(handshake_us)));
    }

    out.failed = failed_stream_rounds(&gate_log, m as u64).min(out.attempted);
    out.decision_ms = decision;

    // ---- spans ----
    if traced {
        out.spans = assemble_spans(&window, source_log, gate_log, &mut out.check_failures);
    }
    Ok(out)
}

/// A stream-round fails when it was not a candidate in its own round or
/// its round broke the budget contract.
fn failed_stream_rounds(gate_log: &GateLog, m: u64) -> u64 {
    let absent: u64 = gate_log
        .candidates
        .iter()
        .map(|&c| m - u64::from(c).min(m))
        .sum();
    absent + gate_log.contract_breaks * m
}

/// What the decorator saw of the gate, as per-layer figures. The timing
/// ones exist in traced reps only.
fn push_gate_figures(
    values: &mut Vec<(&'static str, f64)>,
    gate_log: &GateLog,
    packets_decoded: u64,
    stream_rounds: f64,
    wall_s: f64,
    quick: bool,
) {
    values.push(("gate.keep_rate", packets_decoded as f64 / stream_rounds));
    values.push(("gate.overshoot_max_units", gate_log.overshoot_max));
    let events = gate_log.feedback_events.max(1) as f64;
    values.push((
        "pipeline.feedback_lag_rounds",
        gate_log.feedback_lag_sum as f64 / events,
    ));
    values.push((
        "pipeline.feedback_delivered_share",
        gate_log.feedback_events as f64 / packets_decoded.max(1) as f64,
    ));
    if gate_log.spans.is_none() {
        return;
    }
    let select_us: Vec<f64> = gate_log.select_ns.iter().map(|&n| n as f64 / 1e3).collect();
    let select_total: u64 = gate_log.select_ns.iter().sum();
    for (name, pct) in [("gate.select_p50_us", 50.0), ("gate.select_p90_us", 90.0)] {
        if let Some(v) = stats::percentile(&select_us, pct, quick) {
            values.push((name, v));
        }
    }
    let offered: u64 = gate_log.candidates.iter().map(|&c| u64::from(c)).sum();
    values.push((
        "gate.select_ns_per_candidate",
        select_total as f64 / offered.max(1) as f64,
    ));
    values.push((
        "gate.feedback_ns_per_event",
        gate_log.feedback_ns as f64 / events,
    ));
    values.push(("gate.select_share", select_total as f64 / 1e9 / wall_s));
}

/// Wall-, CPU- and allocator-derived figures every workload reports.
fn push_common(values: &mut Vec<(&'static str, f64)>, window: &Window, stream_rounds: f64) {
    values.push(("rep_wall_s", window.wall.as_secs_f64()));
    values.push((
        "cpu_us_per_stream_round",
        window.cpu.as_secs_f64() * 1e6 / stream_rounds,
    ));
    values.push((
        "allocs_per_stream_round",
        window.alloc.allocs as f64 / stream_rounds,
    ));
    values.push((
        "proc.alloc_bytes_per_stream_round",
        window.alloc.bytes as f64 / stream_rounds,
    ));
    values.push((
        "proc.peak_heap_mb",
        window.alloc.peak_live_above_start as f64 / (1024.0 * 1024.0),
    ));
    values.push(("proc.rss_growth_mb", window.rss_growth_mb));
}

/// Output checks of a concurrent rep.
fn check_concurrent(
    plan: &ConcurrentPlan,
    report: &ConcurrentReport,
    gate_log: &GateLog,
    window: &Window,
    out: &mut RepOutcome,
) {
    let m = plan.streams as u64;
    let fails = &mut out.check_failures;
    if report.packets_parsed != m * plan.rounds {
        fails.push(format!(
            "packets_parsed {} != streams × rounds {}",
            report.packets_parsed,
            m * plan.rounds
        ));
    }
    if !report.faults.is_empty() {
        fails.push(format!(
            "{} faults, first: {:?}",
            report.faults.len(),
            report.faults[0]
        ));
    }
    if let Some(r) = gate_log.candidates.iter().position(|&c| u64::from(c) != m) {
        fails.push(format!(
            "round {r} offered {} candidates, not {m}",
            gate_log.candidates[r]
        ));
    }
    if gate_log.contract_breaks > 0 {
        fails.push(format!(
            "{} rounds overshot the budget by more than one closure",
            gate_log.contract_breaks
        ));
    }
    check_spend(report.cost_spent, report.packets_decoded, gate_log, fails);
    // Quick reps are too short for the gate's exploration to reach every
    // stream, so only full-size reps are held to this.
    if let Some(i) = report
        .frames_per_stream
        .iter()
        .position(|&f| f == 0)
        .filter(|_| !plan.quick)
    {
        fails.push(format!("stream {i} never decoded a frame"));
    }
    if window.deep_copies != 0 {
        fails.push(format!("{} payload deep copies", window.deep_copies));
    }
}

/// The runtime must have spent exactly what its budget rule allows on the
/// decisions the gate returned: per-round spend ≤ B + one closure.
fn check_spend(cost_spent: f64, packets_decoded: u64, gate_log: &GateLog, fails: &mut Vec<String>) {
    let low: f64 = gate_log.spend.iter().map(|s| s.0).sum();
    let high: f64 = gate_log.spend.iter().map(|s| s.1).sum();
    let slack = COST_EPS * high.max(1.0);
    if cost_spent < low - slack || cost_spent > high + slack {
        fails.push(format!(
            "cost spent {cost_spent} is outside the [{low}, {high}] the budget rule allows"
        ));
    }
    let (kept_low, kept_high) = gate_log.kept;
    if packets_decoded < kept_low || packets_decoded > kept_high {
        fails.push(format!(
            "packets_decoded {packets_decoded} is outside the [{kept_low}, {kept_high}] the budget rule dispatches"
        ));
    }
}

/// Merge a traced rep's buffers into one span list: `run` root, one
/// cross-thread `round` span per round, and the recorded children. Checks
/// that no round's children cover more than the round itself.
fn assemble_spans(
    window: &Window,
    source_log: SourceLog,
    gate_log: GateLog,
    fails: &mut Vec<String>,
) -> Vec<Span> {
    let rounds = gate_log.select_out_ns.len();
    let mut all = Vec::with_capacity(4 * rounds + 1);
    all.push(window.run_span());
    for r in 0..rounds {
        all.push(Span {
            name: "round",
            track: Track::Round,
            start_ns: source_log.arrive_ns[r],
            end_ns: gate_log.select_out_ns[r],
            round: r as u64,
        });
    }
    let mut dropped = 0;
    for buf in [source_log.spans, gate_log.spans].into_iter().flatten() {
        let (spans, d) = buf.into_spans();
        all.extend(spans);
        dropped += d;
    }
    if dropped > 0 {
        fails.push(format!("{dropped} spans did not fit their buffer"));
    }
    if let Err(e) = check_round_children(&all) {
        fails.push(e);
    }
    all
}

/// In every round, the children's summed duration must not exceed the
/// `round` span (they run one after another along the round's path).
pub fn check_round_children(all: &[Span]) -> Result<(), String> {
    let rounds: Vec<&Span> = all.iter().filter(|s| s.name == "round").collect();
    let mut child_sum = vec![0u64; rounds.len()];
    for s in all {
        if s.track != Track::Round && s.track != Track::Run {
            if let Some(sum) = child_sum.get_mut(s.round as usize) {
                *sum += s.dur_ns();
            }
        }
    }
    for (round, sum) in rounds.iter().zip(child_sum) {
        if sum > round.dur_ns() {
            return Err(format!(
                "round {}: children sum to {sum} ns, more than the round's {} ns",
                round.round,
                round.dur_ns()
            ));
        }
    }
    Ok(())
}

/// Mean self time of the `round` spans, as a share of their duration: the
/// part of a round spent in none of the benchmark-visible calls (parse
/// hand-off, batch flush, assemble, wake-ups, queue wait).
pub fn round_self_share(all: &[Span]) -> f64 {
    let (mut own, mut total) = (0u64, 0u64);
    for round in all.iter().filter(|s| s.name == "round") {
        let kids: Vec<Span> = all
            .iter()
            .filter(|s| s.round == round.round && s.track != Track::Round && s.track != Track::Run)
            .copied()
            .collect();
        own += spans::self_time_ns(round, &kids);
        total += round.dur_ns();
    }
    if total == 0 {
        0.0
    } else {
        own as f64 / total as f64
    }
}

// ---------------------------------------------------------------------------
// lockstep
// ---------------------------------------------------------------------------

fn lockstep_simulator(sizes: &Sizes, seed: u64) -> RoundSimulator {
    RoundSimulator::uniform(
        TASK,
        sizes.streams,
        seed,
        SimConfig {
            budget_per_round: sizes.budget,
            ..SimConfig::default()
        },
    )
}

/// Which gate a lockstep rep runs.
pub enum LockstepGate {
    PacketGame,
    Random,
}

/// One rep of `lockstep`: the deterministic round simulator, which
/// generates and encodes scenes inside `run`.
pub fn lockstep_rep(
    sizes: &Sizes,
    rounds: u64,
    seed: u64,
    which: LockstepGate,
    traced: bool,
) -> RepOutcome {
    let m = sizes.streams;
    match which {
        LockstepGate::PacketGame => lockstep_with(fresh_gate(seed), sizes, rounds, seed, traced),
        LockstepGate::Random => lockstep_with(RandomGate::new(seed), sizes, rounds, seed, traced),
    }
    .unwrap_or_else(|e| RepOutcome {
        failed: m as u64 * rounds,
        check_failures: vec![e],
        ..RepOutcome::new(m as u64 * rounds)
    })
}

fn lockstep_with<G: GatePolicy>(
    policy: G,
    sizes: &Sizes,
    rounds: u64,
    seed: u64,
    traced: bool,
) -> Result<RepOutcome, String> {
    let m = sizes.streams;
    let sim = lockstep_simulator(sizes, seed);
    let epoch = Instant::now();
    let mut gate = TimedGate::new(policy, epoch, m, rounds, traced);
    let (report, window): (RoundSimReport, Window) = timed(epoch, || sim.run(&mut gate, rounds));
    let gate_log = gate.into_log();
    let stream_rounds = (m as u64 * rounds) as f64;
    let wall_s = window.wall.as_secs_f64();

    let mut out = RepOutcome {
        digest: Some(gate_log.digest.finish()),
        accuracy: Some(report.accuracy_overall()),
        ..RepOutcome::new(m as u64 * rounds)
    };
    let fails = &mut out.check_failures;
    if gate_log.select_out_ns.len() as u64 != rounds {
        return Err(format!(
            "{} of {rounds} rounds decided",
            gate_log.select_out_ns.len()
        ));
    }
    if !report.faults.is_empty() {
        fails.push(format!("{} faults", report.faults.len()));
    }
    if gate_log.contract_breaks > 0 {
        fails.push(format!(
            "{} rounds overshot the budget by more than one closure",
            gate_log.contract_breaks
        ));
    }
    check_spend(report.cost_spent, report.packets_decoded, &gate_log, fails);
    if let Some(r) = gate_log.candidates.iter().position(|&c| c as usize != m) {
        fails.push(format!(
            "round {r} offered {} candidates, not {m}",
            gate_log.candidates[r]
        ));
    }
    if window.deep_copies != 0 {
        fails.push(format!("{} payload deep copies", window.deep_copies));
    }

    push_common(&mut out.values, &window, stream_rounds);
    out.values.push(("streams_per_s", stream_rounds / wall_s));
    // Rounds run back to back, so round r's work begins when round r−1's
    // decision is out: the decision latency is the round period.
    let skip = LATENCY_SKIP_ROUNDS.min(rounds / 2).max(1) as usize;
    let decision: Vec<f64> = (skip..rounds as usize)
        .map(|r| ms(gate_log.select_out_ns[r] - gate_log.select_out_ns[r - 1]))
        .collect();
    for (name, pct) in [("decision_p50_ms", 50.0), ("decision_p90_ms", 90.0)] {
        match stats::percentile(&decision, pct, sizes.quick) {
            Some(v) => out.values.push((name, v)),
            None => fails.push(format!(
                "{name}: {} samples do not support p{pct}",
                decision.len()
            )),
        }
    }
    out.values.push(("accuracy", report.accuracy_overall()));
    out.values.push(("recall", report.recall()));
    out.values
        .push(("sim.rounds_per_s", rounds as f64 / wall_s));
    push_gate_figures(
        &mut out.values,
        &gate_log,
        report.packets_decoded,
        stream_rounds,
        wall_s,
        sizes.quick,
    );
    out.values
        .push(("pipeline.payload_deep_copies", window.deep_copies as f64));
    if traced {
        let select_total: u64 = gate_log.select_ns.iter().sum();
        out.values
            .push(("sim.select_share", select_total as f64 / 1e9 / wall_s));
        if let Some((threads, _)) = gate_log.census_last {
            out.values.push(("proc.threads", threads as f64));
        }
    }
    out.failed = failed_stream_rounds(&gate_log, m as u64).min(out.attempted);
    out.decision_ms = decision;

    if traced {
        let mut all = Vec::with_capacity(3 * rounds as usize + 1);
        all.push(window.run_span());
        for r in 0..rounds as usize {
            all.push(Span {
                name: "round",
                track: Track::Round,
                start_ns: if r == 0 {
                    window.start_ns
                } else {
                    gate_log.select_out_ns[r - 1]
                },
                end_ns: gate_log.select_out_ns[r],
                round: r as u64,
            });
        }
        if let Some(buf) = gate_log.spans {
            all.extend(buf.into_spans().0);
        }
        if let Err(e) = check_round_children(&all) {
            out.check_failures.push(e);
        }
        out.spans = all;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, track: Track, start_ns: u64, end_ns: u64, round: u64) -> Span {
        Span {
            name,
            track,
            start_ns,
            end_ns,
            round,
        }
    }

    #[test]
    fn children_may_not_outlast_their_round() {
        let ok = [
            span("run", Track::Run, 0, 10_000, 0),
            span("round", Track::Round, 100, 1_100, 0),
            span("source.deliver", Track::Source, 100, 300, 0),
            span("gate.select", Track::Gate, 800, 1_100, 0),
        ];
        assert_eq!(check_round_children(&ok), Ok(()));
        assert!((round_self_share(&ok) - 0.5).abs() < 1e-12);
        let mut bad = ok;
        bad[2].end_ns = 1_000;
        assert!(check_round_children(&bad).is_err());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(Sizes::full(w).rounds >= Sizes::quick(w).rounds);
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn quick_flood_and_lockstep_reps_pass_their_checks() {
        let sizes = Sizes::quick(Workload::Lockstep);
        let a = lockstep_rep(&sizes, 40, 7, LockstepGate::PacketGame, false);
        let b = lockstep_rep(&sizes, 40, 7, LockstepGate::PacketGame, true);
        assert!(a.check_failures.is_empty(), "{:?}", a.check_failures);
        assert_eq!(a.digest, b.digest, "lockstep decisions repeat exactly");
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.failed, 0);

        let sizes = Sizes::quick(Workload::Flood);
        let inputs = Arc::new(Inputs::generate(
            TASK,
            concurrent_encoder(),
            7,
            sizes.streams,
            sizes.rounds,
        ));
        let plan = ConcurrentPlan::of(Workload::Flood, &sizes, sizes.rounds);
        let rep = concurrent_rep(&plan, &inputs, 7, true).expect("rep runs");
        assert!(rep.check_failures.is_empty(), "{:?}", rep.check_failures);
        assert_eq!((rep.attempted, rep.failed), (256 * sizes.rounds, 0));
        assert!(rep.spans.iter().any(|s| s.name == "source.deliver"));
    }
}
