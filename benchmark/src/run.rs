//! One run of one workload: set-up, warm-up, measured reps, and (when
//! tracing) the traced reps, layer probes and control rep.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::net::NetRig;
use crate::probes;
use crate::procfs;
use crate::spans::{self, Span};
use crate::stats::{self, Summary};
use crate::workload::{
    concurrent_rep, lockstep_rep, round_self_share, set_up, ConcurrentPlan, LockstepGate, Prepared,
    RepOutcome, Sizes, Workload,
};

/// What the command line asked of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    /// Wall time the measured reps may take together.
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
}

/// One metric of a result.
pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
    /// Direction, and the regression bound or the end-to-end metric this
    /// layer metric should move.
    pub note: String,
}

/// The result of a run, ready to print.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every metric of the requested kind, in declaration order.
    pub metrics: Vec<Row>,
    pub problems: Vec<String>,
    /// Measured reps behind the medians.
    pub reps: usize,
}

/// Window of the idle-CPU probe on `net_paced`.
const IDLE_WINDOW: Duration = Duration::from_secs(2);

struct Collector {
    by_name: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    decision_ms: Vec<f64>,
    digests: Vec<u64>,
    accuracies: Vec<f64>,
    reps: usize,
}

impl Collector {
    fn new() -> Self {
        Collector {
            by_name: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            decision_ms: Vec::new(),
            digests: Vec::new(),
            accuracies: Vec::new(),
            reps: 0,
        }
    }

    fn push(&mut self, name: &'static str, value: f64) {
        self.by_name.entry(name).or_default().push(value);
    }

    fn add(&mut self, rep: &RepOutcome) {
        for &(name, value) in &rep.values {
            self.push(name, value);
        }
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        self.problems.extend(rep.check_failures.iter().cloned());
        self.decision_ms.extend(&rep.decision_ms);
        self.digests.extend(rep.digest);
        self.accuracies.extend(rep.accuracy);
        self.reps += 1;
    }

    fn median(&self, name: &str) -> Option<f64> {
        self.by_name.get(name).map(|v| stats::median(v))
    }
}

/// Run one rep; a rep the validity guard rejects is rerun once. A rep
/// rejected twice is returned still marked invalid: it never enters a
/// median, and a run left with too few valid reps fails, so a slow
/// generator cannot pass as a slow program.
fn guarded_rep(mut rep: impl FnMut() -> Result<RepOutcome, String>) -> Result<RepOutcome, String> {
    let first = rep()?;
    let Some(why) = &first.invalid else {
        return Ok(first);
    };
    eprintln!("benchmark: rep invalid ({why}); rerunning once");
    rep()
}

fn one_rep(
    spec: &RunSpec,
    sizes: &Sizes,
    prepared: &Prepared,
    rounds: u64,
    traced: bool,
) -> Result<RepOutcome, String> {
    match (&prepared.inputs, spec.workload) {
        (None, _) => Ok(lockstep_rep(
            sizes,
            rounds,
            spec.seed,
            LockstepGate::PacketGame,
            traced,
        )),
        (Some(inputs), w) => {
            let plan = ConcurrentPlan::of(w, sizes, rounds);
            guarded_rep(|| concurrent_rep(&plan, inputs, spec.seed, traced))
        }
    }
}

/// Run measured reps for as long as the time allowance lasts. Attempt k
/// goes to collector `k mod n` and the loop stops only after whole turns,
/// so a traced run alternates untraced and traced reps and both see the
/// same minutes of a noisy machine. Each collector gets at least
/// `min_reps` valid reps, then one more turn whenever a typical one still
/// fits. Invalid reps use up time but are not collected; too few valid
/// ones fail the run. Returns the spans of the last rep.
fn rep_loop(
    allowance: f64,
    min_reps: usize,
    collectors: &mut [Collector],
    mut rep: impl FnMut(usize) -> Result<RepOutcome, String>,
) -> Result<Vec<Span>, String> {
    let n = collectors.len();
    let mut walls: Vec<f64> = Vec::new();
    let mut last_spans = Vec::new();
    loop {
        let valid = collectors.iter().map(|c| c.reps).min().unwrap_or(0);
        if walls.len().is_multiple_of(n) {
            let go_on = if valid < min_reps {
                walls.len() < 2 * min_reps * n
            } else {
                walls.iter().sum::<f64>() + stats::median(&walls) * n as f64 <= allowance
            };
            if !go_on {
                break;
            }
        }
        let which = walls.len() % n;
        let t = Instant::now();
        let outcome = rep(which)?;
        let shown = |name: &str| {
            outcome
                .values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
        };
        let wall = shown("rep_wall_s").unwrap_or(t.elapsed().as_secs_f64());
        walls.push(wall);
        if let Some(why) = &outcome.invalid {
            println!("rep {:>2}: invalid twice, left out ({why})", walls.len());
            continue;
        }
        collectors[which].add(&outcome);
        println!(
            "rep {:>2}: {wall:.3} s · {:.0} streams/s · {:.3} cpu-us · {:.3} allocs · p50 {:.3} ms · p90 {:.3} ms{}",
            walls.len(),
            shown("streams_per_s").unwrap_or(0.0),
            shown("cpu_us_per_stream_round").unwrap_or(0.0),
            shown("allocs_per_stream_round").unwrap_or(0.0),
            shown("decision_p50_ms").unwrap_or(0.0),
            shown("decision_p90_ms").unwrap_or(0.0),
            if outcome.spans.is_empty() { "" } else { " · traced" },
        );
        last_spans = outcome.spans;
    }
    let valid = collectors.iter().map(|c| c.reps).min().unwrap_or(0);
    if valid < min_reps {
        return Err(format!(
            "only {valid} of {} reps were valid; at least {min_reps} are needed",
            walls.len() / n
        ));
    }
    Ok(last_spans)
}

pub fn run(spec: &RunSpec) -> Result<RunResult, String> {
    let w = spec.workload;
    let sizes = if spec.quick {
        Sizes::quick(w)
    } else {
        Sizes::full(w)
    };

    // ---- set-up, several times; the last one's products are used ----
    let mut setup_s = Vec::with_capacity(sizes.setup_reps);
    let mut prepared = None;
    for _ in 0..sizes.setup_reps {
        drop(prepared.take());
        let (p, took) = set_up(w, &sizes, spec.seed)?;
        setup_s.push(took.as_secs_f64());
        prepared = Some(p);
    }
    let prepared = prepared.expect("setup_reps >= 1");
    if let Some(inputs) = &prepared.inputs {
        println!(
            "inputs: {} chunks, {:.1} MiB, digest {:016x}",
            inputs.chunk_count(),
            inputs.bytes as f64 / (1024.0 * 1024.0),
            inputs.digest()
        );
    }

    // ---- one discarded warm-up rep: the first rep after idle is slow ----
    // It is too short for the percentile rule and for every stream to be
    // decoded once, so its checks are discarded with its numbers.
    if sizes.warmup_rounds > 0 {
        one_rep(spec, &sizes, &prepared, sizes.warmup_rounds, false)?;
    }
    let mut problems: Vec<String> = Vec::new();

    // A quick run makes its minimum of reps and no more: each rep trains a
    // predictor, which would dominate a smoke run.
    let seconds = if spec.quick { 0.0 } else { spec.seconds };
    // A traced run alternates untraced and traced reps: the untraced half
    // is the baseline of the overhead ratios.
    let mut extra: Vec<(&'static str, f64)> = Vec::new();
    let (plain, traced) = if spec.traced {
        let mut both = [Collector::new(), Collector::new()];
        let spans = rep_loop(seconds, sizes.min_reps.div_ceil(2), &mut both, |which| {
            one_rep(spec, &sizes, &prepared, sizes.rounds, which == 1)
        })?;
        let [plain, traced] = both;
        trace_phase(
            spec,
            &sizes,
            &prepared,
            &plain,
            &traced,
            &spans,
            &mut extra,
            &mut problems,
        )?;
        (plain, traced)
    } else {
        let mut one = [Collector::new()];
        rep_loop(seconds, sizes.min_reps, &mut one, |_| {
            one_rep(spec, &sizes, &prepared, sizes.rounds, false)
        })?;
        let [plain] = one;
        (plain, Collector::new())
    };

    // ---- lockstep: exact repeatability and the random-gate control ----
    let measured = if spec.traced { &traced } else { &plain };
    if w == Workload::Lockstep {
        let all_digests: Vec<u64> = plain
            .digests
            .iter()
            .chain(&traced.digests)
            .copied()
            .collect();
        if all_digests.windows(2).any(|d| d[0] != d[1]) {
            problems.push("lockstep reps made different decisions".to_string());
        }
        let all_acc: Vec<f64> = plain
            .accuracies
            .iter()
            .chain(&traced.accuracies)
            .copied()
            .collect();
        if all_acc.windows(2).any(|a| a[0] != a[1]) {
            problems.push("lockstep reps scored different accuracies".to_string());
        }
        let random = lockstep_rep(&sizes, sizes.rounds, spec.seed, LockstepGate::Random, false);
        problems.extend(
            random
                .check_failures
                .iter()
                .map(|p| format!("random gate: {p}")),
        );
        match (all_acc.first(), random.accuracy) {
            (Some(&pg), Some(rnd)) if pg > rnd => {}
            (pg, rnd) => problems.push(format!(
                "PacketGame accuracy {pg:?} does not exceed RandomGate's {rnd:?} at the same budget"
            )),
        }
    }
    problems.extend(plain.problems.iter().cloned());
    problems.extend(traced.problems.iter().cloned());

    // ---- assemble the requested metric list ----
    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    let single = |v: f64| Summary {
        median: v,
        q1: v,
        q3: v,
        n: 1,
    };
    let mut metrics = Vec::new();
    if !spec.traced {
        for m in END_TO_END {
            let summary = match m.name {
                "setup_s" => stats::summarize(&setup_s),
                "peak_rss_mb" => Some(single(procfs::peak_rss_mb())),
                name => plain.by_name.get(name).and_then(|v| stats::summarize(v)),
            };
            match summary {
                Some(summary) => metrics.push(Row {
                    name: m.name,
                    unit: m.unit,
                    summary,
                    note: format!(
                        "{} is better, bound {:.0}%",
                        m.better.word(),
                        m.bound * 100.0
                    ),
                }),
                None => problems.push(format!("{} was not measured", m.name)),
            }
        }
    } else {
        extra.push(("failed_share", failed as f64 / attempted.max(1) as f64));
        for m in PER_LAYER {
            let summary = extra
                .iter()
                .find(|(n, _)| *n == m.name)
                .map(|&(_, v)| single(v))
                .or_else(|| {
                    measured
                        .by_name
                        .get(m.name)
                        .and_then(|v| stats::summarize(v))
                })
                // A layer this workload does not exercise did no work.
                .unwrap_or(Summary {
                    median: 0.0,
                    q1: 0.0,
                    q3: 0.0,
                    n: 0,
                });
            metrics.push(Row {
                name: m.name,
                unit: m.unit,
                summary,
                note: format!("{} is better; moves {}", m.better.word(), m.moves),
            });
        }
    }
    Ok(RunResult {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems,
        reps: measured.reps,
    })
}

/// The part of a traced run after its reps: overhead ratios, pooled tail,
/// span-derived figures, the layer probes, the `net_paced` control rep and
/// idle probe, the reconciliation, and the trace file.
#[allow(clippy::too_many_arguments)]
fn trace_phase(
    spec: &RunSpec,
    sizes: &Sizes,
    prepared: &Prepared,
    plain: &Collector,
    traced: &Collector,
    spans: &[Span],
    extra: &mut Vec<(&'static str, f64)>,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let w = spec.workload;
    for (name, of) in [
        ("trace.overhead_ratio", "rep_wall_s"),
        ("trace.cpu_overhead_ratio", "cpu_us_per_stream_round"),
    ] {
        if let (Some(t), Some(p)) = (traced.median(of), plain.median(of)) {
            extra.push((name, t / p));
        }
    }
    let pooled: Vec<f64> = plain
        .decision_ms
        .iter()
        .chain(&traced.decision_ms)
        .copied()
        .collect();
    if let Some((pct, value)) = stats::tail(&pooled) {
        extra.push(("pipeline.decision_tail_ms", value));
        extra.push(("pipeline.decision_tail_pct", pct));
    }
    extra.push(("pipeline.round_self_share", round_self_share(spans)));

    // Layer probes, on the workload's own chunks. Lockstep's packets are
    // made inside the simulator, so its probes get a small input of the
    // same seed, task and stream count.
    let probe_inputs;
    let inputs = match &prepared.inputs {
        Some(inputs) => inputs.as_ref(),
        None => {
            probe_inputs = crate::inputs::Inputs::generate(
                crate::workload::TASK,
                crate::workload::concurrent_encoder(),
                spec.seed,
                sizes.streams,
                sizes.rounds.min(100),
            );
            &probe_inputs
        }
    };
    let mut probed = Vec::new();
    probes::run(inputs, sizes.budget, spec.seed, &mut probed);
    let probe = |name: &str| {
        probed
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };

    // Reconciliation: what the end-to-end CPU cost of a stream-round holds
    // beyond the probed layers is the runtime's own orchestration.
    if w != Workload::Lockstep {
        let cpu_ns = traced.median("cpu_us_per_stream_round").unwrap_or(0.0) * 1e3;
        let keep = traced.median("gate.keep_rate").unwrap_or(0.0);
        let layers = probe("codec.parse_ns_per_packet")
            + probe("codec.closure_ns_per_packet")
            + traced.median("gate.select_ns_per_candidate").unwrap_or(0.0)
            + keep * probe("inference.infer_ns_per_frame")
            + keep * traced.median("gate.feedback_ns_per_event").unwrap_or(0.0);
        extra.push((
            "pipeline.orchestration_ns_per_stream_round",
            cpu_ns - layers,
        ));
    }
    extra.extend(probed);

    if w == Workload::NetPaced {
        let inputs = prepared.inputs.as_ref().expect("net_paced has inputs");
        // The same load without pg-net: an in-process paced rep at the
        // same stream count and budget.
        let control = ConcurrentPlan::of(Workload::Paced, sizes, sizes.rounds);
        let rep = guarded_rep(|| concurrent_rep(&control, inputs, spec.seed, false))?;
        if let Some(why) = &rep.invalid {
            eprintln!("benchmark: control rep invalid twice ({why}); net.added_decision_p50_ms is unreliable");
        }
        problems.extend(rep.check_failures.iter().map(|p| format!("control: {p}")));
        let p50 = |values: &[(&'static str, f64)]| {
            values
                .iter()
                .find(|(n, _)| *n == "decision_p50_ms")
                .map(|&(_, v)| v)
        };
        if let (Some(net), Some(inproc)) = (traced.median("decision_p50_ms"), p50(&rep.values)) {
            extra.push(("net.added_decision_p50_ms", net - inproc));
        }
        let rig = NetRig::connect(inputs, sizes.rounds)?;
        let window = if spec.quick {
            IDLE_WINDOW / 4
        } else {
            IDLE_WINDOW
        };
        extra.push(("net.idle_cpu_ms_per_s", rig.idle_cpu_ms_per_s(window)));
        rig.hang_up();
    }

    let dir = std::path::Path::new("benchmark/out");
    let path = dir.join(format!("trace-{}.json", w.name()));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, spans::chrome_trace_json(w.name(), spans)))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("trace: {} spans written to {}", spans.len(), path.display());
    Ok(())
}
