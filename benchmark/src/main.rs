//! The repo benchmark.
//!
//! ```text
//! pg-benchmark --workload <flood|paced|net_paced|lockstep> --seed N --seconds S --trace <0|1> [--quick]
//! pg-benchmark [--sets N] [--seed N] [--seconds S] [--quick]     # every workload, in child processes
//! ```
//!
//! With `--workload` the program makes one run and prints, as the last
//! line of its standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Without it, it
//! runs every workload (untraced and traced) in child processes and
//! prints one table; `--sets 2` is the repeatability acceptance run.
//! See `benchmark/README.md`.

mod alloc;
mod envstamp;
mod gate;
mod inputs;
mod metrics;
mod net;
mod probes;
mod procfs;
mod run;
mod source;
mod spans;
mod stats;
mod suite;
mod surface;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;

use run::{RunResult, RunSpec};
use workload::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Parsed command line.
pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub quick: bool,
    pub sets: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: None,
        trace: false,
        quick: false,
        sets: 1,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?}: want 0 or 1")),
                };
            }
            "--sets" => {
                args.sets = value("a count")?
                    .parse()
                    .ok()
                    .filter(|n| (1..=8).contains(n))
                    .ok_or("--sets: want 1 to 8")?;
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`, every value with all its digits.
pub fn result_json(result: &RunResult) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        result.correct, result.attempted, result.failed
    );
    for (k, row) in result.metrics.iter().enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        let median = row.summary.median;
        let value = if median.is_finite() { median } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            row.name, row.unit
        );
    }
    out.push_str("}}");
    out
}

fn print_table(spec: &RunSpec, result: &RunResult) {
    println!(
        "workload {} · seed {} · {} measured reps · trace {}{}",
        spec.workload.name(),
        spec.seed,
        result.reps,
        u8::from(spec.traced),
        if spec.quick {
            " · QUICK: sizes cut, results NOT comparable with a full run"
        } else {
            ""
        }
    );
    println!(
        "{:<46} {:>14} {:<6} {:>14} {:>14} {:>3}  note",
        "metric", "median", "unit", "q1", "q3", "n"
    );
    for row in &result.metrics {
        let s = &row.summary;
        println!(
            "{:<46} {:>14.4} {:<6} {:>14.4} {:>14.4} {:>3}  {}",
            row.name, s.median, row.unit, s.q1, s.q3, s.n, row.note
        );
    }
    println!(
        "attempted {} stream-rounds, failed {} · output checks {}",
        result.attempted,
        result.failed,
        if result.correct { "passed" } else { "FAILED" }
    );
    for p in &result.problems {
        println!("  check failed: {p}");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return suite::run(&args);
    };
    let spec = RunSpec {
        workload,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(suite::DEFAULT_SECONDS),
        traced: args.trace,
        quick: args.quick,
    };
    envstamp::print(&spec);
    match run::run(&spec) {
        Ok(result) => {
            print_table(&spec, &result);
            println!("{}", result_json(&result));
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("benchmark: run failed: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_args(&argv(
            "--workload net_paced --seed 11 --seconds 18 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload, Some(Workload::NetPaced));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.quick, a.sets),
            (11, Some(18.0), true, false, 1)
        );
        let a = parse_args(&argv("--sets 2 --quick")).expect("valid");
        assert!(a.workload.is_none() && a.quick && a.sets == 2 && a.seed == 7);
        for bad in [
            "--workload",
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--sets 0",
            "--frob",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let row = |name, unit, v: f64| run::Row {
            name,
            unit,
            summary: Summary {
                median: v,
                q1: v,
                q3: v,
                n: 3,
            },
            note: String::new(),
        };
        let result = RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![row("latency_ms", "ms", 1.2034), row("setup_s", "s", 0.8127)],
            problems: Vec::new(),
            reps: 3,
        };
        assert_eq!(
            result_json(&result),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        let parsed = suite::parse_result(&result_json(&result)).expect("round trip");
        assert_eq!(
            parsed.metrics,
            vec![
                ("latency_ms".to_string(), 1.2034),
                ("setup_s".to_string(), 0.8127)
            ]
        );
        assert!(parsed.correct && parsed.attempted == 1000 && parsed.failed == 0);
    }
}
