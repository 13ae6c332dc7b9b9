//! Every workload in one command, and the repeatability acceptance run.
//!
//! Each workload run is a child process of this same executable, invoked
//! exactly as the driver invokes it, so process-wide figures (peak RSS,
//! allocator state, warm-up) never leak from one workload into the next.

use std::process::{Command, ExitCode, Stdio};

use crate::metrics::{Better, END_TO_END};
use crate::workload::Workload;
use crate::Args;

/// `run_seconds` of `BENCHMARK.json`: what one run measures for.
pub const DEFAULT_SECONDS: f64 = 18.0;

/// A child's result line, parsed back.
#[derive(Debug, PartialEq)]
pub struct Parsed {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

/// Parse the one-line result object this program prints (not general
/// JSON: exactly the shape `result_json` writes).
pub fn parse_result(line: &str) -> Option<Parsed> {
    let after = |key: &str| -> Option<&str> {
        let at = line.find(key)? + key.len();
        Some(line[at..].trim_start())
    };
    let number = |s: &str| -> Option<f64> {
        let end = s.find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))?;
        s[..end].parse().ok()
    };
    let correct = after("\"correct\":")?.starts_with("true");
    let attempted = number(after("\"attempted\":")?)? as u64;
    let failed = number(after("\"failed\":")?)? as u64;
    let mut metrics = Vec::new();
    let body = after("\"metrics\": {")?;
    for entry in body.split("\"unit\":") {
        // Each piece but the last ends `"name": {"value": <number>, `.
        let Some(value_at) = entry.rfind("\"value\":") else {
            continue;
        };
        let value = number(entry[value_at + 8..].trim_start())?;
        let head = &entry[..value_at];
        let name_end = head.rfind("\": {")?;
        let name_start = head[..name_end].rfind('"')? + 1;
        metrics.push((head[name_start..name_end].to_string(), value));
    }
    Some(Parsed {
        correct,
        attempted,
        failed,
        metrics,
    })
}

fn child(w: Workload, seed: u64, seconds: f64, trace: bool, quick: bool) -> Result<Parsed, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = cmd
        .output()
        .map_err(|e| format!("spawn {}: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| !l.starts_with('{')) {
        println!("  {line}");
    }
    let last = stdout.lines().last().unwrap_or("");
    let parsed = parse_result(last)
        .ok_or_else(|| format!("{}: no result line (exit {})", w.name(), output.status))?;
    if !output.status.success() {
        return Err(format!("{}: exit {}", w.name(), output.status));
    }
    Ok(parsed)
}

/// Relative worsening of `second` against `first` (positive = worse).
fn worsening(better: Better, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

pub fn run(args: &Args) -> ExitCode {
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    if args.quick {
        println!("QUICK smoke run: sizes cut, results NOT comparable with a full run");
    }
    let mut ok = true;
    // sets[k][workload] = that set's end-to-end medians.
    let mut sets: Vec<Vec<Parsed>> = Vec::new();
    for set in 0..args.sets {
        let mut this_set = Vec::new();
        for w in Workload::ALL {
            println!(
                "== set {} · {} · end-to-end (untraced) ==",
                set + 1,
                w.name()
            );
            match child(w, args.seed, seconds, false, args.quick) {
                Ok(p) => {
                    ok &= p.correct;
                    this_set.push(p);
                }
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    return ExitCode::from(1);
                }
            }
            // The traced run rides along once; a repeatability run only
            // compares end-to-end numbers.
            if set == 0 && args.sets == 1 {
                println!("== {} · per-layer (traced) ==", w.name());
                match child(w, args.seed, seconds, true, args.quick) {
                    Ok(p) => ok &= p.correct,
                    Err(e) => {
                        eprintln!("benchmark: {e}");
                        return ExitCode::from(1);
                    }
                }
            }
        }
        sets.push(this_set);
    }
    if sets.len() >= 2 {
        println!("== repeatability: last set against the first, same build ==");
        println!(
            "{:<10} {:<26} {:>14} {:>14} {:>9} {:>7}",
            "workload", "metric", "first", "last", "worse by", "bound"
        );
        let (first, last) = (&sets[0], &sets[sets.len() - 1]);
        for (k, w) in Workload::ALL.iter().enumerate() {
            for m in END_TO_END {
                let get = |p: &Parsed| p.metrics.iter().find(|(n, _)| n == m.name).map(|&(_, v)| v);
                let (Some(a), Some(b)) = (get(&first[k]), get(&last[k])) else {
                    println!("{:<10} {:<26} missing", w.name(), m.name);
                    ok = false;
                    continue;
                };
                // Differences count in both directions: the code is the same.
                let diff = worsening(m.better, a, b).abs();
                let verdict = if diff <= m.bound { "" } else { "  EXCEEDED" };
                println!(
                    "{:<10} {:<26} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.0}%{verdict}",
                    w.name(),
                    m.name,
                    diff * 100.0,
                    m.bound * 100.0
                );
                ok &= diff <= m.bound;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: a check failed or a bound was exceeded");
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Higher, 10.0, 12.0) < 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 5.0), 0.0);
    }

    #[test]
    fn result_lines_with_exponents_parse() {
        let line = "{\"correct\": false, \"attempted\": 5, \"failed\": 2, \"metrics\": {\"a.b\": {\"value\": 1.5e-7, \"unit\": \"s\"}, \"c\": {\"value\": 0.0, \"unit\": \"1/s\"}}}";
        let p = parse_result(line).expect("parses");
        assert_eq!((p.correct, p.attempted, p.failed), (false, 5, 2));
        assert_eq!(
            p.metrics,
            vec![("a.b".to_string(), 1.5e-7), ("c".to_string(), 0.0)]
        );
        assert_eq!(parse_result("not a result"), None);
    }
}
