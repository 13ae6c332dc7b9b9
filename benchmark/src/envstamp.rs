//! The environment stamp printed with every run: a number counts only
//! with the machine, toolchain and tree it was measured on.

use std::process::Command;

use crate::run::RunSpec;
use crate::workload::Sizes;

fn tool_line(program: &str, args: &[&str]) -> String {
    // The child is waited for by `output`; a missing tool (the driver's
    // checkout is not a git repository) is reported, not fatal.
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_features() -> String {
    #[allow(unused_mut)]
    let mut found: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("sse2") {
            found.push("sse2");
        }
        if std::is_x86_feature_detected!("avx2") {
            found.push("avx2");
        }
        if std::is_x86_feature_detected!("fma") {
            found.push("fma");
        }
        if std::is_x86_feature_detected!("avx512f") {
            found.push("avx512f");
        }
    }
    format!("{} [{}]", std::env::consts::ARCH, found.join(" "))
}

pub fn print(spec: &RunSpec) {
    let sizes = if spec.quick {
        Sizes::quick(spec.workload)
    } else {
        Sizes::full(spec.workload)
    };
    let git = tool_line("git", &["describe", "--always", "--dirty"]);
    println!(
        "env: nproc {} · cpu {} · {} · git {}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu_features(),
        tool_line("rustc", &["--version"]),
        git
    );
    println!(
        "run: seed {} · {} s of measured reps (≥ {}) · {} streams × {} rounds per rep, budget {} · warm-up rep {} rounds · set-up × {}",
        spec.seed,
        spec.seconds,
        sizes.min_reps,
        sizes.streams,
        sizes.rounds,
        sizes.budget,
        sizes.warmup_rounds,
        sizes.setup_reps
    );
    if git.ends_with("-dirty") {
        eprintln!("benchmark: WARNING: ****************************************************");
        eprintln!("benchmark: WARNING: the git tree is DIRTY ({git}); these numbers do not");
        eprintln!("benchmark: WARNING: belong to any commit and must not be recorded.");
        eprintln!("benchmark: WARNING: ****************************************************");
    }
}
