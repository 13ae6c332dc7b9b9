//! Process accounting read from the kernel: CPU clocks and `/proc/self`.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_clock(clock_id: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, which the cfg above pins) and both clock ids
    // are defined by POSIX; the call writes `ts` and nothing else.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_clock(_clock_id: i32) -> Duration {
    panic!("the benchmark reads Linux CPU clocks and /proc; it runs on 64-bit Linux only");
}

/// User plus system CPU time of the whole process, exited threads
/// included (the same quantity `/proc/self/stat` reports in 10 ms ticks,
/// at nanosecond resolution).
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

fn status_kb(status: &str, key: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

fn self_status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status_kb(&status, key).unwrap_or_else(|| panic!("{key} missing from /proc/self/status"))
        / 1024.0
}

/// Peak resident set of the process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    self_status_mb("VmHWM:")
}

/// Current resident set (`VmRSS`), in MiB.
pub fn rss_mb() -> f64 {
    self_status_mb("VmRSS:")
}

/// Live threads and their summed context switches (voluntary plus
/// involuntary), from `/proc/self/task/*/status`. Only live threads are
/// visible, so call this while the stage threads still run.
pub fn threads_and_ctx_switches() -> (u64, u64) {
    let mut threads = 0;
    let mut switches = 0;
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return (0, 0);
    };
    for task in tasks.flatten() {
        // A thread may exit between the listing and the read.
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        threads += 1;
        for line in status.lines() {
            if let Some(v) = line
                .strip_prefix("voluntary_ctxt_switches:")
                .or_else(|| line.strip_prefix("nonvoluntary_ctxt_switches:"))
            {
                switches += v.trim().parse::<u64>().unwrap_or(0);
            }
        }
    }
    (threads, switches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tx\nVmHWM:\t  204800 kB\nVmRSS:\t    1024 kB\n";
        assert_eq!(status_kb(status, "VmHWM:"), Some(204800.0));
        assert_eq!(status_kb(status, "VmRSS:"), Some(1024.0));
        assert_eq!(status_kb(status, "VmSwap:"), None);
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu(), thread_cpu());
        let mut x = 1u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu() > t0);
        assert!(process_cpu() > p0);
        assert!(peak_rss_mb() >= rss_mb() * 0.5);
        let (threads, _) = threads_and_ctx_switches();
        assert!(threads >= 1);
    }
}
