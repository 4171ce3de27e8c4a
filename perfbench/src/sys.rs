//! Process facts read from procfs, and the box calibration loop.

use std::hint::black_box;
use std::time::Instant;

/// Clock ticks per second of the utime/stime fields in procfs
/// (`USER_HZ`, fixed at 100 in the Linux user ABI).
const USER_HZ: f64 = 100.0;

/// utime + stime, in ms, from a `/proc/.../stat` file.
fn stat_cpu_ms(path: &str) -> f64 {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    // The command name may hold spaces; fields resume after its ')'.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 and 15 of stat(5); `rest` starts at field 3.
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) * 1e3 / USER_HZ,
        _ => f64::NAN,
    }
}

/// CPU time of the whole process, every thread included, in ms.
pub fn process_cpu_ms() -> f64 {
    stat_cpu_ms("/proc/self/stat")
}

/// CPU time of the calling thread, in ms.
pub fn thread_cpu_ms() -> f64 {
    stat_cpu_ms("/proc/thread-self/stat")
}

/// Peak resident set size of the process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Iterations of the calibration loop (~50 ms on a 2 vCPU x86-64 box).
const CALIBRATION_ITERS: u64 = 20_000_000;

/// Wall time of a fixed single-threaded integer loop, in ms. Run before
/// and after a workload, it shows whether the processor itself was in
/// a slow period; it is recorded as run metadata and never adjusts a
/// metric.
pub fn calibrate_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..CALIBRATION_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = black_box(x);
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procfs_readers_return_live_numbers() {
        assert!(process_cpu_ms() >= 0.0);
        assert!(thread_cpu_ms() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
