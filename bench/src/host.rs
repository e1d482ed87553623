//! Host facts the benchmark reports beside its timings: core count, peak
//! resident memory, process CPU time (Linux `/proc/self`) and the host's
//! current speed against a fixed reference kernel.

use std::hint::black_box;
use std::time::Instant;

/// Xorshift steps of the reference kernel.
const REFERENCE_STEPS: u64 = 30_000_000;

/// Seconds the reference kernel takes on the host the benchmark was sized
/// on (a 2-vCPU Xeon VM, in a quiet period).
pub const REFERENCE_S: f64 = 0.048;

/// Times one pass of the reference kernel, a register-only xorshift loop.
/// It belongs to the benchmark, not to the simulator, so no change to the
/// simulator moves it. On a shared host its time follows the minutes-long
/// swings in host speed that move every timing.
///
/// Adding a pointer chase through 8 MB followed some swings more closely,
/// but the chase is several times noisier from one pass to the next, so
/// the scaled timings spread more.
#[must_use]
pub fn reference_s() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
    let mut acc = 0u64;
    for _ in 0..REFERENCE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.wrapping_mul(0x2545_F491_4F6C_DD1D));
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Cores the host exposes to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU seconds this process has used, over all its
/// threads including finished ones, or `None` where `/proc/self/stat` is
/// unavailable. Resolution is one clock tick (10 ms at the usual 100 Hz).
#[must_use]
pub fn cpu_seconds() -> Option<f64> {
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, 12 and 13 here.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_parse_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
            assert!(cpu_seconds().is_some_and(|s| s >= 0.0));
        }
        assert!(nproc() >= 1);
    }

    #[test]
    fn reference_kernel_takes_measurable_time() {
        assert!(reference_s() > 0.0);
    }
}
