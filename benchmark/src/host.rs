//! Host-drift diagnostics: a fixed pure-compute calibration loop,
//! steal time and the process's peak resident set.

use std::time::Instant;

/// Milliseconds one fixed integer-mixing loop takes. The loop does no
/// allocation and no I/O, so a change in this figure between two runs
/// is the host, not the program.
pub fn calib_ms() -> f64 {
    let t = Instant::now();
    let mut x: u64 = std::hint::black_box(0x9e37_79b9_7f4a_7c15);
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// Host-wide steal time so far, in seconds (`/proc/stat`, first
/// `cpu` line, eighth field, in USER_HZ = 100 ticks per second).
/// 0 where the file is unavailable.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().next()?.to_string();
            let ticks: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
            Some(ticks / 100.0)
        })
        .unwrap_or(0.0)
}

/// Peak resident set of this process (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_readings_are_sane() {
        assert!(calib_ms() > 0.0);
        assert!(steal_s() >= 0.0);
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
    }
}
