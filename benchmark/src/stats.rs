//! Order statistics and the process-level readings (`/proc`) the
//! end-to-end metrics are built from.

/// The `p`-quantile (`0.0..=1.0`) of `sorted`, linearly interpolated
/// between closest ranks. Panics on an empty slice: every caller has
/// already checked that something was measured.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them —
/// the rule the acceptance driver applies to run-to-run spread. A single
/// value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        ((q3 - q1) / q2).abs()
    }
}

/// Kernel clock ticks per second for `utime`/`stime`. `sysconf` is not
/// reachable from `std`; every Linux the repo targets uses 100.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds consumed so far by every thread of this
/// process (`/proc/self/stat` fields 14 and 15).
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; count from its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11).and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) / CLK_TCK
}

/// Cores available to this process (0 when unknown); recorded with every
/// result because the load shape is one thread per core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

fn status_kb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|l| l.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set so far, MB.
pub fn rss_peak_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident set, MB.
pub fn rss_now_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn proc_readings_are_live() {
        assert!(rss_peak_mb() > 0.0);
        assert!(rss_now_mb() > 0.0);
        assert!(rss_peak_mb() >= rss_now_mb() * 0.5);
        let before = process_cpu_seconds();
        let mut x = 0u64;
        while process_cpu_seconds() - before < 0.02 {
            for i in 0..100_000u64 {
                x = x.wrapping_add(std::hint::black_box(i));
            }
        }
        assert!(x > 0);
    }
}
