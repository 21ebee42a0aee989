//! Small statistics and process-memory helpers.

use rdt_obs::PhaseStats;

/// The `q`-quantile (`0 < q <= 1`) of `values` by nearest rank; 0 for an
/// empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (mean of the two middle values for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `q`-quantile of a phase's power-of-two latency histogram, in ns,
/// interpolated linearly inside the bucket that holds it; 0 while empty.
pub fn phase_quantile_ns(stats: &PhaseStats, q: f64) -> f64 {
    if stats.count == 0 {
        return 0.0;
    }
    let target = q * stats.count as f64;
    let mut below = 0u64;
    for (i, &n) in stats.buckets.iter().enumerate() {
        if n > 0 && (below + n) as f64 >= target {
            let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            let hi = ((1u64 << (i + 1)) as f64).min(stats.max_ns as f64 + 1.0);
            let frac = (target - below as f64) / n as f64;
            return (lo + frac * (hi - lo)).clamp(stats.min_ns as f64, stats.max_ns as f64);
        }
        below += n;
    }
    stats.max_ns as f64
}

/// A `/proc/self/status` field in MiB (`VmHWM` = peak RSS, `VmRSS` =
/// current RSS); 0 where the field is unavailable.
pub fn status_mib(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(median(&v), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn histogram_quantile_stays_inside_the_observed_range() {
        let mut s = PhaseStats::default();
        for ns in [1000, 1100, 1200, 5000] {
            s.record(ns);
        }
        let p50 = phase_quantile_ns(&s, 0.5);
        assert!((1000.0..2048.0).contains(&p50), "{p50}");
        assert_eq!(phase_quantile_ns(&PhaseStats::default(), 0.5), 0.0);
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(status_mib("VmHWM") > 0.0);
    }
}
