//! The benchmark's own statistics and metric-name grammar.
//!
//! Host time on a shared box is the true cost of the code plus a
//! non-negative penalty from other tenants, so for deterministic code
//! the fastest attempt is the robust estimate (Chen & Revels, "Robust
//! benchmarking in noisy environments", arXiv:1608.04295). Every
//! host-time number the benchmark reports is therefore a **floor sum**:
//! the fastest attempt of each unit, summed over the units.

/// Sum over units of each unit's fastest attempt. `attempts[u]` holds
/// every timing of unit `u`; a unit without attempts makes the sum
/// undefined.
pub fn floor_sum(attempts: &[Vec<f64>]) -> Option<f64> {
    attempts.iter().map(|a| floor(a)).sum()
}

/// The fastest attempt, or `None` for no attempts.
pub fn floor(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().reduce(f64::min)
}

/// The median (mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The percentiles [`tail_percentile`] considers, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// ten samples beyond it, with its value (nearest rank). `None` when
/// fewer than twenty samples leave ten beyond even the median.
pub fn tail_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(samples);
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&p| {
        // Nearest rank: the smallest value with at least p% of the
        // samples at or below it.
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let beyond = n.checked_sub(rank)?;
        (rank >= 1 && beyond >= 10).then(|| (p, sorted[rank - 1]))
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Whether `name` is a valid metric name: it starts with a letter or a
/// digit and holds at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_sum_takes_each_units_fastest_attempt() {
        let attempts = vec![vec![3.0, 1.0, 2.0], vec![5.0], vec![0.5, 0.25]];
        assert_eq!(floor_sum(&attempts), Some(6.25));
        assert_eq!(floor_sum(&[]), Some(0.0), "no units cost nothing");
        assert_eq!(floor_sum(&[vec![1.0], vec![]]), None, "unmeasured unit");
    }

    #[test]
    fn floor_ignores_slow_outliers() {
        assert_eq!(floor(&[1.9, 1.0, 1.5, 1.05]), Some(1.0));
        assert_eq!(floor(&[]), None);
    }

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // Fewer than 20 samples: not even the median has ten beyond it.
        assert_eq!(tail_percentile(&ramp(19)), None);
        // 20 samples: the median (rank 10) leaves exactly ten beyond.
        assert_eq!(tail_percentile(&ramp(20)), Some((50.0, 10.0)));
        // 100 samples: p90 (rank 90) leaves ten; p95 would leave five.
        assert_eq!(tail_percentile(&ramp(100)), Some((90.0, 90.0)));
        // 200 samples: p95 (rank 190) leaves ten.
        assert_eq!(tail_percentile(&ramp(200)), Some((95.0, 190.0)));
        // 1000 samples: p99 (rank 990) leaves ten.
        assert_eq!(tail_percentile(&ramp(1000)), Some((99.0, 990.0)));
        // Order does not matter.
        let mut shuffled = ramp(100);
        shuffled.reverse();
        assert_eq!(tail_percentile(&shuffled), Some((90.0, 90.0)));
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "wall_s",
            "des.ns_per_event",
            "campaign.unexplained_frac",
            "judge_online.us_per_scenario",
            "9lives",
            "a-b.c_d",
            &"x".repeat(64),
        ] {
            assert!(valid_metric_name(ok), "{ok:?} should be valid");
        }
        for bad in [
            "",
            "_leading",
            ".leading",
            "-leading",
            "has space",
            "slash/ed",
            "ünïcode",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?} should be invalid");
        }
    }
}
