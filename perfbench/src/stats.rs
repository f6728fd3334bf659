//! Order statistics over latency samples.
//!
//! Percentile levels are written in per-mille (`900` = p90) so that the
//! nearest-rank arithmetic is exact integer arithmetic.

/// Tail levels considered for a workload's tail metric, highest first.
pub const TAIL_LEVELS_PM: [u32; 3] = [999, 990, 900];

/// Minimum number of samples that must lie beyond a reported tail
/// percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `level_pm` per-mille quantile among `n`
/// samples: `ceil(n · level / 1000)`, at least 1.
pub fn rank(n: usize, level_pm: u32) -> usize {
    (n * level_pm as usize).div_ceil(1000).max(1)
}

/// Number of samples strictly beyond the nearest-rank quantile.
pub fn beyond(n: usize, level_pm: u32) -> usize {
    n - rank(n, level_pm).min(n)
}

/// The highest of [`TAIL_LEVELS_PM`] that has at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even p90 has fewer.
pub fn tail_level(n: usize) -> Option<u32> {
    TAIL_LEVELS_PM
        .into_iter()
        .find(|&pm| beyond(n, pm) >= MIN_BEYOND)
}

/// Fewest samples for which `level_pm` has [`MIN_BEYOND`] samples
/// beyond it.
pub fn min_samples(level_pm: u32) -> usize {
    (1..)
        .find(|&n| beyond(n, level_pm) >= MIN_BEYOND)
        .expect("unbounded search")
}

/// Nearest-rank quantile of already sorted samples.
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], level_pm: u32) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), level_pm).min(sorted.len()) - 1]
}

/// Median (nearest rank, lower middle for even counts) of `v`.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    quantile_sorted(&s, 500)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact() {
        assert_eq!(rank(100, 900), 90);
        assert_eq!(rank(101, 900), 91);
        assert_eq!(rank(1000, 990), 990);
        assert_eq!(rank(1, 500), 1);
        assert_eq!(rank(10, 500), 5);
    }

    #[test]
    fn tail_level_needs_ten_samples_beyond() {
        assert_eq!(tail_level(99), None);
        assert_eq!(tail_level(100), Some(900));
        assert_eq!(tail_level(999), Some(900));
        assert_eq!(tail_level(1000), Some(990));
        assert_eq!(tail_level(9_999), Some(990));
        assert_eq!(tail_level(10_000), Some(999));
        for n in [100, 257, 1000, 4321, 10_000, 123_456] {
            let pm = tail_level(n).unwrap();
            assert!(beyond(n, pm) >= MIN_BEYOND, "n={n} pm={pm}");
        }
        assert_eq!(min_samples(900), 100);
        assert_eq!(min_samples(990), 1000);
    }

    #[test]
    fn quantiles_pick_the_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 500), 50.0);
        assert_eq!(quantile_sorted(&v, 900), 90.0);
        assert_eq!(quantile_sorted(&v, 990), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
