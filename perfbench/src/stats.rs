//! The one percentile rule every figure of the benchmark uses.
//!
//! Quantiles are R type 7 (linear interpolation between closest ranks,
//! `h = (n - 1) q`), computed by `rexec_bench::stats`, the rule of the
//! in-process bench and of Python's
//! `statistics.quantiles(..., method="inclusive")`. The generator, the
//! window summaries and the run-level medians all go through this
//! module, so no two outputs disagree on what "p99" means. Empty samples
//! give `None` here instead of a panic.

use rexec_bench::stats;

/// R type 7 quantile of unsorted samples; `None` when empty.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    quantile_sorted(&stats::sorted(xs.to_vec()), q)
}

/// R type 7 quantile of already sorted samples; `None` when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| stats::quantile_sorted(sorted, q))
}

/// Median (R type 7 at q = 0.5).
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// `(q1, median, q3)` under R type 7.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    (!xs.is_empty()).then(|| stats::quartiles_sorted(&stats::sorted(xs.to_vec())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type7_matches_reference_values() {
        // R: quantile(1:10, c(.25, .5, .75, .99), type = 7)
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.25), Some(3.25));
        assert_eq!(quantile(&xs, 0.5), Some(5.5));
        assert_eq!(quantile(&xs, 0.75), Some(7.75));
        assert!((quantile(&xs, 0.99).unwrap() - 9.91).abs() < 1e-12);
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), Some(3.0));
        assert_eq!(quartiles(&xs), Some((2.0, 3.0, 4.0)));
    }

    #[test]
    fn edge_cases() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.0), Some(1.0));
        assert_eq!(quantile(&[1.0, 2.0], 1.0), Some(2.0));
    }
}
