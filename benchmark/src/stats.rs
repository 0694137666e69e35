//! Order statistics over a run's repetitions.

/// Sort a sample ascending. Every value is a measured duration, rate or
/// count, so none is NaN.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are not NaN"));
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of a sample.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// Distance between the first and third quartile as a share of the
/// median: the spread the benchmark contract bounds. Zero for fewer than
/// two values or a zero median.
pub fn iqr_frac(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let s = sorted(values);
    let med = quantile_sorted(&s, 0.5);
    if med == 0.0 {
        return 0.0;
    }
    (quantile_sorted(&s, 0.75) - quantile_sorted(&s, 0.25)) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantiles_interpolate_between_neighbours() {
        let s = [0.0, 10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile_sorted(&s, 0.0), 0.0);
        assert_eq!(quantile_sorted(&s, 0.25), 10.0);
        assert_eq!(quantile_sorted(&s, 0.9), 36.0);
        assert_eq!(quantile_sorted(&s, 1.0), 40.0);
    }

    #[test]
    fn iqr_is_a_share_of_the_median() {
        // Quartiles 10 and 30 around a median of 20.
        assert_eq!(iqr_frac(&[0.0, 10.0, 20.0, 30.0, 40.0]), 1.0);
        assert_eq!(iqr_frac(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(iqr_frac(&[5.0]), 0.0);
        assert_eq!(iqr_frac(&[-1.0, 0.0, 1.0]), 0.0);
    }
}
