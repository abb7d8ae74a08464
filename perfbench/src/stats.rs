//! Small statistics helpers over wall-clock samples.

/// Sort in place and return the `q`-quantile (nearest rank, 0..=1).
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    let idx = ((samples.len() - 1) as f64 * q).round() as usize;
    samples[idx]
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Median latency of the last tenth of a run divided by that of the
/// first tenth: above 1 when per-operation cost grows with history.
pub fn drift(in_order: &[f64]) -> f64 {
    let tenth = (in_order.len() / 10).max(1);
    let mut first = in_order[..tenth].to_vec();
    let mut last = in_order[in_order.len() - tenth..].to_vec();
    median(&mut last) / median(&mut first)
}

/// Ratio that reads 0 rather than NaN when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 5.0);
    }

    #[test]
    fn drift_compares_last_tenth_to_first() {
        let v: Vec<f64> = (0..100).map(|i| if i < 50 { 1.0 } else { 3.0 }).collect();
        assert_eq!(drift(&v), 3.0);
    }
}
