//! Order statistics over host-clock samples.

/// Nearest-rank quantile of `samples` (`q` in `[0, 1]`): the smallest
/// sample with at least `q·n` samples at or below it. Exact, so two runs
/// over the same values agree bit for bit. `NaN` on an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Run `f` `reps` times and return the median host time of one call in
/// seconds, together with the last result.
pub fn median_time<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = std::time::Instant::now();
        last = Some(std::hint::black_box(f()));
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one repetition"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(quantile(&[], 0.5).is_nan());
    }
}
