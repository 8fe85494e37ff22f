//! Order statistics for the ledger: medians, quartiles the way the
//! builder's driver takes them, and the tail-percentile support rule.

/// Median of `values` (mean of the two middle samples for an even
/// count). Panics on an empty slice: every caller has at least one
/// sample by construction.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them — the estimator the driver uses for run-to-run spread.
/// Needs at least two samples.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [1usize, 2, 3].map(|i| {
        // j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - j*4.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Interquartile distance as a share of the median: the spread the
/// driver holds against each end-to-end metric's bound.
#[must_use]
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The `p`-th percentile (nearest rank), but only when at least
/// `min_beyond` samples lie strictly beyond that rank — a tail read off
/// fewer samples is noise, so the caller reports it as unsupported.
#[must_use]
pub fn percentile_if_supported(values: &[f64], p: f64, min_beyond: usize) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    let beyond = v.len().saturating_sub(rank);
    (beyond >= min_beyond).then(|| v[rank - 1])
}

/// `a / b`, or 0 when `b` is 0: a layer that did no work has no rate.
#[must_use]
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median over `batches` of the mean per-call time of `f` in
/// nanoseconds, each batch running `iters` calls back to back.
pub fn time_ns<R>(batches: usize, iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..batches.max(1))
        .map(|_| {
            let start = std::time::Instant::now();
            for _ in 0..iters.max(1) {
                std::hint::black_box(f());
            }
            start.elapsed().as_nanos() as f64 / iters.max(1) as f64
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    /// Reference values from CPython:
    /// `statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)` is
    /// `[2.75, 5.5, 8.25]`; `quantiles([10, 20, 15], n=4)` is
    /// `[10.0, 15.0, 20.0]`; `quantiles([1, 2], n=4)` is
    /// `[0.75, 1.5, 2.25]`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[10.0, 20.0, 15.0]), [10.0, 15.0, 20.0]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200 samples is rank 190: exactly ten lie beyond it.
        assert_eq!(percentile_if_supported(&v, 95.0, 10), Some(190.0));
        // One sample fewer and the tail is unsupported.
        assert_eq!(percentile_if_supported(&v[..199], 95.0, 10), None);
        // p50 is supported from 20 samples on.
        assert_eq!(percentile_if_supported(&v[..20], 50.0, 10), Some(10.0));
        assert_eq!(percentile_if_supported(&[], 50.0, 0), None);
    }

    #[test]
    fn time_ns_grows_with_work() {
        let spin = |n: u64| (0..n).fold(0u64, |a, i| a.wrapping_mul(31).wrapping_add(i));
        let small = time_ns(3, 50, || spin(std::hint::black_box(1_000)));
        let large = time_ns(3, 50, || spin(std::hint::black_box(100_000)));
        assert!(large > small * 5.0, "{small} vs {large}");
    }
}
