//! Summary statistics over experiment replications.

use manet_sim::Histogram;

/// Pools per-replication histograms into one distribution (sample
/// concatenation: counts add, quantiles come from the pooled buckets).
#[must_use]
pub fn merge_histograms<I>(hists: I) -> Histogram
where
    I: IntoIterator<Item = Histogram>,
{
    let mut out = Histogram::default();
    for h in hists {
        out.merge(&h);
    }
    out
}

/// `[mean, p50, p95, p99]` figure columns for a pooled latency
/// distribution (all 0 when no samples were recorded).
#[must_use]
pub fn latency_columns(h: &Histogram) -> [f64; 4] {
    [
        h.mean().unwrap_or(0.0),
        h.p50().map_or(0.0, |v| v as f64),
        h.p95().map_or(0.0, |v| v as f64),
        h.p99().map_or(0.0, |v| v as f64),
    ]
}

/// Mean of a sample (0 for empty samples).
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}
