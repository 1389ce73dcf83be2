//! Percentiles from raw sample vectors.
//!
//! Every timing the benchmark reports comes from its own samples, never
//! from the service's log-bucketed histograms (whose quantiles are
//! bucket edges, up to 2x off).

/// Linear-interpolated quantile (`q` in `0..=1`) of unsorted samples;
/// `0.0` for an empty vector.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest of p99.9, p99, p95, p90, p75 and p50 that has at least
/// ten samples beyond it, as `(q, label)`; `None` below 20 samples.
pub fn resolvable_tail(n: usize) -> Option<(f64, &'static str)> {
    [(0.999, "p99.9"), (0.99, "p99"), (0.95, "p95"), (0.9, "p90"), (0.75, "p75"), (0.5, "p50")]
        .into_iter()
        .find(|&(q, _)| (n as f64) * (1.0 - q) >= 10.0 - 1e-9)
}

/// A latency sample in ms as the summary prints it: the median, the
/// reported `q` tail, the highest percentile with ten samples beyond
/// it, and the sample count.
pub fn describe(samples: &[f64], q: f64) -> String {
    let n = samples.len();
    let resolvable = match resolvable_tail(n) {
        Some((at, label)) => {
            format!("highest resolvable {label} = {:.4} ms", quantile(samples, at))
        }
        None => "no percentile has 10 samples beyond it".to_string(),
    };
    let unresolved = match resolvable_tail(n) {
        Some((at, _)) if at + 1e-9 >= q => "",
        _ => " (fewer than 10 samples beyond it)",
    };
    format!(
        "p50 = {:.4} ms, p{} = {:.4} ms{unresolved}; {resolvable}; n = {n}",
        median(samples),
        q * 100.0,
        quantile(samples, q)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(resolvable_tail(19), None);
        assert_eq!(resolvable_tail(20).map(|t| t.1), Some("p50"));
        assert_eq!(resolvable_tail(100).map(|t| t.1), Some("p90"));
        assert_eq!(resolvable_tail(1000).map(|t| t.1), Some("p99"));
    }
}
