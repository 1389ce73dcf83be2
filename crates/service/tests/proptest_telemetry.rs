//! Property tests for the telemetry histograms: merging is associative
//! and commutative, conserves the exact observation count, and quantile
//! readouts depend only on the merged bucket counts — never on the
//! order the parts arrived in. These are the algebraic facts the fleet
//! stats aggregation and the `Stats` wire message lean on — plus the
//! counter delta/merge algebra the stats sidecar's cross-process sync
//! relies on.

use iolb_service::{HistogramSnapshot, LatencyHistogram, MetricsSnapshot, NUM_BUCKETS};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Builds a histogram from drawn bucket counts (padded/truncated to the
/// fixed arity). Bounded counts keep saturating adds exact, so the
/// conservation properties hold with `==`, not `<=`.
fn histogram_from(draws: &[u64]) -> LatencyHistogram {
    let mut buckets = vec![0u64; NUM_BUCKETS];
    for (slot, &d) in buckets.iter_mut().zip(draws.iter()) {
        *slot = d;
    }
    let sum = buckets.iter().sum::<u64>().saturating_mul(3);
    LatencyHistogram::from_parts(sum, &buckets).expect("fixed arity")
}

/// A counters-only snapshot from name -> value pairs, names sorted as a
/// registry snapshot yields them.
fn counters(values: &BTreeMap<String, u64>) -> MetricsSnapshot {
    MetricsSnapshot {
        counters: values.iter().map(|(n, v)| (n.clone(), *v)).collect(),
        ..MetricsSnapshot::default()
    }
}

fn merged(a: &LatencyHistogram, b: &LatencyHistogram) -> LatencyHistogram {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)`: fleet merges may tree up in any
    /// shape.
    #[test]
    fn histogram_merge_is_associative(
        a in prop::collection::vec(0u64..1_000_000, NUM_BUCKETS),
        b in prop::collection::vec(0u64..1_000_000, NUM_BUCKETS),
        c in prop::collection::vec(0u64..1_000_000, NUM_BUCKETS),
    ) {
        let (a, b, c) = (histogram_from(&a), histogram_from(&b), histogram_from(&c));
        let left = merged(&merged(&a, &b), &c);
        let right = merged(&a, &merged(&b, &c));
        prop_assert_eq!(left, right);
    }

    /// `a ⊕ b == b ⊕ a`: peer order never changes the readout.
    #[test]
    fn histogram_merge_is_commutative(
        a in prop::collection::vec(0u64..1_000_000, NUM_BUCKETS),
        b in prop::collection::vec(0u64..1_000_000, NUM_BUCKETS),
    ) {
        let (a, b) = (histogram_from(&a), histogram_from(&b));
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    /// Merging conserves the exact observation count and value sum
    /// (bounded draws — no saturation), and the merged quantile readout
    /// equals the readout over the bucket-wise sums by construction.
    #[test]
    fn histogram_merge_conserves_counts(
        a in prop::collection::vec(0u64..1_000_000, NUM_BUCKETS),
        b in prop::collection::vec(0u64..1_000_000, NUM_BUCKETS),
    ) {
        let (ha, hb) = (histogram_from(&a), histogram_from(&b));
        let m = merged(&ha, &hb);
        prop_assert_eq!(m.count(), ha.count() + hb.count());
        prop_assert_eq!(m.sum(), ha.sum() + hb.sum());
        for (i, got) in m.buckets().iter().enumerate() {
            prop_assert_eq!(*got, a[i] + b[i]);
        }
    }

    /// Recorded observations land in exactly one bucket each: after any
    /// sequence of `record` calls, `count()` equals the number of calls
    /// and `sum()` the sum of values.
    #[test]
    fn recording_conserves_count_and_sum(
        values in prop::collection::vec(0u64..=1_000_000_000, 0..64),
    ) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum(), values.iter().sum::<u64>());
        // The quantile readout is a bucket upper bound that at least
        // one observation maps into (or 0 when empty). Observations
        // past the last finite bound land in the overflow bucket, which
        // reads as `2^(NUM_BUCKETS - 1)`.
        let p99 = h.quantile(0.99);
        let last_finite = iolb_service::telemetry::bucket_bound(NUM_BUCKETS - 2);
        if values.is_empty() {
            prop_assert_eq!(p99, 0);
        } else if p99 == 1u64 << (NUM_BUCKETS - 1) {
            prop_assert!(values.iter().any(|&v| v > last_finite));
        } else {
            prop_assert!(values.iter().any(|&v| v <= p99));
        }
    }

    /// `MetricsSnapshot::merge` is commutative over whole registries:
    /// counters and gauges add by name, histograms merge by name, and
    /// missing names on either side are treated as zero.
    #[test]
    fn snapshot_merge_is_commutative(
        xa in 0u64..1_000_000, xb in 0u64..1_000_000,
        ya in 0u64..1_000_000,
        ha in prop::collection::vec(0u64..1_000_000, NUM_BUCKETS),
        hb in prop::collection::vec(0u64..1_000_000, NUM_BUCKETS),
    ) {
        let a = MetricsSnapshot {
            counters: vec![("alpha".into(), xa), ("both".into(), ya)],
            gauges: vec![("g".into(), xa)],
            histograms: vec![HistogramSnapshot { name: "h".into(), histogram: histogram_from(&ha) }],
        };
        let b = MetricsSnapshot {
            counters: vec![("beta".into(), xb), ("both".into(), xb)],
            gauges: vec![("g".into(), xb)],
            histograms: vec![HistogramSnapshot { name: "h".into(), histogram: histogram_from(&hb) }],
        };
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.counter("both"), Some(ya + xb));
        prop_assert_eq!(ab.counter("alpha"), Some(xa));
        prop_assert_eq!(ab.counter("beta"), Some(xb));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For counter snapshots with `base <= cur` pointwise (a registry's
    /// counters only ever grow, and every name starts at >= 1),
    /// `merge(base, delta(cur, base)) == cur`: a sync that folds the
    /// delta into the copy it was taken against reproduces the live
    /// counters exactly.
    #[test]
    fn delta_then_merge_restores_the_current_counters(
        draws in prop::collection::vec(
            (0u32..26, 1u64..1_000_000_000, 0u64..=100, any::<bool>()),
            0..12,
        ),
    ) {
        let mut cur = BTreeMap::new();
        let mut base = BTreeMap::new();
        for &(n, value, percent, in_base) in &draws {
            let name = format!("iolb_counter_{n:02}");
            if cur.contains_key(&name) {
                continue;
            }
            cur.insert(name.clone(), value);
            if in_base {
                base.insert(name, value / 100 * percent);
            }
        }
        let (cur, base) = (counters(&cur), counters(&base));
        let delta = cur.delta(&base);
        prop_assert!(delta.gauges.is_empty() && delta.histograms.is_empty());
        let mut restored = base.clone();
        restored.merge(&delta);
        prop_assert_eq!(restored, cur);
    }

    /// `delta(x, x)` is empty, so merging it leaves any snapshot as it
    /// was: an idle re-sync adds nothing.
    #[test]
    fn delta_of_a_snapshot_with_itself_adds_nothing(
        x in prop::collection::vec((0u32..26, 1u64..1_000_000_000), 0..10),
        y in prop::collection::vec((0u32..26, 0u64..1_000_000_000), 0..10),
        gauge in 0u64..1_000,
        h in prop::collection::vec(0u64..1_000_000, NUM_BUCKETS),
    ) {
        let named = |draws: &[(u32, u64)]| -> BTreeMap<String, u64> {
            draws.iter().map(|&(n, v)| (format!("iolb_counter_{n:02}"), v)).collect()
        };
        let mut x = counters(&named(&x));
        x.gauges.push(("iolb_queue_len".into(), gauge));
        x.histograms.push(HistogramSnapshot { name: "h".into(), histogram: histogram_from(&h) });
        let delta = x.delta(&x);
        prop_assert_eq!(&delta, &MetricsSnapshot::default());
        let y = counters(&named(&y));
        let mut merged = y.clone();
        merged.merge(&delta);
        prop_assert_eq!(merged, y);
    }
}

/// Wrong-arity bucket lists are rejected, not silently reinterpreted.
#[test]
fn from_parts_rejects_foreign_arity() {
    assert!(LatencyHistogram::from_parts(0, &[0u64; NUM_BUCKETS - 1]).is_err());
    assert!(LatencyHistogram::from_parts(0, &[0u64; NUM_BUCKETS + 1]).is_err());
    assert!(LatencyHistogram::from_parts(0, &[]).is_err());
    assert!(LatencyHistogram::from_parts(0, &[0u64; NUM_BUCKETS]).is_ok());
}
