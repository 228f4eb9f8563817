//! Time-bucketed series: instantaneous throughput (Figure 5) and
//! instantaneous packet delay (Figure 7).
//!
//! Buckets are one second wide and indexed relative to the failure instant
//! (bucket `k` covers `[t_fail + k, t_fail + k + 1)` seconds), matching the
//! paper's normalized time axis.

use netsim::time::SimTime;
use netsim::trace::Trace;

/// Computes the bucket index of `time` relative to `t_fail`, if it falls
/// inside `[from_s, to_s)`.
fn bucket_of(time: SimTime, t_fail: SimTime, from_s: i64, to_s: i64) -> Option<i64> {
    let rel_nanos = time.as_nanos() as i64 - t_fail.as_nanos() as i64;
    let bucket = rel_nanos.div_euclid(1_000_000_000);
    (from_s..to_s).contains(&bucket).then_some(bucket)
}

/// Delivered packets per second, relative to the failure.
///
/// Returns one `(second, packets)` entry per bucket in `[from_s, to_s)`.
///
/// # Examples
///
/// ```
/// use convergence::metrics::series::throughput_series;
/// use netsim::trace::Trace;
/// use netsim::time::SimTime;
///
/// let series = throughput_series(&Trace::new(), SimTime::from_secs(50), -10, 40);
/// assert_eq!(series.len(), 50);
/// assert!(series.iter().all(|&(_, count)| count == 0));
/// ```
#[must_use]
pub fn throughput_series(
    trace: &Trace,
    t_fail: SimTime,
    from_s: i64,
    to_s: i64,
) -> Vec<(i64, u64)> {
    assert!(from_s < to_s, "empty bucket range");
    let mut counts = vec![0u64; (to_s - from_s) as usize];
    for (time, _) in trace.deliveries() {
        if let Some(bucket) = bucket_of(time, t_fail, from_s, to_s) {
            counts[(bucket - from_s) as usize] += 1;
        }
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(i, c)| (from_s + i as i64, c))
        .collect()
}

/// Mean end-to-end delay (seconds) of packets *delivered* in each bucket;
/// `None` for buckets with no deliveries.
#[must_use]
pub fn delay_series(
    trace: &Trace,
    t_fail: SimTime,
    from_s: i64,
    to_s: i64,
) -> Vec<(i64, Option<f64>)> {
    assert!(from_s < to_s, "empty bucket range");
    let buckets = (to_s - from_s) as usize;
    let mut sum = vec![0.0f64; buckets];
    let mut count = vec![0u64; buckets];
    for (time, sent_at) in trace.deliveries() {
        if let Some(bucket) = bucket_of(time, t_fail, from_s, to_s) {
            let ix = (bucket - from_s) as usize;
            sum[ix] += time.saturating_since(sent_at).as_secs_f64();
            count[ix] += 1;
        }
    }
    (0..buckets)
        .map(|i| {
            let mean = (count[i] > 0).then(|| sum[i] / count[i] as f64);
            (from_s + i as i64, mean)
        })
        .collect()
}

/// Averages several runs' series bucket-by-bucket.
///
/// # Panics
///
/// Panics if the runs have differently shaped series.
#[must_use]
pub fn mean_u64_series(series: &[Vec<(i64, u64)>]) -> Vec<(i64, f64)> {
    assert!(!series.is_empty(), "no series to average");
    let len = series[0].len();
    assert!(
        series.iter().all(|s| s.len() == len),
        "series length mismatch"
    );
    (0..len)
        .map(|i| {
            let second = series[0][i].0;
            let total: u64 = series
                .iter()
                .map(|s| {
                    assert_eq!(s[i].0, second, "bucket misalignment");
                    s[i].1
                })
                .sum();
            (second, total as f64 / series.len() as f64)
        })
        .collect()
}

/// Averages delay series bucket-by-bucket, ignoring empty buckets.
#[must_use]
pub fn mean_delay_series(series: &[Vec<(i64, Option<f64>)>]) -> Vec<(i64, Option<f64>)> {
    assert!(!series.is_empty(), "no series to average");
    let len = series[0].len();
    (0..len)
        .map(|i| {
            let second = series[0][i].0;
            let values: Vec<f64> = series.iter().filter_map(|s| s[i].1).collect();
            let mean =
                (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64);
            (second, mean)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::ident::{NodeId, PacketId};
    use netsim::trace::TraceEvent;

    fn delivered(at_ms: u64, sent_ms: u64, id: u64) -> TraceEvent {
        TraceEvent::PacketDelivered {
            time: SimTime::from_millis(at_ms),
            id: PacketId::new(id),
            node: NodeId::new(1),
            hops: 3,
            sent_at: SimTime::from_millis(sent_ms),
        }
    }

    #[test]
    fn throughput_buckets_relative_to_failure() {
        let t_fail = SimTime::from_secs(10);
        let trace = Trace::from_events(vec![
            delivered(8_500, 8_400, 1),  // bucket -2
            delivered(9_999, 9_900, 2),  // bucket -1
            delivered(10_000, 9_950, 3), // bucket 0 (inclusive start)
            delivered(10_999, 10_900, 4),
            delivered(12_000, 11_900, 5), // bucket 2
        ]);
        let series = throughput_series(&trace, t_fail, -2, 3);
        assert_eq!(series, vec![(-2, 1), (-1, 1), (0, 2), (1, 0), (2, 1)]);
    }

    #[test]
    fn out_of_window_deliveries_are_ignored() {
        let t_fail = SimTime::from_secs(10);
        let trace = Trace::from_events(vec![delivered(100_000, 99_000, 1)]);
        let series = throughput_series(&trace, t_fail, -10, 40);
        assert!(series.iter().all(|&(_, c)| c == 0));
    }

    #[test]
    fn delay_series_averages_within_buckets() {
        let t_fail = SimTime::from_secs(1);
        let trace = Trace::from_events(vec![
            delivered(1_100, 1_000, 1), // 0.1 s delay, bucket 0
            delivered(1_900, 1_600, 2), // 0.3 s delay, bucket 0
            delivered(2_500, 2_450, 3), // 0.05 s delay, bucket 1
        ]);
        let series = delay_series(&trace, t_fail, 0, 3);
        assert!((series[0].1.unwrap() - 0.2).abs() < 1e-9);
        assert!((series[1].1.unwrap() - 0.05).abs() < 1e-9);
        assert_eq!(series[2].1, None);
    }

    #[test]
    fn series_averaging() {
        let a = vec![(0i64, 2u64), (1, 4)];
        let b = vec![(0i64, 4u64), (1, 0)];
        assert_eq!(mean_u64_series(&[a, b]), vec![(0, 3.0), (1, 2.0)]);

        let d1 = vec![(0i64, Some(0.2)), (1, None)];
        let d2 = vec![(0i64, Some(0.4)), (1, None)];
        let merged = mean_delay_series(&[d1, d2]);
        assert!((merged[0].1.unwrap() - 0.3).abs() < 1e-9);
        assert_eq!(merged[1].1, None);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_series_panic() {
        let _ = mean_u64_series(&[vec![(0, 1)], vec![(0, 1), (1, 2)]]);
    }
}
