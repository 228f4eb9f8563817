//! The reference oracle for what a run folds while it runs, computed
//! after the fact from the run's kept trace (`run_traced`):
//! - the run summary, as the seven-pass composition of the post-hoc trace
//!   analyzers (drops, loops, path history, switch-overs, stretch,
//!   routing convergence and mean delay). Each analyzer scans the whole
//!   trace on its own, so this is slow but independent of the
//!   single-pass observer behind `summarize`, which must match it bit for
//!   bit;
//! - the fig5/fig7 series, bucketed from the decoded delivery records;
//! - the per-kind record counts, from the decoded records.

#![allow(dead_code, reason = "each test binary uses part of the oracle")]

use convergence::metrics::convergence::{path_history, routing_convergence_time};
use convergence::metrics::drops::{count_delivered, count_drops};
use convergence::metrics::loops::analyze_loops;
use convergence::metrics::stretch::{flow_stretch, mean_stretch};
use convergence::metrics::switchover::{stats_for_dest, switch_overs};
use convergence::metrics::MetricsError;
use convergence::prelude::*;
use netsim::time::SimTime;
use netsim::trace::{Trace, TraceCensus, TraceEvent, TraceSink};

/// Computes a run's summary with one independent pass over its kept
/// `trace` per metric.
pub fn summarize_by_passes(result: &RunResult, trace: &Trace) -> Result<RunSummary, MetricsError> {
    let drops = count_drops(trace);
    let loops = analyze_loops(trace);
    let flow = result.flows[0];
    let history = path_history(
        trace,
        result.graph.num_nodes(),
        flow.sender,
        flow.receiver,
        result.t_fail,
    );
    let windows = switch_overs(trace, result.t_fail);
    let run_end = trace.iter().last().map_or(result.t_fail, |e| e.time());
    let switchover = stats_for_dest(&windows, flow.receiver, run_end);
    let stretch = flow_stretch(
        trace,
        &result.graph,
        &result.failure.edges,
        flow.sender,
        flow.receiver,
        result.t_fail,
    )?;
    Ok(RunSummary {
        injected: result.stats.packets_injected,
        delivered: count_delivered(trace),
        drops,
        routing_convergence_s: routing_convergence_time(trace, result.t_fail, result.detection),
        forwarding_convergence_s: history.convergence_delay(result.t_fail, result.detection),
        transient_paths: history.transient_path_count(),
        looped_packets: loops.looped_packets() as u64,
        loop_escapes: loops.escaped() as u64,
        mean_delay_s: mean_delay(trace),
        max_switchover_s: switchover.max_s,
        mean_stretch: mean_stretch(&stretch),
        control_messages: result.stats.control_messages_sent,
        control_bytes: result.stats.control_bytes_sent,
    })
}

/// Overall mean delay across all delivered packets, or `None` if nothing
/// was delivered.
pub fn mean_delay(trace: &Trace) -> Option<f64> {
    let mut sum = 0.0;
    let mut count = 0u64;
    for (time, sent_at) in deliveries(trace) {
        sum += time.saturating_since(sent_at).as_secs_f64();
        count += 1;
    }
    (count > 0).then(|| sum / count as f64)
}

/// The `(time, sent_at)` of every decoded delivery record.
fn deliveries(trace: &Trace) -> impl Iterator<Item = (SimTime, SimTime)> + '_ {
    trace.iter().filter_map(|event| match event {
        TraceEvent::PacketDelivered { time, sent_at, .. } => Some((time, sent_at)),
        _ => None,
    })
}

/// The one-second bucket `time` falls in relative to `t_fail`, if it is
/// in `[from_s, to_s)`, as an index from `from_s`.
fn bucket(time: SimTime, t_fail: SimTime, from_s: i64, to_s: i64) -> Option<usize> {
    let rel = time.as_nanos() as i128 - t_fail.as_nanos() as i128;
    let second = rel.div_euclid(1_000_000_000) as i64;
    (from_s..to_s)
        .contains(&second)
        .then(|| (second - from_s) as usize)
}

/// Deliveries per second relative to the failure (Fig. 5), from the
/// kept trace.
pub fn throughput_series(
    trace: &Trace,
    t_fail: SimTime,
    from_s: i64,
    to_s: i64,
) -> Vec<(i64, u64)> {
    let mut counts = vec![0u64; (to_s - from_s) as usize];
    for (time, _) in deliveries(trace) {
        if let Some(ix) = bucket(time, t_fail, from_s, to_s) {
            counts[ix] += 1;
        }
    }
    (from_s..to_s).zip(counts).collect()
}

/// Mean delay of the packets delivered in each second relative to the
/// failure (Fig. 7), from the kept trace.
pub fn delay_series(
    trace: &Trace,
    t_fail: SimTime,
    from_s: i64,
    to_s: i64,
) -> Vec<(i64, Option<f64>)> {
    let buckets = (to_s - from_s) as usize;
    let (mut sum, mut count) = (vec![0.0f64; buckets], vec![0u64; buckets]);
    for (time, sent_at) in deliveries(trace) {
        if let Some(ix) = bucket(time, t_fail, from_s, to_s) {
            sum[ix] += time.saturating_since(sent_at).as_secs_f64();
            count[ix] += 1;
        }
    }
    (from_s..to_s)
        .zip(sum.iter().zip(&count))
        .map(|(second, (&s, &n))| (second, (n > 0).then(|| s / n as f64)))
        .collect()
}

/// Record counts by kind, from the decoded records.
pub fn census(trace: &Trace) -> TraceCensus {
    let mut census = TraceCensus::default();
    for event in trace {
        census.record(&event);
    }
    census
}

#[test]
fn mean_delay_covers_whole_trace() {
    use netsim::ident::{NodeId, PacketId};
    let delivered = |at_ms, sent_ms, id| TraceEvent::PacketDelivered {
        time: SimTime::from_millis(at_ms),
        id: PacketId::new(id),
        node: NodeId::new(1),
        hops: 3,
        sent_at: SimTime::from_millis(sent_ms),
    };
    let trace = Trace::from_events(vec![delivered(1_100, 1_000, 1), delivered(2_300, 2_000, 2)]);
    assert!((mean_delay(&trace).unwrap() - 0.2).abs() < 1e-9);
    assert_eq!(mean_delay(&Trace::new()), None);
    assert_eq!(
        throughput_series(&trace, SimTime::from_secs(2), -2, 1),
        vec![(-2, 0), (-1, 1), (0, 1)]
    );
    let delays = delay_series(&trace, SimTime::from_secs(2), -1, 1);
    assert!((delays[0].1.unwrap() - 0.1).abs() < 1e-9);
    assert!((delays[1].1.unwrap() - 0.3).abs() < 1e-9);
}
