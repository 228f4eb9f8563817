//! The reference oracle for run summaries: the seven-pass composition of
//! the post-hoc trace analyzers (drops, loops, path history, switch-overs,
//! stretch, routing convergence and mean delay). Each analyzer scans the
//! whole trace on its own, so this is slow but independent of the
//! single-pass observer behind `summarize`, which must match it bit for
//! bit.

use convergence::metrics::convergence::{path_history, routing_convergence_time};
use convergence::metrics::drops::{count_delivered, count_drops};
use convergence::metrics::loops::analyze_loops;
use convergence::metrics::stretch::{flow_stretch, mean_stretch};
use convergence::metrics::switchover::{stats_for_dest, switch_overs};
use convergence::metrics::MetricsError;
use convergence::prelude::*;
use netsim::trace::{Trace, TraceEvent};

/// Computes a run's summary with one independent trace pass per metric.
pub fn summarize_by_passes(result: &RunResult) -> Result<RunSummary, MetricsError> {
    let drops = count_drops(&result.trace);
    let loops = analyze_loops(&result.trace);
    let flow = result.flows[0];
    let history = path_history(
        &result.trace,
        result.graph.num_nodes(),
        flow.sender,
        flow.receiver,
        result.t_fail,
    );
    let windows = switch_overs(&result.trace, result.t_fail);
    let run_end = result
        .trace
        .iter()
        .last()
        .map_or(result.t_fail, |e| e.time());
    let switchover = stats_for_dest(&windows, flow.receiver, run_end);
    let stretch = flow_stretch(
        &result.trace,
        &result.graph,
        &result.failure.edges,
        flow.sender,
        flow.receiver,
        result.t_fail,
    )?;
    Ok(RunSummary {
        injected: result.stats.packets_injected,
        delivered: count_delivered(&result.trace),
        drops,
        routing_convergence_s: routing_convergence_time(
            &result.trace,
            result.t_fail,
            result.detection,
        ),
        forwarding_convergence_s: history.convergence_delay(result.t_fail, result.detection),
        transient_paths: history.transient_path_count(),
        looped_packets: loops.looped_packets() as u64,
        loop_escapes: loops.escaped() as u64,
        mean_delay_s: mean_delay(&result.trace),
        max_switchover_s: switchover.max_s,
        mean_stretch: mean_stretch(&stretch),
        control_messages: result.stats.control_messages_sent,
        control_bytes: result.stats.control_bytes_sent,
    })
}

/// Overall mean delay across all delivered packets, or `None` if nothing
/// was delivered. Decodes every record, so it also checks the
/// delivery-only reader behind the fig5/fig7 series.
pub fn mean_delay(trace: &Trace) -> Option<f64> {
    let mut sum = 0.0;
    let mut count = 0u64;
    for event in trace {
        if let TraceEvent::PacketDelivered { time, sent_at, .. } = event {
            sum += time.saturating_since(sent_at).as_secs_f64();
            count += 1;
        }
    }
    (count > 0).then(|| sum / count as f64)
}

#[test]
fn mean_delay_covers_whole_trace() {
    use netsim::ident::{NodeId, PacketId};
    use netsim::time::SimTime;
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
}
