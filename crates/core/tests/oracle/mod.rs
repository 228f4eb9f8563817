//! The reference oracle for run summaries: the seven-pass composition of
//! the post-hoc trace analyzers (drops, loops, path history, switch-overs,
//! stretch, routing convergence and mean delay). Each analyzer scans the
//! whole trace on its own, so this is slow but independent of the
//! single-pass observer behind `summarize`, which must match it bit for
//! bit.

use convergence::metrics::convergence::{path_history, routing_convergence_time};
use convergence::metrics::drops::{count_delivered, count_drops};
use convergence::metrics::loops::analyze_loops;
use convergence::metrics::series::mean_delay;
use convergence::metrics::stretch::{flow_stretch, mean_stretch};
use convergence::metrics::switchover::{stats_for_dest, switch_overs};
use convergence::metrics::MetricsError;
use convergence::prelude::*;

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
        .events()
        .last()
        .map_or(result.t_fail, netsim::trace::TraceEvent::time);
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
