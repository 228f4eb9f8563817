//! Trace analysis: every quantity the paper's evaluation plots.
//!
//! Run summaries come from one implementation, the single-pass
//! [`streaming`] observer: [`summarize`] replays a stored trace through
//! it, and streaming sweeps feed it a run's trace before dropping the run.
//! The per-metric modules hold post-hoc analyzers over a whole trace (loop
//! forensics, path histories, the fig5/fig7 time series, ...) for callers
//! that want more than a scalar per run; the test suite composes them into
//! the reference oracle the observer is checked against.

use std::fmt;

use netsim::ident::NodeId;

pub mod convergence;
pub mod drops;
pub mod loops;
pub mod series;
pub mod streaming;
pub mod stretch;
pub mod summary;
pub mod switchover;

pub use convergence::{
    path_history, routing_convergence_time, FibReplay, PathHistory, PathOutcome,
};
pub use drops::{count_delivered, count_drops, DropCounts};
pub use loops::{analyze_loops, LoopEncounter, LoopFate, LoopReport};
pub use series::{delay_series, mean_delay_series, mean_u64_series, throughput_series};
pub use streaming::{summarize_streaming, SummaryObserver};
pub use stretch::{flow_stretch, mean_stretch, PacketStretch};
pub use summary::{summarize, RunSummary};
pub use switchover::{stats_for_dest, switch_overs, SwitchOver, SwitchOverStats};

/// Why a metric could not be computed from a run's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsError {
    /// The flow's receiver was unreachable even before the failure, so no
    /// shortest-path baseline (and hence no stretch) exists. Runs produced
    /// by [`run`](crate::runner::run) never hit this — the warm-up check
    /// rejects disconnected flows — but hand-built traces can.
    UnreachableDestination {
        /// The flow's sender.
        src: NodeId,
        /// The unreachable receiver.
        dst: NodeId,
    },
    /// An aggregation was asked to fold zero run summaries.
    EmptySweep,
}

impl fmt::Display for MetricsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricsError::UnreachableDestination { src, dst } => {
                write!(
                    f,
                    "receiver {dst} unreachable from {src} before the failure"
                )
            }
            MetricsError::EmptySweep => write!(f, "cannot aggregate zero run summaries"),
        }
    }
}

impl std::error::Error for MetricsError {}
