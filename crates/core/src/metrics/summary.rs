//! One-line-per-run scalar summaries.

use serde::{Deserialize, Serialize};

use crate::metrics::drops::DropCounts;
use crate::metrics::MetricsError;
use crate::runner::RunResult;

/// Every scalar metric the paper reports, for one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Packets the sources injected.
    pub injected: u64,
    /// Packets delivered to their receivers.
    pub delivered: u64,
    /// Drops by cause.
    pub drops: DropCounts,
    /// Fig. 6b: network routing convergence time (s, from detection).
    pub routing_convergence_s: f64,
    /// Fig. 6a: forwarding-path convergence delay (s, from detection) for
    /// the first flow.
    pub forwarding_convergence_s: f64,
    /// Distinct transient forwarding paths for the first flow.
    pub transient_paths: usize,
    /// Packets that entered a forwarding loop.
    pub looped_packets: u64,
    /// Looping packets that still got delivered.
    pub loop_escapes: u64,
    /// Mean end-to-end delay over all delivered packets (s).
    pub mean_delay_s: Option<f64>,
    /// §4.1 path switch-over: longest no-route window for the flow's
    /// destination at any router (s).
    pub max_switchover_s: f64,
    /// Mean multiplicative path stretch of the flow's delivered packets
    /// (1.0 = every packet took a shortest path).
    pub mean_stretch: f64,
    /// Routing-protocol messages offered to links.
    pub control_messages: u64,
    /// Routing-protocol bytes offered to links.
    pub control_bytes: u64,
}

impl RunSummary {
    /// Fraction of injected packets that arrived.
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        if self.injected == 0 {
            return 1.0;
        }
        self.delivered as f64 / self.injected as f64
    }
}

/// The full summary of a finished run. The run folded it while it ran
/// ([`RunResult::summary`]), so this is a copy of that.
///
/// # Errors
///
/// None today: a run whose first flow's receiver was unreachable before
/// the failure fails in [`run`](crate::runner::run) itself, with
/// [`RunError::Metrics`](crate::runner::RunError::Metrics). The `Result`
/// keeps the shape sweep extractors take.
///
/// # Examples
///
/// ```
/// use convergence::experiment::ExperimentConfig;
/// use convergence::metrics::summary::summarize;
/// use convergence::protocols::ProtocolKind;
/// use convergence::runner::run;
/// use topology::mesh::MeshDegree;
///
/// let result = run(&ExperimentConfig::paper(ProtocolKind::Spf, MeshDegree::D6, 2))?;
/// let summary = summarize(&result)?;
/// assert!(summary.delivery_ratio() > 0.9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn summarize(result: &RunResult) -> Result<RunSummary, MetricsError> {
    Ok(result.summary.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_ratio_handles_zero_injection() {
        let summary = RunSummary {
            injected: 0,
            delivered: 0,
            drops: DropCounts::default(),
            routing_convergence_s: 0.0,
            forwarding_convergence_s: 0.0,
            transient_paths: 0,
            looped_packets: 0,
            loop_escapes: 0,
            mean_delay_s: None,
            max_switchover_s: 0.0,
            mean_stretch: 1.0,
            control_messages: 0,
            control_bytes: 0,
        };
        assert_eq!(summary.delivery_ratio(), 1.0);
    }
}
