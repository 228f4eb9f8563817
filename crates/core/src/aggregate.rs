//! Multi-run aggregation: the paper averages every number over 100
//! randomized runs per (protocol, degree) point.
//!
//! [`run_sweep`] is the one sweep driver: every figure, ablation and
//! extension runs its slots through it. Each slot is a pure function of
//! its seed, so slots are distributed over a scoped worker pool and
//! reassembled in slot order; for every `jobs` value the outcome is
//! **bit-identical** to the sequential execution: same seeds, same
//! values, same CSV and telemetry bytes downstream. The caller's
//! extractor reduces each run to what the sweep keeps, so a streaming
//! sweep (`summarize_streaming`) holds one summary per run, never a full
//! event trace.

use std::panic::{catch_unwind, AssertUnwindSafe};

use netsim::simulator::SimStats;
use obs::telemetry::RunTelemetry;
use serde::{Deserialize, Serialize};

use crate::experiment::ExperimentConfig;
use crate::metrics::summary::RunSummary;
use crate::metrics::MetricsError;
use crate::parallel::par_map_indexed;
use crate::runner::{run, RunError, RunResult};

/// Mean / standard deviation / extremes of one metric across runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aggregate {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Number of observations.
    pub n: usize,
}

impl Aggregate {
    /// Aggregates a sample in a single pass (Welford's online algorithm
    /// for the variance, so huge samples neither need a second scan nor
    /// lose precision to the naive sum-of-squares formula).
    ///
    /// Returns `None` on an empty sample.
    #[must_use]
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut mean = 0.0f64;
        let mut m2 = 0.0f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for (i, &v) in values.iter().enumerate() {
            let delta = v - mean;
            mean += delta / (i + 1) as f64;
            m2 += delta * (v - mean);
            min = min.min(v);
            max = max.max(v);
        }
        let n = values.len();
        Some(Aggregate {
            mean,
            std_dev: (m2 / n as f64).sqrt(),
            min,
            max,
            n,
        })
    }
}

/// Retry behaviour of [`run_sweep`] when a run's random draw produces an
/// unusable scenario ([`RunError::is_retryable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts per run slot, the first included. `1` disables
    /// retries.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3 }
    }
}

impl RetryPolicy {
    /// The reseed used for attempt `attempt` (0-based) of the slot whose
    /// first attempt used `seed`.
    ///
    /// Deterministic, collision-averse (golden-ratio stride in the upper
    /// bits, far from the dense `base_seed..base_seed+runs` band), and
    /// attempt 0 is the unmodified seed, so a slot that succeeds first try
    /// is exactly [`run`] on seed `base_seed + slot`.
    #[must_use]
    pub fn derive_seed(seed: u64, attempt: u32) -> u64 {
        seed.wrapping_add(u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

/// Execution options of [`run_sweep`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SweepOptions {
    /// Worker threads (`0` = all available cores, `1` = sequential).
    pub jobs: usize,
    /// Retry behaviour for retryable scenario errors.
    pub retry: RetryPolicy,
}

/// One run slot that produced no usable result even after retries.
#[derive(Debug)]
pub struct FailedRun {
    /// The slot's base seed (before reseeding).
    pub seed: u64,
    /// Attempts consumed (== the policy's `max_attempts` unless the
    /// error was not retryable).
    pub attempts: u32,
    /// The last error.
    pub error: RunError,
}

/// Everything a sweep produced.
#[derive(Debug)]
pub struct SweepOutcome<T> {
    /// The extracted value of every successful slot, in slot order.
    pub completed: Vec<T>,
    /// Slots that failed all attempts, in slot order.
    pub failed: Vec<FailedRun>,
    /// One record per slot, completed *and* failed, in slot order.
    pub telemetry: Vec<RunTelemetry>,
}

impl<T> SweepOutcome<T> {
    /// Retry attempts consumed across the sweep (0 when every slot
    /// settled on its first attempt).
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.telemetry
            .iter()
            .map(|t| u64::from(t.attempts.saturating_sub(1)))
            .sum()
    }
}

/// Executes `runs` seeded repetitions of `config` (seeds
/// `base_seed..base_seed+runs`) and reduces each run with `extract`.
///
/// This is the one sweep driver, hardened for adversarial
/// configurations:
/// - every attempt, `extract` included, is isolated with [`catch_unwind`]:
///   a panic becomes a [`RunError::Panicked`] instead of tearing down the
///   sweep;
/// - retryable errors (no path, unsatisfiable failure selection, caught
///   panics) are retried with [`RetryPolicy::derive_seed`] reseeds up to
///   `options.retry.max_attempts` total attempts; an `extract` error is a
///   property of the scenario, not the draw, and is reported at once;
/// - every slot, completed or failed, yields one [`RunTelemetry`] record
///   stamped with `config.protocol`'s label and the slot's true attempt
///   count;
/// - `on_done(slot)` fires on the worker thread as each slot settles, in
///   completion order (progress meters); it cannot affect the outcome.
///
/// The sweep itself never fails: unsalvageable slots are reported in
/// [`SweepOutcome::failed`] with their typed error. Slots run on up to
/// `options.jobs` workers and are reassembled in slot order, so the
/// outcome is identical for every `jobs` value.
pub fn run_sweep<T, E, D>(
    config: &ExperimentConfig,
    runs: usize,
    base_seed: u64,
    options: SweepOptions,
    extract: E,
    on_done: D,
) -> SweepOutcome<T>
where
    T: Send,
    E: Fn(&RunResult) -> Result<T, MetricsError> + Sync,
    D: Fn(usize) + Sync,
{
    let max_attempts = options.retry.max_attempts.max(1);
    let protocol = config.protocol.label();
    let slots = par_map_indexed(
        runs,
        options.jobs,
        |i| {
            let seed = base_seed + i as u64;
            let mut attempts = 1;
            loop {
                let mut cfg = config.clone();
                cfg.seed = RetryPolicy::derive_seed(seed, attempts - 1);
                let attempt = catch_unwind(AssertUnwindSafe(|| {
                    let result = run(&cfg)?;
                    Ok((result.stats, extract(&result)))
                }))
                .unwrap_or_else(|payload| Err(RunError::Panicked(panic_message(&payload))));
                let error = match attempt {
                    Ok((stats, Ok(value))) => {
                        let row = slot_telemetry(i, seed, attempts, protocol, Ok(&stats));
                        break (Ok(value), row);
                    }
                    Ok((_, Err(e))) => RunError::from(e),
                    Err(e) if e.is_retryable() && attempts < max_attempts => {
                        attempts += 1;
                        continue;
                    }
                    Err(e) => e,
                };
                let row = slot_telemetry(i, seed, attempts, protocol, Err(&error));
                break (
                    Err(FailedRun {
                        seed,
                        attempts,
                        error,
                    }),
                    row,
                );
            }
        },
        on_done,
    );
    let mut outcome = SweepOutcome {
        completed: Vec::with_capacity(runs),
        failed: Vec::new(),
        telemetry: Vec::with_capacity(runs),
    };
    for (slot, row) in slots {
        match slot {
            Ok(value) => outcome.completed.push(value),
            Err(failed) => outcome.failed.push(failed),
        }
        outcome.telemetry.push(row);
    }
    outcome
}

/// The telemetry record of one settled slot: the engine counters of its
/// successful run, or its error.
fn slot_telemetry(
    slot: usize,
    seed: u64,
    attempts: u32,
    protocol: &str,
    outcome: Result<&SimStats, &RunError>,
) -> RunTelemetry {
    let row = RunTelemetry {
        slot: slot as u64,
        seed,
        attempts,
        protocol: protocol.to_string(),
        ..RunTelemetry::default()
    };
    match outcome {
        Ok(s) => RunTelemetry {
            ok: true,
            events_processed: s.events_processed,
            queue_high_water: s.queue_high_water,
            control_messages: s.control_messages_sent,
            control_bytes: s.control_bytes_sent,
            control_retransmits: s.control_retransmits,
            packets_injected: s.packets_injected,
            packets_delivered: s.packets_delivered,
            packets_dropped: s.packets_dropped,
            ..row
        },
        Err(error) => {
            let (watchdog_trips, events_processed) = match error {
                RunError::Watchdog { events, .. } => (1, *events),
                _ => (0, 0),
            };
            RunTelemetry {
                events_processed,
                watchdog_trips,
                error: error.to_string(),
                ..row
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The aggregated scalars for one sweep point, in the units the paper
/// plots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointSummary {
    /// Mean drops with no route (Fig. 3 y-axis).
    pub drops_no_route: Aggregate,
    /// Mean TTL expirations (Fig. 4 y-axis).
    pub ttl_expirations: Aggregate,
    /// Mean drops on the undetected failed link.
    pub drops_link_down: Aggregate,
    /// Mean total drops.
    pub drops_total: Aggregate,
    /// Mean delivery ratio.
    pub delivery_ratio: Aggregate,
    /// Mean forwarding-path convergence delay (Fig. 6a y-axis).
    pub forwarding_convergence_s: Aggregate,
    /// Mean network routing convergence time (Fig. 6b y-axis).
    pub routing_convergence_s: Aggregate,
    /// Mean count of looping packets.
    pub looped_packets: Aggregate,
    /// Mean count of distinct transient paths.
    pub transient_paths: Aggregate,
    /// Mean control messages per run.
    pub control_messages: Aggregate,
    /// Mean of the per-run maximum switch-over window (Fig. 4.1 factor).
    pub max_switchover_s: Aggregate,
    /// Mean path stretch of delivered flow packets.
    pub mean_stretch: Aggregate,
}

/// Folds per-run summaries into a [`PointSummary`].
///
/// # Errors
///
/// [`MetricsError::EmptySweep`] if `summaries` is empty.
pub fn aggregate_point(summaries: &[RunSummary]) -> Result<PointSummary, MetricsError> {
    let f = |extract: fn(&RunSummary) -> f64| {
        Aggregate::of(&summaries.iter().map(extract).collect::<Vec<f64>>())
            .ok_or(MetricsError::EmptySweep)
    };
    Ok(PointSummary {
        drops_no_route: f(|s| s.drops.no_route as f64)?,
        ttl_expirations: f(|s| s.drops.ttl_expired as f64)?,
        drops_link_down: f(|s| s.drops.link_down as f64)?,
        drops_total: f(|s| s.drops.total() as f64)?,
        delivery_ratio: f(RunSummary::delivery_ratio)?,
        forwarding_convergence_s: f(|s| s.forwarding_convergence_s)?,
        routing_convergence_s: f(|s| s.routing_convergence_s)?,
        looped_packets: f(|s| s.looped_packets as f64)?,
        transient_paths: f(|s| s.transient_paths as f64)?,
        control_messages: f(|s| s.control_messages as f64)?,
        max_switchover_s: f(|s| s.max_switchover_s)?,
        mean_stretch: f(|s| s.mean_stretch)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_of_constant_sample() {
        let a = Aggregate::of(&[3.0, 3.0, 3.0]).unwrap();
        assert_eq!(a.mean, 3.0);
        assert_eq!(a.std_dev, 0.0);
        assert_eq!(a.min, 3.0);
        assert_eq!(a.max, 3.0);
        assert_eq!(a.n, 3);
    }

    #[test]
    fn aggregate_statistics() {
        let a = Aggregate::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((a.mean - 2.5).abs() < 1e-12);
        assert!((a.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 4.0);
    }

    #[test]
    fn empty_sample_is_none() {
        assert_eq!(Aggregate::of(&[]), None);
    }

    #[test]
    fn welford_matches_two_pass_on_a_shifted_sample() {
        // A mean far from zero is where the naive sum-of-squares loses
        // precision; Welford must agree with the two-pass reference.
        let values: Vec<f64> = (0..1000).map(|i| 1.0e9 + f64::from(i) * 0.25).collect();
        let a = Aggregate::of(&values).unwrap();
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
        assert!((a.mean - mean).abs() < 1e-3);
        assert!((a.std_dev - var.sqrt()).abs() < 1e-6);
    }
}
