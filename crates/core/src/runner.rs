//! The single-run engine: warm up, verify steady state, start traffic,
//! break something, record everything.

use std::error::Error;
use std::fmt;

use netsim::error::{BuildError, EventBudgetExceeded};
use netsim::ident::NodeId;
use netsim::rng::SimRng;
use netsim::simulator::{CbrSource, SimStats};
use netsim::time::{SimDuration, SimTime};
use netsim::trace::Trace;
use topology::graph::Graph;
use topology::instantiate::to_simulator_builder;

use crate::experiment::{ExperimentConfig, TrafficMode};
use crate::failure::{choose_failure, FailureSelection, SelectionError};
use crate::metrics::MetricsError;
use crate::transport::{GoBackNSink, GoBackNSource, WindowFlowReport};

/// One sender/receiver pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    /// Traffic source router.
    pub sender: NodeId,
    /// Traffic sink router.
    pub receiver: NodeId,
}

/// Everything a finished run produced.
#[derive(Debug)]
pub struct RunResult {
    /// The full event trace.
    pub trace: Trace,
    /// The topology the run used.
    pub graph: Graph,
    /// The traffic flows (one in the paper's setup).
    pub flows: Vec<Flow>,
    /// What failed.
    pub failure: FailureSelection,
    /// When the physical failure was injected.
    pub t_fail: SimTime,
    /// The configured failure-detection latency.
    pub detection: SimDuration,
    /// Traffic active window `[start, end)`.
    pub traffic_window: (SimTime, SimTime),
    /// When warm-up ended (routing quiescent).
    pub warmup_end: SimTime,
    /// Engine counters.
    pub stats: SimStats,
    /// Per-flow transfer reports (go-back-N mode only; empty for CBR).
    pub flow_reports: Vec<WindowFlowReport>,
}

/// Why a run could not be executed.
#[derive(Debug)]
pub enum RunError {
    /// The configuration failed validation.
    Invalid(String),
    /// The network could not be assembled.
    Build(BuildError),
    /// Routing did not become quiescent within the warm-up deadline.
    NotQuiescent {
        /// The deadline that was exceeded.
        deadline: SimTime,
    },
    /// The warmed-up FIBs did not yield a complete sender→receiver path.
    NoPath(Flow),
    /// The failure plan could not be realized on this run's topology and
    /// flow (e.g. more simultaneous link failures than the mesh affords).
    Selection(SelectionError),
    /// The event-budget watchdog aborted a livelocked run.
    Watchdog {
        /// Events processed when the watchdog fired.
        events: u64,
        /// Simulated time at which it fired.
        at: SimTime,
    },
    /// The go-back-N source agent expected on `node` was missing or of
    /// the wrong type when the run tried to collect its report.
    MissingSourceAgent {
        /// The sender node that should host the source.
        node: NodeId,
    },
    /// The run panicked; the payload is the rendered panic message.
    /// Produced only by sweep-level isolation
    /// ([`crate::aggregate::run_sweep`]), never by [`run`] itself.
    Panicked(String),
    /// The run finished but its trace could not be summarized. Produced
    /// by the sweep drivers that fold metrics, never by [`run`] itself.
    Metrics(MetricsError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Invalid(why) => write!(f, "invalid experiment: {why}"),
            RunError::Build(e) => write!(f, "network assembly failed: {e}"),
            RunError::NotQuiescent { deadline } => {
                write!(f, "routing not quiescent by {deadline}")
            }
            RunError::NoPath(flow) => write!(
                f,
                "no complete path from {} to {} after warm-up",
                flow.sender, flow.receiver
            ),
            RunError::Selection(e) => write!(f, "failure selection failed: {e}"),
            RunError::Watchdog { events, at } => {
                write!(f, "watchdog aborted run after {events} events at t={at}")
            }
            RunError::MissingSourceAgent { node } => {
                write!(f, "no go-back-N source agent on {node} after the run")
            }
            RunError::Panicked(msg) => write!(f, "run panicked: {msg}"),
            RunError::Metrics(e) => write!(f, "summarizing the run failed: {e}"),
        }
    }
}

impl Error for RunError {}

impl From<BuildError> for RunError {
    fn from(e: BuildError) -> Self {
        RunError::Build(e)
    }
}

impl From<SelectionError> for RunError {
    fn from(e: SelectionError) -> Self {
        RunError::Selection(e)
    }
}

impl From<MetricsError> for RunError {
    fn from(e: MetricsError) -> Self {
        RunError::Metrics(e)
    }
}

impl From<EventBudgetExceeded> for RunError {
    fn from(e: EventBudgetExceeded) -> Self {
        RunError::Watchdog {
            events: e.events,
            at: e.at,
        }
    }
}

impl RunError {
    /// Whether retrying the same scenario under a different seed could
    /// plausibly succeed. Selection and path problems are properties of
    /// the random flow/failure draw, and a caught panic may be a
    /// draw-dependent corner of an adversarial configuration; validation
    /// and build problems are properties of the configuration.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            RunError::NoPath(_) | RunError::Selection(_) | RunError::Panicked(_)
        )
    }
}

/// Executes one run.
///
/// The run is a pure function of `config` (including its seed): the same
/// configuration always produces the identical trace.
///
/// # Errors
///
/// See [`RunError`].
///
/// # Examples
///
/// ```
/// use convergence::experiment::ExperimentConfig;
/// use convergence::protocols::ProtocolKind;
/// use convergence::runner::run;
/// use topology::mesh::MeshDegree;
///
/// let result = run(&ExperimentConfig::paper(ProtocolKind::Spf, MeshDegree::D6, 1))?;
/// assert_eq!(result.flows.len(), 1);
/// assert_eq!(result.failure.edges.len(), 1);
/// # Ok::<(), convergence::runner::RunError>(())
/// ```
pub fn run(config: &ExperimentConfig) -> Result<RunResult, RunError> {
    run_observed(config, None).map(|(result, _)| result)
}

/// [`run`] with an optional span recorder attached to the engine for the
/// whole run: event dispatch, protocol processing and trace recording are
/// measured as nested spans (see [`netsim::simulator::Simulator::set_recorder`]).
/// The recorder comes back alongside the result so callers can reuse it
/// across runs and aggregate phase profiles. On an error the simulator —
/// and the recorder inside it — is dropped, so partial recordings of
/// failed runs are not reported.
///
/// `run_observed(config, None)` is exactly [`run`]: attaching no recorder
/// leaves the engine's hot path branch-predictable no-ops.
///
/// # Errors
///
/// See [`RunError`].
pub fn run_observed(
    config: &ExperimentConfig,
    recorder: Option<Box<obs::span::Recorder>>,
) -> Result<(RunResult, Option<Box<obs::span::Recorder>>), RunError> {
    config.validate().map_err(RunError::Invalid)?;
    let realized = config.topology.realize();
    let (mut builder, link_map) = to_simulator_builder(&realized.graph, config.link)?;
    builder.seed(config.seed);
    let mut sim = builder.build()?;
    if let Some(rec) = recorder {
        sim.set_recorder(rec);
    }
    for node in realized.graph.nodes() {
        let instance = match &config.protocol_override {
            Some(factory) => factory.build(),
            None => config.protocol.build(),
        };
        sim.install_protocol(node, instance)?;
    }
    sim.start();

    // Experiment-level randomness is independent of the protocol RNG so
    // attachment/failure choices do not perturb protocol timing.
    let mut exp_rng = SimRng::seed_from(config.seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));

    // ---- Warm-up: run until no FIB has changed for `quiet`. -------------
    let quiet = config.warmup.quiet;
    let deadline = SimTime::ZERO + config.warmup.max;
    let mut now = SimTime::ZERO;
    loop {
        now += SimDuration::from_secs(1);
        if now > deadline {
            return Err(RunError::NotQuiescent { deadline });
        }
        sim.run_until_budgeted(now, config.watchdog.max_events)?;
        if now.saturating_since(sim.last_route_change()) >= quiet {
            break;
        }
    }
    let warmup_end = now;

    // ---- Flows and steady-state verification. ---------------------------
    // Closed-loop flows install one agent per endpoint, so their endpoints
    // must be pairwise distinct.
    let distinct_endpoints = matches!(config.traffic.mode, TrafficMode::GoBackN(_));
    let mut flows: Vec<Flow> = Vec::with_capacity(config.traffic.flows);
    for _ in 0..config.traffic.flows {
        let flow = loop {
            let sender = *exp_rng.choose(&realized.sender_candidates);
            let receiver = *exp_rng.choose(&realized.receiver_candidates);
            if sender == receiver {
                continue;
            }
            if distinct_endpoints
                && flows
                    .iter()
                    .any(|f| f.sender == sender || f.receiver == receiver)
            {
                continue;
            }
            break Flow { sender, receiver };
        };
        if !sim
            .forwarding_path(flow.sender, flow.receiver)
            .is_complete()
        {
            return Err(RunError::NoPath(flow));
        }
        flows.push(flow);
    }

    // ---- Failure selection (on the first flow's live path). -------------
    let failure = choose_failure(
        &config.failure,
        &sim,
        &realized.graph,
        flows[0].sender,
        flows[0].receiver,
        &mut exp_rng,
    )?;

    // ---- Traffic. ---------------------------------------------------------
    let t_fail = warmup_end + config.traffic.lead;
    let t_start = warmup_end;
    let t_end = t_fail + config.traffic.tail;
    match config.traffic.mode {
        TrafficMode::Cbr => {
            let gap = SimDuration::from_nanos(1_000_000_000 / config.traffic.rate_pps);
            for flow in &flows {
                sim.schedule_cbr(CbrSource {
                    src: flow.sender,
                    dst: flow.receiver,
                    start: t_start,
                    end: t_end,
                    gap,
                    size_bytes: config.traffic.packet_bytes,
                    ttl: config.traffic.ttl,
                })?;
            }
        }
        TrafficMode::Poisson => {
            // Exponential inter-arrival times with the configured mean
            // rate, drawn from the experiment RNG (not the protocol RNG,
            // so routing timing is unaffected by the workload draw).
            let mean_gap_s = 1.0 / config.traffic.rate_pps as f64;
            for flow in &flows {
                let mut t = t_start;
                loop {
                    let u = exp_rng.gen_unit().max(1e-12);
                    let gap = SimDuration::from_secs_f64(-mean_gap_s * u.ln());
                    t += gap;
                    if t >= t_end {
                        break;
                    }
                    sim.schedule_packet(
                        t,
                        flow.sender,
                        flow.receiver,
                        config.traffic.packet_bytes,
                        config.traffic.ttl,
                    );
                }
            }
        }
        TrafficMode::GoBackN(gbn) => {
            for (i, flow) in flows.iter().enumerate() {
                let id = i as u16;
                sim.install_app(
                    flow.receiver,
                    Box::new(GoBackNSink::new(gbn, flow.sender, id)),
                )?;
                // Installing the source second starts the transfer now
                // (warm-up end), `lead` before the failure.
                sim.install_app(
                    flow.sender,
                    Box::new(GoBackNSource::new(gbn, flow.receiver, id)),
                )?;
            }
        }
    }

    // ---- Failure injection and the main phase. ---------------------------
    for action in &failure.timeline {
        let link = link_map[&action.edge];
        let at = t_fail + action.offset;
        if action.up {
            sim.schedule_link_recovery(at, link)?;
        } else {
            sim.schedule_link_failure(at, link)?;
        }
    }
    for action in &failure.impairments {
        let link = link_map[&action.edge];
        sim.schedule_link_impairment(t_fail + action.offset, link, action.impairment)?;
    }
    if let Some(restart) = failure.restart {
        let fresh = match &config.protocol_override {
            Some(factory) => factory.build(),
            None => config.protocol.build(),
        };
        sim.schedule_node_crash_restart(t_fail, restart.node, restart.down, fresh)?;
    }
    sim.run_until_budgeted(t_end + config.drain, config.watchdog.max_events)?;

    let stats = sim.stats();
    let mut flow_reports = Vec::new();
    if matches!(config.traffic.mode, TrafficMode::GoBackN(_)) {
        for flow in &flows {
            let agent = sim
                .take_app(flow.sender)
                .ok_or(RunError::MissingSourceAgent { node: flow.sender })?;
            let source = agent
                .as_any()
                .downcast_ref::<GoBackNSource>()
                .ok_or(RunError::MissingSourceAgent { node: flow.sender })?;
            flow_reports.push(source.report());
        }
    }
    let recorder = sim.take_recorder();
    Ok((
        RunResult {
            trace: sim.into_trace(),
            graph: realized.graph,
            flows,
            failure,
            t_fail,
            detection: config.link.detection_delay,
            traffic_window: (t_start, t_end),
            warmup_end,
            stats,
            flow_reports,
        },
        recorder,
    ))
}

// Sweep workers move finished results (and slot errors) back to the
// assembling thread.
const _: fn() = || {
    fn sendable<T: Send>() {}
    sendable::<RunResult>();
    sendable::<RunError>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use crate::protocols::ProtocolKind;
    use topology::mesh::MeshDegree;

    #[test]
    fn spf_run_completes_and_conserves_packets() {
        let result = run(&ExperimentConfig::paper(
            ProtocolKind::Spf,
            MeshDegree::D4,
            3,
        ))
        .unwrap();
        let s = result.stats;
        assert_eq!(s.packets_injected, 20 * 50); // 20 pps x 50 s window
        assert_eq!(s.packets_injected, s.packets_delivered + s.packets_dropped);
        assert_eq!(result.failure.edges.len(), 1);
        // The failed edge lies on the pre-failure forwarding path.
        let edge = result.failure.edges[0];
        assert!(result.graph.has_edge(edge.a, edge.b));
    }

    #[test]
    fn runs_are_reproducible() {
        let cfg = ExperimentConfig::paper(ProtocolKind::Dbf, MeshDegree::D5, 9);
        let a = run(&cfg).unwrap();
        let b = run(&cfg).unwrap();
        assert_eq!(a.flows, b.flows);
        assert_eq!(a.failure, b.failure);
        assert_eq!(a.t_fail, b.t_fail);
        assert_eq!(a.trace.len(), b.trace.len());
    }

    #[test]
    fn different_seeds_vary_the_scenario() {
        let a = run(&ExperimentConfig::paper(
            ProtocolKind::Spf,
            MeshDegree::D4,
            1,
        ))
        .unwrap();
        let b = run(&ExperimentConfig::paper(
            ProtocolKind::Spf,
            MeshDegree::D4,
            2,
        ))
        .unwrap();
        assert!(a.flows != b.flows || a.failure != b.failure);
    }

    #[test]
    fn no_failure_plan_drops_nothing() {
        let mut cfg = ExperimentConfig::paper(ProtocolKind::Spf, MeshDegree::D4, 5);
        cfg.failure = crate::failure::FailurePlan::None;
        let result = run(&cfg).unwrap();
        assert_eq!(result.stats.packets_dropped, 0);
        assert!(result.failure.edges.is_empty());
    }
}
