//! # convergence — the study's experiment harness
//!
//! This crate is the paper's primary contribution, reimplemented as a
//! library: configure a topology, a protocol and a failure; run the
//! deterministic simulation (warm-up → steady-state verification → CBR
//! traffic → failure injection → drain); then compute every metric the
//! evaluation section plots — drop counts by cause, TTL expirations,
//! instantaneous throughput and delay, forwarding-path and routing
//! convergence times, and per-packet loop forensics.
//!
//! ```no_run
//! use convergence::prelude::*;
//! use topology::mesh::MeshDegree;
//!
//! let cfg = ExperimentConfig::paper(ProtocolKind::Dbf, MeshDegree::D5, 42);
//! let result = run(&cfg)?;
//! let summary = summarize(&result)?;
//! println!("delivered {}/{} packets", summary.delivered, summary.injected);
//! # Ok::<(), convergence::runner::RunError>(())
//! ```
//!
//! Multi-run sweeps go through one driver, [`aggregate::run_sweep`]: it
//! seeds slot `i` with `base_seed + i`, runs the slots on a worker pool,
//! isolates panics, retries unusable random draws and reduces each run
//! with an extractor such as `summarize_streaming`.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod experiment;
pub mod failure;
pub mod metrics;
pub mod parallel;
pub mod protocols;
pub mod report;
pub mod runner;
pub mod transport;

/// The most commonly used items in one import.
pub mod prelude {
    pub use crate::aggregate::{
        aggregate_point, run_sweep, Aggregate, FailedRun, PointSummary, RetryPolicy, SweepOptions,
        SweepOutcome,
    };
    pub use crate::experiment::{
        ExperimentConfig, TopologySpec, TrafficConfig, TrafficMode, WarmupPolicy, WatchdogPolicy,
    };
    pub use crate::failure::{
        FailurePlan, FailureSelection, ImpairmentAction, RestartAction, SelectionError,
    };
    pub use crate::metrics::streaming::{summarize_streaming, SummaryObserver};
    pub use crate::metrics::summary::{summarize, RunSummary};
    pub use crate::metrics::MetricsError;
    pub use crate::protocols::ProtocolKind;
    pub use crate::report::Table;
    pub use crate::runner::{run, run_observed, Flow, RunError, RunResult};
    pub use crate::transport::{GoBackNConfig, WindowFlowReport};
    pub use netsim::impairment::Impairment;
    pub use obs::telemetry::{render_jsonl, RunTelemetry};
}
