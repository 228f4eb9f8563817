//! # obs — observability for the simulation workspace
//!
//! A zero-dependency layer of spans and run telemetry threaded through
//! the simulator, the experiment harness and the `sweeps` binary. Run
//! telemetry is a pure function of the run; span timings come from a
//! clock the caller injects, and observing a run never changes it:
//!
//! - [`span::Recorder`] measures hierarchical spans with exclusive-time
//!   attribution against a nanosecond clock injected by benchmarking
//!   code (this crate never reads the system clock itself, so the
//!   wall-clock lint stays clean). It keeps the call count and exclusive
//!   nanoseconds of each span name; attaching one never changes a run.
//! - [`telemetry::RunTelemetry`] is the per-run record sweeps emit into
//!   `results/telemetry.jsonl`: integer-only fields and a fixed JSON key
//!   order make the rendering byte-deterministic for a fixed seed,
//!   regardless of worker-thread count.
//!
//! The crate deliberately depends on nothing — not even the workspace's
//! vendored stubs — so every layer (netsim upward) can use it without
//! dependency cycles.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::allow_attributes_without_reason
    )
)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod span;
pub mod telemetry;
