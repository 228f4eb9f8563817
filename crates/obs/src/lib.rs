//! # obs — deterministic observability for the simulation workspace
//!
//! A zero-dependency layer of spans and run telemetry threaded through
//! the simulator, the experiment harness and the `sweeps` binary.
//! Everything it records is a pure function of the instrumented program's
//! behaviour plus an injected time source, so observability output is as
//! reproducible as the simulation itself:
//!
//! - [`span::Recorder`] measures hierarchical spans with exclusive-time
//!   attribution against an injected [`clock::TimeSource`] — simulated
//!   time by default (deterministic), or an external wall clock injected
//!   by benchmarking code (this crate never reads the system clock
//!   itself, keeping the determinism lint clean). It keeps the call
//!   count and exclusive nanoseconds of each span name.
//! - [`telemetry::RunTelemetry`] is the per-run record sweeps emit into
//!   `results/telemetry.jsonl`: integer-only fields and a fixed JSON key
//!   order make the rendering byte-deterministic for a fixed seed,
//!   regardless of worker-thread count.
//!
//! The crate deliberately depends on nothing — not even the workspace's
//! vendored stubs — so every layer (netsim upward) can use it without
//! dependency cycles.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod clock;
pub mod span;
pub mod telemetry;
