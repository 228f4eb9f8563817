//! # obs — deterministic observability for the simulation workspace
//!
//! A zero-dependency layer of spans, counters and run telemetry threaded
//! through the simulator, the experiment harness and the bench binaries.
//! Everything it records is a pure function of the instrumented program's
//! behaviour plus an injected time source, so observability output is as
//! reproducible as the simulation itself:
//!
//! - [`span::Recorder`] measures hierarchical spans with exclusive-time
//!   attribution against an injected [`clock::TimeSource`] — simulated
//!   time by default (deterministic), or an external wall clock injected
//!   by benchmarking code (this crate never reads the system clock
//!   itself, keeping the determinism lint clean).
//! - [`metrics::Registry`] holds named counters and histograms in
//!   deterministic (lexicographic) order with a stable text rendering.
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
pub mod metrics;
pub mod span;
pub mod telemetry;

/// Measures `$body` as a span named `$name` on `$recorder`
/// (`&mut` [`span::Recorder`]), yielding the body's value.
///
/// With the `record` feature disabled (`--no-default-features`) the macro
/// expands to the body alone — the instrumented hot path costs zero
/// instructions.
///
/// # Examples
///
/// ```
/// let mut rec = obs::span::Recorder::manual();
/// rec.set_time(0);
/// let out = obs::span!(&mut rec, "protocol_step", { 2 + 2 });
/// assert_eq!(out, 4);
/// assert_eq!(rec.calls("protocol_step"), 1);
/// ```
/// `$recorder` is evaluated twice (once for enter, once for exit), so it
/// should be a place expression like `&mut rec` — which also leaves the
/// recorder free for use inside the body.
#[cfg(feature = "record")]
#[macro_export]
macro_rules! span {
    ($recorder:expr, $name:expr, $body:expr) => {{
        $crate::span::Recorder::enter($recorder, $name);
        let __obs_out = $body;
        $crate::span::Recorder::exit($recorder);
        __obs_out
    }};
}

/// Measures `$body` as a span named `$name` (disabled build: expands to
/// the body alone).
#[cfg(not(feature = "record"))]
#[macro_export]
macro_rules! span {
    ($recorder:expr, $name:expr, $body:expr) => {{
        $body
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn span_macro_yields_the_body_value() {
        let mut rec = crate::span::Recorder::manual();
        rec.set_time(10);
        let v = crate::span!(&mut rec, "outer", {
            rec.set_time(25);
            7u32
        });
        assert_eq!(v, 7);
        #[cfg(feature = "record")]
        assert_eq!(rec.exclusive_ns("outer"), 15);
    }
}
