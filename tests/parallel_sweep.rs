//! End-to-end tests of the sweep driver, `run_sweep`: bit-identical
//! results for every worker count and panic isolation inside a
//! multi-threaded sweep.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use convergence::experiment::ProtocolFactory;
use convergence::prelude::*;
use spf::Spf;
use topology::mesh::MeshDegree;

fn options(jobs: usize) -> SweepOptions {
    SweepOptions {
        jobs,
        retry: RetryPolicy::default(),
    }
}

#[test]
fn run_many_is_bit_identical_for_every_job_count() {
    let cfg = ExperimentConfig::paper(ProtocolKind::Dbf, MeshDegree::D4, 0);
    let extract = |r: &RunResult| Ok((summarize(r)?, r.trace.clone(), r.stats.events_processed));
    let sequential = run_sweep(&cfg, 4, 901, options(1), extract, |_| {});
    let parallel = run_sweep(&cfg, 4, 901, options(4), extract, |_| {});
    assert!(sequential.failed.is_empty());
    assert_eq!(sequential.completed.len(), 4);
    assert_eq!(sequential.completed, parallel.completed);
}

#[test]
fn hardened_sweep_is_bit_identical_for_every_job_count() {
    let cfg = ExperimentConfig::paper(ProtocolKind::Rip, MeshDegree::D4, 0);
    let sequential = run_sweep(&cfg, 4, 300, options(1), summarize, |_| {});
    let parallel = run_sweep(&cfg, 4, 300, options(4), summarize, |_| {});
    assert!(sequential.failed.is_empty());
    assert!(parallel.failed.is_empty());
    assert_eq!(sequential.retries(), parallel.retries());
    assert_eq!(sequential.completed, parallel.completed);
}

#[test]
fn streaming_mode_matches_trace_mode_for_each_paper_protocol() {
    for protocol in [ProtocolKind::Rip, ProtocolKind::Dbf, ProtocolKind::Bgp3] {
        let cfg = ExperimentConfig::paper(protocol, MeshDegree::D4, 0);
        let trace = run_sweep(&cfg, 3, 700, options(2), summarize, |_| {});
        let streaming = run_sweep(&cfg, 3, 700, options(2), summarize, |_| {});
        assert!(trace.failed.is_empty(), "{protocol}: trace sweep failed");
        assert_eq!(trace.completed.len(), 3);
        assert_eq!(
            trace.completed, streaming.completed,
            "{protocol}: streaming fold diverged from the trace analyzers"
        );
    }
}

#[test]
fn sweep_telemetry_is_bit_identical_for_every_job_count() {
    let cfg = ExperimentConfig::paper(ProtocolKind::Dbf, MeshDegree::D4, 0);
    let sequential = run_sweep(&cfg, 3, 512, options(1), summarize, |_| {});
    let parallel = run_sweep(&cfg, 3, 512, options(3), summarize, |_| {});
    assert_eq!(sequential.telemetry, parallel.telemetry);
    assert_eq!(
        render_jsonl(&sequential.telemetry),
        render_jsonl(&parallel.telemetry),
        "telemetry JSONL bytes must not depend on the worker count"
    );
    // One record per slot, in slot order, fully populated.
    assert_eq!(sequential.telemetry.len(), 3);
    for (i, row) in sequential.telemetry.iter().enumerate() {
        assert_eq!(row.slot, i as u64);
        assert_eq!(row.attempts, 1);
        assert!(row.ok);
        assert_eq!(row.protocol, "DBF");
        assert!(row.events_processed > 0);
        assert!(row.queue_high_water > 0);
        assert_eq!(row.packets_injected, 1000);
    }
}

#[test]
fn retry_attempts_are_recorded_in_telemetry() {
    // Exactly one protocol build panics, early enough to land inside
    // slot 0's first attempt (builds 0..=48 install slot 0's 49 nodes).
    // The retry, with a derived seed, completes, and the sweep must
    // report the true attempt count, not just the final attempt's
    // success.
    let builds = Arc::new(AtomicUsize::new(0));
    let factory = {
        let builds = Arc::clone(&builds);
        ProtocolFactory::new(move || {
            assert_ne!(
                builds.fetch_add(1, Ordering::Relaxed),
                5,
                "injected mid-install panic"
            );
            Box::new(Spf::default())
        })
    };
    let mut cfg = ExperimentConfig::paper(ProtocolKind::Spf, MeshDegree::D4, 0);
    cfg.protocol_override = Some(factory);

    let outcome = run_sweep(&cfg, 2, 40, options(1), summarize, |_| {});
    assert!(
        outcome.failed.is_empty(),
        "retry should have salvaged slot 0"
    );
    assert_eq!(outcome.completed.len(), 2);
    assert_eq!(outcome.retries(), 1);
    assert_eq!(outcome.telemetry.len(), 2);
    assert_eq!(outcome.telemetry[0].attempts, 2);
    assert_eq!(outcome.telemetry[1].attempts, 1);
    assert!(outcome.telemetry.iter().all(|t| t.ok));
}

#[test]
fn exhausted_retries_yield_a_failed_telemetry_record() {
    let factory = ProtocolFactory::new(|| panic!("injected unconditional panic"));
    let mut cfg = ExperimentConfig::paper(ProtocolKind::Spf, MeshDegree::D4, 0);
    cfg.protocol_override = Some(factory);

    let outcome = run_sweep(
        &cfg,
        1,
        40,
        SweepOptions {
            jobs: 1,
            retry: RetryPolicy { max_attempts: 2 },
        },
        summarize,
        |_| {},
    );
    assert!(outcome.completed.is_empty());
    assert_eq!(outcome.failed.len(), 1);
    assert_eq!(outcome.failed[0].attempts, 2);
    assert_eq!(outcome.telemetry.len(), 1);
    let row = &outcome.telemetry[0];
    assert!(!row.ok);
    assert_eq!(row.attempts, 2);
    assert!(!row.error.is_empty());
    // The JSONL line survives the panic message's quoting.
    let line = row.to_json_line();
    assert!(line.contains("\"ok\":false"));
    assert!(line.contains("\"attempts\":2"));
}

#[test]
fn a_panicking_run_is_isolated_and_reported() {
    let runs = 4;
    // The factory is called once per node (49 per run); exactly one call
    // — inside exactly one run, whichever worker gets there first —
    // panics. With retries disabled, the other slots must complete
    // untouched while the poisoned one surfaces as a typed failure.
    let builds = Arc::new(AtomicUsize::new(0));
    let trigger = 60; // lands mid-build of some run for every schedule
    let factory = {
        let builds = Arc::clone(&builds);
        ProtocolFactory::new(move || {
            assert_ne!(
                builds.fetch_add(1, Ordering::Relaxed),
                trigger,
                "injected protocol-construction panic"
            );
            Box::new(Spf::default())
        })
    };
    let mut cfg = ExperimentConfig::paper(ProtocolKind::Spf, MeshDegree::D4, 0);
    cfg.protocol_override = Some(factory);

    let outcome = run_sweep(
        &cfg,
        runs,
        40,
        SweepOptions {
            jobs: 2,
            retry: RetryPolicy { max_attempts: 1 },
        },
        summarize,
        |_| {},
    );
    assert_eq!(outcome.completed.len(), runs - 1);
    assert_eq!(outcome.failed.len(), 1);
    assert!(
        matches!(outcome.failed[0].error, RunError::Panicked(_)),
        "expected a Panicked error, got: {}",
        outcome.failed[0].error
    );
}
