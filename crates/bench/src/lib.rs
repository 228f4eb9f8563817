//! # bench — figure regeneration
//!
//! The `sweeps` binary regenerates the paper's figures, ablations and
//! extensions, one row of its target table each. This library parses its
//! command line and runs every sweep through [`SweepObserver::sweep`], a
//! thin layer over the one sweep driver,
//! `convergence::aggregate::run_sweep`: panics are isolated, unusable
//! random draws are retried with a derived reseed, and a slot that still
//! fails is reported on stderr instead of aborting the binary.
//!
//! The arguments after the target are an optional positional count
//! (randomized runs per sweep point), a `--jobs N` flag (worker threads;
//! `0` = all cores, default 1, `JOBS` env var as fallback), and a
//! `--progress` flag (live per-sweep completion and ETA on stderr).
//! Sweeps are deterministic for every job count: per-run seeds depend
//! only on the slot index, and results are assembled in slot order, so
//! the printed tables and CSVs are byte-identical whether a sweep ran on
//! one thread or sixteen. Results are printed as aligned tables and
//! written as CSV under `results/`, with per-run telemetry under
//! `results/telemetry/`.
//!
//! The engine is measured elsewhere: `perfbench/` times it, and the root
//! package's `tests/work_counts.rs` pins how much work it does.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use convergence::aggregate::{
    aggregate_point, run_sweep, PointSummary, RetryPolicy, SweepOptions, SweepOutcome,
};
use convergence::experiment::ExperimentConfig;
use convergence::metrics::summary::summarize;
use convergence::metrics::MetricsError;
use convergence::protocols::ProtocolKind;
use convergence::runner::RunResult;
use obs::telemetry::{render_jsonl, RunTelemetry};
use progress::Progress;
use topology::mesh::MeshDegree;

mod progress;

/// Base seed for sweeps; per-point seeds derive deterministically.
pub const BASE_SEED: u64 = 20030622;

/// The `sweeps` command-line options after the target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepArgs {
    /// Randomized runs per sweep point; `None` when no count was given.
    pub runs: Option<usize>,
    /// Worker threads per sweep point (`0` = all cores, `1` =
    /// sequential).
    pub jobs: usize,
    /// Report live sweep progress (runs completed / total, per-slot
    /// status, wall-clock ETA) on stderr.
    pub progress: bool,
}

impl Default for SweepArgs {
    fn default() -> Self {
        SweepArgs {
            runs: None,
            jobs: 1,
            progress: false,
        }
    }
}

/// Parses `[runs-per-point] [--jobs N] [--progress]`, with `jobs_env`
/// (the `JOBS` environment variable) as a fallback for the flag.
///
/// # Panics
///
/// Panics with a usage message on malformed arguments.
#[must_use]
pub fn parse_sweep_args<I: Iterator<Item = String>>(
    mut args: I,
    jobs_env: Option<String>,
) -> SweepArgs {
    const USAGE: &str = "usage: <binary> [runs-per-point] [--jobs N] [--progress]";
    let mut parsed = SweepArgs::default();
    if let Some(env) = jobs_env {
        parsed.jobs = env
            .parse()
            .unwrap_or_else(|_| panic!("{USAGE}; JOBS env var not a number: {env:?}"));
    }
    while let Some(arg) = args.next() {
        if arg == "--progress" {
            parsed.progress = true;
        } else if arg == "--jobs" {
            let value = args
                .next()
                .unwrap_or_else(|| panic!("{USAGE}; --jobs needs a value"));
            parsed.jobs = value
                .parse()
                .unwrap_or_else(|_| panic!("{USAGE}; got --jobs {value:?}"));
        } else if let Some(value) = arg.strip_prefix("--jobs=") {
            parsed.jobs = value
                .parse()
                .unwrap_or_else(|_| panic!("{USAGE}; got --jobs={value:?}"));
        } else if parsed.runs.is_none() {
            parsed.runs = Some(
                arg.parse()
                    .unwrap_or_else(|_| panic!("{USAGE}; got {arg:?}")),
            );
        } else {
            panic!("{USAGE}; unexpected argument {arg:?}");
        }
    }
    parsed
}

/// A deterministic seed for a sweep point. Seeds depend on the degree and
/// run index but *not* the protocol, so all protocols face the identical
/// scenario sequence (flows, failed links) at each degree — the paper
/// compares protocols on the same situations.
#[must_use]
pub fn point_seed(degree: MeshDegree, run_index: usize) -> u64 {
    BASE_SEED + u64::from(degree.as_u32()) * 100_000 + run_index as u64
}

/// Runs one sweep target's sweeps and collects their per-run telemetry;
/// when `--progress` was given, reports live completion on stderr.
///
/// One observer lives per target: each sweep appends its rows (stamped
/// with the sweep's label), and [`SweepObserver::finish`] writes
/// everything as `results/telemetry/<target>.jsonl` — the per-target
/// stream `sweeps all` also merges into `results/telemetry.jsonl`. The
/// rows are in sweep-then-slot order and contain no wall-clock values, so
/// the file bytes are deterministic for a fixed seed and any `--jobs`
/// count; the wall clock is used only for the (stderr) ETA display.
#[derive(Debug)]
pub struct SweepObserver {
    target: &'static str,
    args: SweepArgs,
    started: std::time::Instant,
    rows: Vec<RunTelemetry>,
}

impl SweepObserver {
    /// An observer for the target `target` honouring the parsed runs
    /// count, `--jobs` and `--progress`.
    #[must_use]
    pub fn new(target: &'static str, args: SweepArgs) -> Self {
        SweepObserver {
            target,
            args,
            started: std::time::Instant::now(),
            rows: Vec::new(),
        }
    }

    /// The randomized runs per sweep point.
    ///
    /// # Panics
    ///
    /// Panics if the observer was made without a runs count.
    #[must_use]
    pub fn runs(&self) -> usize {
        self.args.runs.expect("a sweeping target has a runs count")
    }

    /// Runs `runs` seeded repetitions of `config` (seeds
    /// `base_seed..base_seed+runs`) through the sweep driver on the
    /// parsed `--jobs` workers, reducing each run with `extract`.
    ///
    /// Appends one telemetry row per slot, stamped with `label`, and
    /// prints every slot that failed all its attempts to stderr. The
    /// returned outcome still holds the values, failures and rows.
    pub fn sweep<T: Send>(
        &mut self,
        label: &str,
        config: &ExperimentConfig,
        runs: usize,
        base_seed: u64,
        extract: impl Fn(&RunResult) -> Result<T, MetricsError> + Sync,
    ) -> SweepOutcome<T> {
        let progress = Progress::new(runs);
        let options = SweepOptions {
            jobs: self.args.jobs,
            retry: RetryPolicy::default(),
        };
        let outcome = run_sweep(config, runs, base_seed, options, extract, |i| {
            progress.mark_done(i);
            if self.args.progress {
                let elapsed = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                eprintln!("{}", progress.render(label, Some(elapsed)));
            }
        });
        for failure in &outcome.failed {
            eprintln!(
                "  {label}: seed {} failed after {} attempts: {}",
                failure.seed, failure.attempts, failure.error
            );
        }
        self.rows
            .extend(outcome.telemetry.iter().map(|row| RunTelemetry {
                label: label.to_string(),
                ..row.clone()
            }));
        outcome
    }

    /// One (protocol, degree) point of the paper experiment at the parsed
    /// runs count, with `customize` applied to the configuration: the
    /// summaries of its completed runs, aggregated.
    ///
    /// # Panics
    ///
    /// Panics if no run of the point completed.
    pub fn point(
        &mut self,
        protocol: ProtocolKind,
        degree: MeshDegree,
        customize: impl FnOnce(&mut ExperimentConfig),
    ) -> PointSummary {
        let mut config = ExperimentConfig::paper(protocol, degree, 0);
        customize(&mut config);
        let label = format!("{protocol}/d{degree}");
        let outcome = self.sweep(
            &label,
            &config,
            self.runs(),
            point_seed(degree, 0),
            summarize,
        );
        aggregate_point(&outcome.completed)
            .unwrap_or_else(|e| panic!("{label}: no run completed: {e}"))
    }

    /// All rows collected so far, in sweep-then-slot order.
    #[must_use]
    pub fn rows(&self) -> &[RunTelemetry] {
        &self.rows
    }

    /// The collected rows rendered as JSONL (deterministic bytes).
    #[must_use]
    pub fn render_jsonl(&self) -> String {
        render_jsonl(&self.rows)
    }

    /// Writes the collected rows to `results/telemetry/<target>.jsonl`,
    /// returning the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn finish(&self) -> std::io::Result<std::path::PathBuf> {
        let dir = results_dir().join("telemetry");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.jsonl", self.target));
        std::fs::write(&path, self.render_jsonl())?;
        Ok(path)
    }
}

/// The directory figure CSVs are written into.
#[must_use]
pub fn results_dir() -> std::path::PathBuf {
    std::path::PathBuf::from("results")
}

/// Renders a compact ASCII sparkline of a numeric series (for terminal
/// previews of the Figure 5/7 curves).
#[must_use]
pub fn sparkline(values: &[f64], max_hint: Option<f64>) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = max_hint
        .unwrap_or_else(|| values.iter().copied().fold(0.0_f64, f64::max))
        .max(1e-12);
    values
        .iter()
        .map(|&v| {
            let ix = ((v / max) * 7.0).round().clamp(0.0, 7.0) as usize;
            GLYPHS[ix]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_seeds_are_unique_per_degree_and_run() {
        let mut seen = std::collections::BTreeSet::new();
        for degree in MeshDegree::ALL {
            for i in 0..100 {
                assert!(seen.insert(point_seed(degree, i)));
            }
        }
    }

    #[test]
    fn sparkline_spans_the_range() {
        let line = sparkline(&[0.0, 0.5, 1.0], Some(1.0));
        assert_eq!(line.chars().count(), 3);
        assert!(line.starts_with('▁'));
        assert!(line.ends_with('█'));
    }

    #[test]
    fn arg_parsing_accepts_runs_jobs_and_env() {
        let parse = |v: &[&str], env: Option<&str>| {
            parse_sweep_args(v.iter().map(|s| (*s).to_string()), env.map(String::from))
        };
        let parsed = |runs: Option<usize>, jobs: usize, progress: bool| SweepArgs {
            runs,
            jobs,
            progress,
        };
        assert_eq!(parse(&[], None), SweepArgs::default());
        assert_eq!(parse(&[], None), parsed(None, 1, false));
        assert_eq!(parse(&["25"], None), parsed(Some(25), 1, false));
        assert_eq!(
            parse(&["25", "--jobs", "4"], None),
            parsed(Some(25), 4, false)
        );
        assert_eq!(parse(&["--jobs=8", "10"], None), parsed(Some(10), 8, false));
        // Env fallback applies, explicit flag wins.
        assert_eq!(parse(&["5"], Some("2")), parsed(Some(5), 2, false));
        assert_eq!(
            parse(&["5", "--jobs", "3"], Some("2")),
            parsed(Some(5), 3, false)
        );
        assert_eq!(
            parse(&["--progress", "5", "--jobs", "2"], None),
            parsed(Some(5), 2, true)
        );
    }

    #[test]
    #[should_panic(expected = "unexpected argument")]
    fn arg_parsing_rejects_extra_positionals() {
        let _ = parse_sweep_args(["1".to_string(), "2".to_string()].into_iter(), None);
    }

    fn observer(runs: usize, jobs: usize) -> SweepObserver {
        SweepObserver::new(
            "bench-lib-test",
            SweepArgs {
                runs: Some(runs),
                jobs,
                progress: false,
            },
        )
    }

    #[test]
    fn tiny_sweep_runs_end_to_end() {
        let point = observer(2, 1).point(ProtocolKind::Spf, MeshDegree::D6, |_| {});
        assert_eq!(point.drops_total.n, 2);
        assert!(point.delivery_ratio.mean > 0.9);
    }

    #[test]
    fn sweep_point_is_identical_for_any_job_count() {
        let sequential = observer(3, 1).point(ProtocolKind::Spf, MeshDegree::D6, |_| {});
        let parallel = observer(3, 3).point(ProtocolKind::Spf, MeshDegree::D6, |_| {});
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn telemetry_bytes_are_identical_for_any_job_count() {
        let swept = |jobs: usize| {
            let mut observer = observer(3, jobs);
            let _ = observer.point(ProtocolKind::Rip, MeshDegree::D6, |_| {});
            observer
        };
        let sequential = swept(1);
        let text = sequential.render_jsonl();
        assert_eq!(text.as_bytes(), swept(4).render_jsonl().as_bytes());
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with("{\"label\":\"RIP/d6\",\"slot\":0,"));
        for line in text.lines() {
            assert!(line.contains("\"attempts\":1,\"ok\":true,\"protocol\":\"RIP\""));
        }
        for row in sequential.rows() {
            assert!(row.events_processed > 0 && row.queue_high_water > 0);
        }
    }

    #[test]
    fn sweep_csv_bytes_are_identical_for_any_job_count() {
        use convergence::report::{fmt_f64, Table};
        let csv = |jobs: usize| {
            let point = observer(2, jobs).point(ProtocolKind::Dbf, MeshDegree::D6, |_| {});
            let mut table = Table::new(
                ["delivery", "no-route", "rtconv"]
                    .map(String::from)
                    .to_vec(),
            );
            table.push_row(vec![
                format!("{:.6}", point.delivery_ratio.mean),
                fmt_f64(point.drops_no_route.mean),
                fmt_f64(point.routing_convergence_s.mean),
            ]);
            table.to_csv().into_bytes()
        };
        assert_eq!(csv(1), csv(4));
    }

    #[test]
    fn a_panicking_draw_is_retried_instead_of_aborting_the_point() {
        use convergence::experiment::ProtocolFactory;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        // Exactly one protocol build panics: build 5 installs a node of
        // slot 0's first attempt (builds 0..=48 are its 49 nodes).
        let builds = Arc::new(AtomicUsize::new(0));
        let factory = {
            let builds = Arc::clone(&builds);
            ProtocolFactory::new(move || {
                assert_ne!(builds.fetch_add(1, Ordering::Relaxed), 5, "injected panic");
                Box::new(spf::Spf::default())
            })
        };
        let mut observer = observer(3, 1);
        let point = observer.point(ProtocolKind::Spf, MeshDegree::D6, |cfg| {
            cfg.protocol_override = Some(factory);
        });
        assert_eq!(point.drops_total.n, 3, "every slot completes");
        let attempts: Vec<u32> = observer.rows().iter().map(|r| r.attempts).collect();
        assert_eq!(attempts, [2, 1, 1]);
        assert!(observer.rows().iter().all(|r| r.ok));
    }

    #[test]
    fn an_unsatisfiable_draw_yields_failed_rows_instead_of_aborting() {
        use convergence::failure::{FailurePlan, SelectionError};
        use convergence::runner::RunError;
        // 50 simultaneous link failures cannot leave the 84-edge degree-4
        // mesh connected: every attempt of every slot is unsatisfiable.
        let mut cfg = ExperimentConfig::paper(ProtocolKind::Dbf, MeshDegree::D4, 0);
        cfg.failure = FailurePlan::MultipleLinks { count: 50 };
        let mut observer = observer(2, 2);
        let outcome = observer.sweep("unsatisfiable", &cfg, 2, 1, summarize);
        assert!(outcome.completed.is_empty());
        assert_eq!(outcome.failed.len(), 2);
        for failure in &outcome.failed {
            assert!(matches!(
                failure.error,
                RunError::Selection(SelectionError::NotEnoughLinks { requested: 50, .. })
            ));
        }
        assert_eq!(observer.rows().len(), 2);
        for row in observer.rows() {
            assert!(!row.ok);
            assert_eq!(row.label, "unsatisfiable");
            assert_eq!(row.attempts, RetryPolicy::default().max_attempts);
            assert!(row.error.contains("of 50 links can fail"), "{}", row.error);
        }
    }
}
