//! # bench — figure regeneration and performance benchmarks
//!
//! Each binary in `src/bin/` regenerates one of the paper's figures or an
//! ablation, or measures the engine (`bench_hotpath`, `bench_profile`,
//! `bench_sweep`). This library provides the shared sweep drivers.
//!
//! Every binary accepts an optional positional argument (the number of
//! randomized runs per sweep point; default 100, the paper's count), a
//! `--jobs N` flag (worker threads per sweep point; `0` = all cores,
//! default 1, `JOBS` env var as fallback), and a `--progress` flag (live
//! per-sweep completion and ETA on stderr). Sweeps are deterministic for
//! every job count: per-run seeds depend only on the slot index, and
//! results are assembled in slot order, so the printed tables and CSVs
//! are byte-identical whether a sweep ran on one thread or sixteen.
//! Results are printed as aligned tables and written as CSV under
//! `results/`, with per-run telemetry under `results/telemetry/`.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use convergence::aggregate::{aggregate_point, run_telemetry, PointSummary};
use convergence::experiment::ExperimentConfig;
use convergence::metrics::series::{delay_series, throughput_series};
use convergence::metrics::streaming::summarize_streaming;
use convergence::metrics::summary::{summarize, RunSummary};
use convergence::parallel::par_map_indexed_with;
use convergence::protocols::ProtocolKind;
use convergence::runner::{run, RunResult};
use obs::progress::Progress;
use obs::telemetry::{render_jsonl, RunTelemetry};
use topology::mesh::MeshDegree;

/// Default randomized runs per sweep point (the paper's §5 count).
pub const DEFAULT_RUNS: usize = 100;

/// Base seed for sweeps; per-point seeds derive deterministically.
pub const BASE_SEED: u64 = 20030622;

/// Command-line options shared by every figure binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepArgs {
    /// Randomized runs per sweep point.
    pub runs: usize,
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
            runs: DEFAULT_RUNS,
            jobs: 1,
            progress: false,
        }
    }
}

/// Parses `[runs-per-point] [--jobs N]` from the process arguments, with
/// the `JOBS` environment variable as a fallback for the flag.
///
/// # Panics
///
/// Panics with a usage message on malformed arguments.
#[must_use]
pub fn sweep_args() -> SweepArgs {
    parse_sweep_args(std::env::args().skip(1), std::env::var("JOBS").ok())
}

/// Testable core of [`sweep_args`].
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
    let mut runs_seen = false;
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
        } else if !runs_seen {
            parsed.runs = arg
                .parse()
                .unwrap_or_else(|_| panic!("{USAGE}; got {arg:?}"));
            runs_seen = true;
        } else {
            panic!("{USAGE}; unexpected argument {arg:?}");
        }
    }
    parsed
}

/// Parses the optional runs-per-point argument (compatibility wrapper
/// over [`sweep_args`]; `--jobs` is accepted but ignored by the caller).
///
/// # Panics
///
/// Panics with a usage message when the argument is not a number.
#[must_use]
pub fn runs_from_args() -> usize {
    sweep_args().runs
}

/// A deterministic seed for a sweep point. Seeds depend on the degree and
/// run index but *not* the protocol, so all protocols face the identical
/// scenario sequence (flows, failed links) at each degree — the paper
/// compares protocols on the same situations.
#[must_use]
pub fn point_seed(degree: MeshDegree, run_index: usize) -> u64 {
    BASE_SEED + u64::from(degree.as_u32()) * 100_000 + run_index as u64
}

/// Collects per-run telemetry across a bench binary's sweeps and, when
/// `--progress` was given, reports live completion on stderr.
///
/// One observer lives per binary: each observed sweep appends its rows
/// (stamped with a `label/slot` context), and [`SweepObserver::finish`]
/// writes everything as `results/telemetry/<bin>.jsonl` — the per-target
/// stream `run_all` merges into `results/telemetry.jsonl`. The rows are
/// in sweep-then-slot order and contain no wall-clock values, so the file
/// bytes are deterministic for a fixed seed and any `--jobs` count; the
/// wall clock is used only for the (stderr) ETA display.
#[derive(Debug)]
pub struct SweepObserver {
    bin: &'static str,
    progress: bool,
    started: std::time::Instant,
    rows: Vec<RunTelemetry>,
}

impl SweepObserver {
    /// An observer for the binary `bin` honouring the parsed `--progress`
    /// flag.
    #[must_use]
    pub fn new(bin: &'static str, args: SweepArgs) -> Self {
        SweepObserver {
            bin,
            progress: args.progress,
            started: std::time::Instant::now(),
            rows: Vec::new(),
        }
    }

    /// An observer that neither prints progress nor is ever finished —
    /// what the unobserved sweep wrappers use internally.
    #[must_use]
    pub fn quiet(bin: &'static str) -> Self {
        SweepObserver::new(bin, SweepArgs { progress: false, ..SweepArgs::default() })
    }

    /// The live progress meter for one sweep of `total` runs. Binaries
    /// that drive `par_map_indexed_with` themselves pair this with
    /// [`ProgressMeter::tick`] in the completion callback.
    #[must_use]
    pub fn meter(&self, label: &str, total: usize) -> ProgressMeter {
        ProgressMeter {
            label: label.to_string(),
            enabled: self.progress,
            started: self.started,
            progress: Progress::new(total),
        }
    }

    /// Appends one sweep's telemetry rows, stamping each with `label`.
    pub fn push_rows(&mut self, label: &str, rows: Vec<RunTelemetry>) {
        for mut row in rows {
            row.label = label.to_string();
            self.rows.push(row);
        }
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

    /// Writes the collected rows to `results/telemetry/<bin>.jsonl`,
    /// returning the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn finish(&self) -> std::io::Result<std::path::PathBuf> {
        let dir = results_dir().join("telemetry");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.jsonl", self.bin));
        std::fs::write(&path, self.render_jsonl())?;
        Ok(path)
    }
}

/// Live completion meter for one sweep (see [`SweepObserver::meter`]).
#[derive(Debug)]
pub struct ProgressMeter {
    label: String,
    enabled: bool,
    started: std::time::Instant,
    progress: Progress,
}

impl ProgressMeter {
    /// Marks run slot `i` complete; prints a progress line when enabled.
    pub fn tick(&self, i: usize) {
        self.progress.mark_done(i);
        if self.enabled {
            let elapsed = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            eprintln!("{}", self.progress.render(&self.label, Some(elapsed)));
        }
    }
}

/// The telemetry context label of one (protocol, degree) sweep point.
fn point_label(protocol: ProtocolKind, degree: MeshDegree) -> String {
    format!("{protocol}/d{degree}")
}

/// Runs `runs` seeded repetitions of the paper experiment for one
/// (protocol, degree) point on up to `jobs` worker threads, applying
/// `customize` to each configuration, and maps every result through
/// `extract`.
///
/// Each worker discards the run's trace as soon as `extract` returns, so
/// the sweep retains `runs × T`, never `runs` full traces. Results come
/// back in run-index order regardless of `jobs`.
///
/// # Panics
///
/// Panics if any run fails (the paper's regular meshes never do).
pub fn sweep_map<T: Send>(
    protocol: ProtocolKind,
    degree: MeshDegree,
    runs: usize,
    jobs: usize,
    customize: &(dyn Fn(&mut ExperimentConfig) + Sync),
    extract: &(dyn Fn(&RunResult, &RunSummary) -> T + Sync),
) -> Vec<T> {
    sweep_map_observed(
        protocol,
        degree,
        runs,
        jobs,
        customize,
        extract,
        &mut SweepObserver::quiet("adhoc"),
    )
}

/// [`sweep_map`] recording per-run telemetry (and live progress) into
/// `observer`.
///
/// # Panics
///
/// Panics if any run fails (the paper's regular meshes never do).
pub fn sweep_map_observed<T: Send>(
    protocol: ProtocolKind,
    degree: MeshDegree,
    runs: usize,
    jobs: usize,
    customize: &(dyn Fn(&mut ExperimentConfig) + Sync),
    extract: &(dyn Fn(&RunResult, &RunSummary) -> T + Sync),
    observer: &mut SweepObserver,
) -> Vec<T> {
    let label = point_label(protocol, degree);
    let meter = observer.meter(&label, runs);
    let slots = par_map_indexed_with(
        runs,
        jobs,
        |i| {
            let mut cfg = ExperimentConfig::paper(protocol, degree, point_seed(degree, i));
            customize(&mut cfg);
            let result =
                run(&cfg).unwrap_or_else(|e| panic!("{protocol} d{degree} run {i} failed: {e}"));
            let telemetry = run_telemetry(i as u64, cfg.seed, 1, protocol.label(), &result);
            let summary = summarize(&result)
                .unwrap_or_else(|e| panic!("{protocol} d{degree} run {i}: {e}"));
            (extract(&result, &summary), telemetry)
        },
        &|i| meter.tick(i),
    );
    let mut out = Vec::with_capacity(slots.len());
    let mut rows = Vec::with_capacity(slots.len());
    for (value, telemetry) in slots {
        out.push(value);
        rows.push(telemetry);
    }
    observer.push_rows(&label, rows);
    out
}

/// Runs one sweep point and aggregates the scalar summaries.
///
/// Uses the streaming metric observers: each run's trace is folded into
/// its [`RunSummary`] in a single pass and dropped, so a 100-run point
/// holds 100 summaries instead of 100 event traces. The summaries are
/// identical to the trace-based path's.
///
/// # Panics
///
/// Panics if any run fails (the paper's regular meshes never do).
#[must_use]
pub fn sweep_point(
    protocol: ProtocolKind,
    degree: MeshDegree,
    runs: usize,
    jobs: usize,
    customize: &(dyn Fn(&mut ExperimentConfig) + Sync),
) -> PointSummary {
    sweep_point_observed(
        protocol,
        degree,
        runs,
        jobs,
        customize,
        &mut SweepObserver::quiet("adhoc"),
    )
}

/// [`sweep_point`] recording per-run telemetry (and live progress) into
/// `observer`. The telemetry never feeds the aggregated summaries, so
/// figure CSVs are unchanged by observation.
///
/// # Panics
///
/// Panics if any run fails (the paper's regular meshes never do).
#[must_use]
pub fn sweep_point_observed(
    protocol: ProtocolKind,
    degree: MeshDegree,
    runs: usize,
    jobs: usize,
    customize: &(dyn Fn(&mut ExperimentConfig) + Sync),
    observer: &mut SweepObserver,
) -> PointSummary {
    let label = point_label(protocol, degree);
    let meter = observer.meter(&label, runs);
    let slots = par_map_indexed_with(
        runs,
        jobs,
        |i| {
            let mut cfg = ExperimentConfig::paper(protocol, degree, point_seed(degree, i));
            customize(&mut cfg);
            let result =
                run(&cfg).unwrap_or_else(|e| panic!("{protocol} d{degree} run {i} failed: {e}"));
            let telemetry = run_telemetry(i as u64, cfg.seed, 1, protocol.label(), &result);
            let summary = summarize_streaming(&result)
                .unwrap_or_else(|e| panic!("{protocol} d{degree} run {i}: {e}"));
            (summary, telemetry)
        },
        &|i| meter.tick(i),
    );
    let mut summaries = Vec::with_capacity(slots.len());
    let mut rows = Vec::with_capacity(slots.len());
    for (summary, telemetry) in slots {
        summaries.push(summary);
        rows.push(telemetry);
    }
    observer.push_rows(&label, rows);
    aggregate_point(&summaries).expect("nonempty sweep")
}

/// Per-run series extracted for the Figure 5/7 time plots.
#[derive(Debug, Clone)]
pub struct SeriesPoint {
    /// Delivered packets per second, seconds relative to failure.
    pub throughput: Vec<(i64, u64)>,
    /// Mean delivered-packet delay per second.
    pub delay: Vec<(i64, Option<f64>)>,
}

/// Runs a sweep point collecting throughput and delay series over the
/// window `[from_s, to_s)` seconds around the failure.
#[must_use]
pub fn sweep_series(
    protocol: ProtocolKind,
    degree: MeshDegree,
    runs: usize,
    jobs: usize,
    from_s: i64,
    to_s: i64,
) -> Vec<SeriesPoint> {
    sweep_series_observed(
        protocol,
        degree,
        runs,
        jobs,
        from_s,
        to_s,
        &mut SweepObserver::quiet("adhoc"),
    )
}

/// [`sweep_series`] recording per-run telemetry (and live progress) into
/// `observer`.
#[must_use]
pub fn sweep_series_observed(
    protocol: ProtocolKind,
    degree: MeshDegree,
    runs: usize,
    jobs: usize,
    from_s: i64,
    to_s: i64,
    observer: &mut SweepObserver,
) -> Vec<SeriesPoint> {
    sweep_map_observed(
        protocol,
        degree,
        runs,
        jobs,
        &|_| {},
        &|result, _| SeriesPoint {
            throughput: throughput_series(&result.trace, result.t_fail, from_s, to_s),
            delay: delay_series(&result.trace, result.t_fail, from_s, to_s),
        },
        observer,
    )
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
        let mut seen = std::collections::HashSet::new();
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
        let args = |v: &[&str]| v.iter().map(|s| (*s).to_string()).collect::<Vec<_>>().into_iter();
        assert_eq!(parse_sweep_args(args(&[]), None), SweepArgs::default());
        assert_eq!(
            parse_sweep_args(args(&["25"]), None),
            SweepArgs { runs: 25, jobs: 1, progress: false }
        );
        assert_eq!(
            parse_sweep_args(args(&["25", "--jobs", "4"]), None),
            SweepArgs { runs: 25, jobs: 4, progress: false }
        );
        assert_eq!(
            parse_sweep_args(args(&["--jobs=8", "10"]), None),
            SweepArgs { runs: 10, jobs: 8, progress: false }
        );
        // Env fallback applies, explicit flag wins.
        assert_eq!(
            parse_sweep_args(args(&["5"]), Some("2".into())),
            SweepArgs { runs: 5, jobs: 2, progress: false }
        );
        assert_eq!(
            parse_sweep_args(args(&["5", "--jobs", "3"]), Some("2".into())),
            SweepArgs { runs: 5, jobs: 3, progress: false }
        );
        assert_eq!(
            parse_sweep_args(args(&["--progress", "5", "--jobs", "2"]), None),
            SweepArgs { runs: 5, jobs: 2, progress: true }
        );
    }

    #[test]
    #[should_panic(expected = "unexpected argument")]
    fn arg_parsing_rejects_extra_positionals() {
        let _ = parse_sweep_args(["1".to_string(), "2".to_string()].into_iter(), None);
    }

    #[test]
    fn tiny_sweep_runs_end_to_end() {
        let point = sweep_point(ProtocolKind::Spf, MeshDegree::D6, 2, 1, &|_| {});
        assert_eq!(point.drops_total.n, 2);
        assert!(point.delivery_ratio.mean > 0.9);
    }

    #[test]
    fn sweep_point_is_identical_for_any_job_count() {
        let sequential = sweep_point(ProtocolKind::Spf, MeshDegree::D6, 3, 1, &|_| {});
        let parallel = sweep_point(ProtocolKind::Spf, MeshDegree::D6, 3, 3, &|_| {});
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn telemetry_bytes_are_identical_for_any_job_count() {
        let jsonl = |jobs: usize| {
            let mut observer = SweepObserver::quiet("determinism-test");
            let _ = sweep_point_observed(
                ProtocolKind::Rip,
                MeshDegree::D6,
                3,
                jobs,
                &|_| {},
                &mut observer,
            );
            observer.render_jsonl().into_bytes()
        };
        let sequential = jsonl(1);
        assert_eq!(sequential, jsonl(4));
        let text = String::from_utf8(sequential).expect("jsonl is utf-8");
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with("{\"label\":\"RIP/d6\",\"slot\":0,"));
        for line in text.lines() {
            assert!(line.contains("\"attempts\":1,\"ok\":true,\"protocol\":\"RIP\""));
            assert!(obs::telemetry::field_u64(line, "events_processed").unwrap_or(0) > 0);
            assert!(obs::telemetry::field_u64(line, "queue_high_water").unwrap_or(0) > 0);
        }
    }

    #[test]
    fn sweep_csv_bytes_are_identical_for_any_job_count() {
        use convergence::report::{fmt_f64, Table};
        let csv = |jobs: usize| {
            let point = sweep_point(ProtocolKind::Dbf, MeshDegree::D6, 2, jobs, &|_| {});
            let mut table =
                Table::new(["delivery", "no-route", "rtconv"].map(String::from).to_vec());
            table.push_row(vec![
                format!("{:.6}", point.delivery_ratio.mean),
                fmt_f64(point.drops_no_route.mean),
                fmt_f64(point.routing_convergence_s.mean),
            ]);
            table.to_csv().into_bytes()
        };
        assert_eq!(csv(1), csv(4));
    }
}
