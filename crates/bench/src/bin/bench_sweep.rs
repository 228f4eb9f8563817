//! Performance harness: times one fixed sweep three ways and appends the
//! numbers as one record to the JSON array in `BENCH_sweep.json` at the
//! repository root (a file holding a single object from before the array
//! is kept as its first record).
//!
//! The workload is the paper's DBF degree-4 point (DBF produces the
//! richest event traces — transient loops, TTL drops, update storms).
//! Three legs run the identical seeded work:
//!
//! 1. sequential, trace-based metrics (the pre-optimization baseline),
//! 2. parallel (`--jobs`, default 4), trace-based metrics,
//! 3. parallel, streaming metrics (traces folded and discarded).
//!
//! The harness asserts that all three legs agree — byte-identical CSV
//! for 1 vs 2, identical `RunSummary` values for 1 vs 3 — so every
//! recorded speedup is for *verified-equivalent* output. Events/sec
//! comes from the simulator's own processed-event counter; peak RSS is
//! the `VmHWM` line of `/proc/self/status` (a whole-process high-water
//! mark, so leg order matters: the trace legs run first, and streaming
//! memory wins show up as the absence of further growth).

use std::time::Instant;

use bench::{append_record, point_seed, sweep_args};
use convergence::aggregate::aggregate_point;
use convergence::metrics::streaming::summarize_streaming;
use convergence::metrics::summary::{summarize, RunSummary};
use convergence::parallel::par_map_indexed;
use convergence::prelude::*;
use convergence::report::{fmt_f64, Table};
use topology::mesh::MeshDegree;

const PROTOCOL: ProtocolKind = ProtocolKind::Dbf;
const DEGREE: MeshDegree = MeshDegree::D4;

/// Where each invocation appends its record.
const RECORD_FILE: &str = "BENCH_sweep.json";

fn run_one(i: usize) -> RunResult {
    let cfg = ExperimentConfig::paper(PROTOCOL, DEGREE, point_seed(DEGREE, i));
    run(&cfg).unwrap_or_else(|e| panic!("run {i} failed: {e}"))
}

/// Renders the sweep's aggregate exactly the way a figure binary would,
/// so CSV comparison exercises the full float-formatting path.
fn point_csv(summaries: &[RunSummary]) -> String {
    let point = aggregate_point(summaries).expect("nonempty sweep");
    let mut table = Table::new(
        ["protocol", "degree", "delivery %", "no-route", "ttl", "fwdconv(s)", "rtconv(s)"]
            .map(String::from)
            .to_vec(),
    );
    table.push_row(vec![
        PROTOCOL.to_string(),
        DEGREE.to_string(),
        format!("{:.4}", 100.0 * point.delivery_ratio.mean),
        fmt_f64(point.drops_no_route.mean),
        fmt_f64(point.ttl_expirations.mean),
        fmt_f64(point.forwarding_convergence_s.mean),
        fmt_f64(point.routing_convergence_s.mean),
    ]);
    table.to_csv()
}

/// Peak resident set size in kB from `/proc/self/status` (`VmHWM`), or
/// `None` off Linux.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = sweep_args();
    let runs = args.runs;
    // The point of the harness is to measure parallelism, so `--jobs`
    // below 2 still benchmarks a multi-worker leg.
    let jobs = convergence::parallel::effective_jobs(args.jobs).max(4);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // Honesty: more workers than cores cannot speed anything up, so the
    // recorded speedups are judged against the parallelism the machine can
    // actually deliver.
    let jobs_effective = jobs.min(cores);
    println!(
        "bench_sweep: {PROTOCOL} {DEGREE}, {runs} runs, {jobs} jobs \
         ({cores} cores, {jobs_effective} effective)"
    );

    // Leg 1: sequential, trace-based (the baseline all else must match).
    let t0 = Instant::now();
    let mut events_total = 0u64;
    let mut seq_summaries = Vec::with_capacity(runs);
    for i in 0..runs {
        let result = run_one(i);
        events_total += result.stats.events_processed;
        seq_summaries.push(summarize(&result).expect("summary"));
    }
    let sequential_s = t0.elapsed().as_secs_f64();
    let seq_csv = point_csv(&seq_summaries);
    println!("  sequential/trace   {sequential_s:.3}s");

    // Leg 2: parallel, trace-based. Must reproduce the CSV byte for byte.
    let t0 = Instant::now();
    let par_summaries = par_map_indexed(runs, jobs, |i| summarize(&run_one(i)).expect("summary"));
    let parallel_s = t0.elapsed().as_secs_f64();
    let par_csv = point_csv(&par_summaries);
    assert_eq!(seq_csv, par_csv, "parallel sweep changed the CSV bytes");
    println!("  parallel/trace     {parallel_s:.3}s");

    // Leg 3: parallel, streaming fold. Must reproduce every RunSummary.
    let t0 = Instant::now();
    let stream_summaries = par_map_indexed(runs, jobs, |i| summarize_streaming(&run_one(i)).expect("summary"));
    let streaming_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        seq_summaries, stream_summaries,
        "streaming fold changed a RunSummary"
    );
    println!("  parallel/streaming {streaming_s:.3}s");

    let rss = peak_rss_kb();
    let par_speedup = sequential_s / parallel_s;
    let str_speedup = sequential_s / streaming_s;
    // A "parallel" leg slower than the sequential baseline is a red flag
    // (oversubscription, tiny workload, or a scheduling regression); make
    // it impossible to miss in the recorded JSON.
    let regressed = par_speedup < 1.0 || str_speedup < 1.0;
    if regressed {
        eprintln!(
            "warning: parallel speedup below 1.0 \
             (trace {par_speedup:.3}, streaming {str_speedup:.3})"
        );
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"workload\": {{\"protocol\": \"{protocol}\", \"degree\": \"{degree}\", \"runs\": {runs}}},\n",
            "  \"jobs\": {jobs},\n",
            "  \"available_cores\": {cores},\n",
            "  \"jobs_effective\": {jobs_effective},\n",
            "  \"speedup_below_one\": {regressed},\n",
            "  \"events_processed_total\": {events},\n",
            "  \"sequential_trace\": {{\"seconds\": {seq}, \"events_per_sec\": {seq_eps}, \"runs_per_sec\": {seq_rps}}},\n",
            "  \"parallel_trace\": {{\"seconds\": {par}, \"events_per_sec\": {par_eps}, \"runs_per_sec\": {par_rps}, \"speedup\": {par_speedup}}},\n",
            "  \"parallel_streaming\": {{\"seconds\": {str}, \"events_per_sec\": {str_eps}, \"runs_per_sec\": {str_rps}, \"speedup\": {str_speedup}}},\n",
            "  \"csv_bytes_identical\": true,\n",
            "  \"streaming_summaries_identical\": true,\n",
            "  \"peak_rss_kb\": {rss}\n",
            "}}\n"
        ),
        protocol = PROTOCOL,
        degree = DEGREE,
        runs = runs,
        jobs = jobs,
        cores = cores,
        jobs_effective = jobs_effective,
        regressed = regressed,
        events = events_total,
        seq = json_f64(sequential_s),
        seq_eps = json_f64(events_total as f64 / sequential_s),
        seq_rps = json_f64(runs as f64 / sequential_s),
        par = json_f64(parallel_s),
        par_eps = json_f64(events_total as f64 / parallel_s),
        par_rps = json_f64(runs as f64 / parallel_s),
        par_speedup = json_f64(par_speedup),
        str = json_f64(streaming_s),
        str_eps = json_f64(events_total as f64 / streaming_s),
        str_rps = json_f64(runs as f64 / streaming_s),
        str_speedup = json_f64(str_speedup),
        rss = rss.map_or("null".to_string(), |kb| kb.to_string()),
    );
    append_record(RECORD_FILE, &json).unwrap_or_else(|e| panic!("append to {RECORD_FILE}: {e}"));
    println!("appended a record to {RECORD_FILE}");
    print!("{json}");
}
