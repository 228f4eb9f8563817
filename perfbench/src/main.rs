//! The repository benchmark: sweep throughput, run latency, memory and a
//! reconciled per-layer cost model for one named workload.
//!
//! ```text
//! perfbench --workload <paper_grid|loaded_timeline|large_mesh> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The seed generates the run list: a fixed number of blocks, each one run
//! per (protocol, topology) pair. Set-up warms block 0 three times. The
//! timed loop then runs the whole list once and keeps cycling through its
//! blocks until `--seconds` have elapsed. Reference chunks interleaved
//! with the runs (see `reference`) scale every reported time to one
//! nominal machine speed. `--trace 0` reports the end-to-end metrics from
//! untraced runs. `--trace 1` runs every block untraced and then traced,
//! and reports the per-layer metrics per pass over the list. Every run is
//! checked: packet conservation, summary digests and exact counts
//! identical across repeats and between traced and untraced runs, and the
//! committed digest for the default and held-out seeds. Any failure makes the exit code 1. The last line of
//! stdout is one JSON object.

mod expected;
mod reference;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use convergence::experiment::ExperimentConfig;
use reference::Reference;
use workload::{combine, execute, Counts, Layers, Outcome, Workload, PROTOCOL_LAYERS, TRACE_KINDS};

const USAGE: &str =
    "usage: perfbench --workload <paper_grid|loaded_timeline|large_mesh> --seed <n> --seconds <n> --trace <0|1>";

/// Set-up passes; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u32 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                seconds = Some(f64::from(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The outcomes of one block's runs; `None` for a run that failed.
type Block = Vec<Option<Outcome>>;

/// Correctness over every run executed (set-up warm runs included) and
/// the first execution of each block, which later executions must match.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    plain: Vec<Block>,
    traced: Vec<Block>,
}

impl Gate {
    fn fail(&mut self, runs: u64, why: &str) {
        self.failed += runs;
        eprintln!("FAIL: {why}");
    }

    /// Executes a block's runs in order, calling `after` after each run
    /// that succeeded.
    fn run_block(
        &mut self,
        jobs: &[ExperimentConfig],
        keep_trace: bool,
        traced: bool,
        mut after: impl FnMut(&Outcome),
    ) -> Block {
        jobs.iter()
            .map(|cfg| {
                self.attempted += 1;
                let outcome = execute(cfg, keep_trace, traced)
                    .map_err(|why| self.fail(1, &why))
                    .ok();
                outcome.iter().for_each(&mut after);
                outcome
            })
            .collect()
    }

    /// Stores the first execution of block `index` as its reference, or
    /// fails every run whose summary digest or exact counts differ from
    /// the reference's. A traced block is checked against the untraced
    /// reference (digest, engine counts) and the traced one (recorder and
    /// trace counts).
    fn check(&mut self, index: usize, block: &Block, traced: bool) {
        let mut refs = vec![&self.plain];
        if traced {
            refs.push(&self.traced);
        }
        let mut mismatches = Vec::new();
        for reference in refs.into_iter().filter_map(|r| r.get(index)) {
            for (i, (r, b)) in reference.iter().zip(block).enumerate() {
                let (Some(r), Some(b)) = (r, b) else { continue };
                let layer_counts = |o: &Outcome| o.layers.as_ref().map(Layers::counts);
                let layers_differ = r.layers.is_some() && layer_counts(r) != layer_counts(b);
                if r.digest != b.digest || r.counts != b.counts || layers_differ {
                    mismatches.push(i);
                }
            }
        }
        mismatches.sort_unstable();
        mismatches.dedup();
        for i in mismatches {
            let kind = if traced { "traced" } else { "untraced" };
            self.fail(
                1,
                &format!("block {index} run {i}: {kind} repeat differs from the first run"),
            );
        }
        let refs = if traced {
            &mut self.traced
        } else {
            &mut self.plain
        };
        if refs.len() == index {
            refs.push(block.clone());
        }
    }

    /// The digest of the whole run list, checked against the committed
    /// one when the seed is the default or held-out seed.
    fn check_committed(&mut self, workload: Workload, seed: u64) {
        let digests = self
            .plain
            .iter()
            .flatten()
            .map(|o| o.as_ref().map_or(0, |o| o.digest));
        let digest = combine(digests);
        eprintln!(
            "summary digest ({} seed {seed}): {digest:#018x}",
            workload.name()
        );
        if let Some(expected) = expected::digest(workload.name(), seed) {
            if digest != expected {
                let runs = self.plain.iter().map(Vec::len).sum::<usize>() as u64;
                self.fail(
                    runs,
                    &format!("summary digest {digest:#018x}, committed {expected:#018x}"),
                );
            }
        }
    }
}

/// The median, or NaN (reported as a failure) when nothing was measured.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Peak resident set size in MiB (`VmHWM` of `/proc/self/status`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb as f64 / 1024.0)
}

/// The set-up passes' times: build block 0 and warm every (protocol,
/// topology) pair with it. The first pass is timed from process start.
/// Each time is the pass's wall seconds without its reference chunks,
/// scaled to the nominal speed; the second value is the first pass as
/// measured.
fn setup(
    args: &Args,
    process_start: Instant,
    reference: &mut Reference,
    gate: &mut Gate,
) -> (Vec<f64>, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut first_wall_s = 0.0;
    let mut start = process_start;
    for _ in 0..SETUP_REPEATS {
        reference.restart();
        let mut work_ns = 0;
        let jobs = args.workload.block(args.seed, 0);
        let block = gate.run_block(&jobs, args.workload.keeps_trace(), false, |o| {
            work_ns += o.wall_ns;
            reference.top_up(work_ns);
        });
        gate.check(0, &block, false);
        let wall_s = start.elapsed().as_secs_f64() - reference.ns() as f64 / 1e9;
        if times.is_empty() {
            first_wall_s = wall_s;
        }
        times.push(wall_s * reference.scale());
        start = workload::now();
    }
    (times, first_wall_s)
}

/// Everything the timed loop measured.
#[derive(Default)]
struct Timed {
    blocks: usize,
    /// Wall seconds of the loop, reference chunks left out.
    elapsed_s: f64,
    /// Scales a wall time to the nominal machine speed.
    scale: f64,
    /// Wall times of untraced runs (ms), one list per (protocol,
    /// topology) pair.
    walls_ms: Vec<Vec<f64>>,
    plain_ns: u64,
    traced_ns: u64,
    /// Peak resident set size (MiB) after set-up and the first pass: the
    /// same runs in the same order on every run of one seed, whereas what
    /// the loop adds later depends on how fast the machine is.
    peak_rss_mb: Option<f64>,
    /// Layer times summed over traced runs.
    layers: Layers,
}

/// Runs the whole run list once, then cycles through its blocks until
/// `seconds` have elapsed. With `traced`, each block runs untraced and
/// then traced. The reference tops up after every run.
fn timed_loop(args: &Args, traced: bool, reference: &mut Reference, gate: &mut Gate) -> Timed {
    let keep = args.workload.keeps_trace();
    let per_pass = args.workload.blocks_per_pass();
    let mut t = Timed {
        walls_ms: vec![Vec::new(); args.workload.block(args.seed, 0).len()],
        ..Timed::default()
    };
    reference.restart();
    let start = workload::now();
    loop {
        let index = t.blocks % per_pass;
        let jobs = args.workload.block(args.seed, index);
        let plain = gate.run_block(&jobs, keep, false, |o| {
            t.plain_ns += o.wall_ns;
            reference.top_up(t.plain_ns + t.traced_ns);
        });
        gate.check(index, &plain, false);
        for (walls, o) in t.walls_ms.iter_mut().zip(&plain) {
            walls.extend(o.as_ref().map(|o| o.wall_ns as f64 / 1e6));
        }
        if traced {
            let block = gate.run_block(&jobs, keep, true, |o| {
                t.traced_ns += o.wall_ns;
                t.layers
                    .add(o.layers.as_ref().expect("traced runs carry layers"));
                reference.top_up(t.plain_ns + t.traced_ns);
            });
            gate.check(index, &block, true);
        }
        t.blocks += 1;
        if t.blocks == per_pass {
            t.peak_rss_mb = peak_rss_mb();
        }
        let elapsed_s = start.elapsed().as_secs_f64();
        if t.blocks >= per_pass && elapsed_s >= args.seconds {
            t.elapsed_s = elapsed_s - reference.ns() as f64 / 1e9;
            break;
        }
    }
    t.scale = reference.scale();
    gate.check_committed(args.workload, args.seed);
    t
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn render_json(gate: &Gate, correct: bool, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if !m.value.is_finite() {
                "null".to_string()
            } else if m.unit == "count" {
                format!("{}", m.value as u64)
            } else {
                format!("{}", m.value)
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.attempted,
        gate.failed,
        body.join(", ")
    )
}

/// The end-to-end metrics of an untraced timed loop. Times are scaled to
/// the nominal machine speed; stderr also gives them as measured.
fn end_to_end(
    args: &Args,
    (mut setup_s, first_setup_s): (Vec<f64>, f64),
    reference: &mut Reference,
    gate: &mut Gate,
) -> Vec<Metric> {
    let mut t = timed_loop(args, false, reference, gate);
    // Each pair's median run, then their geometric mean: the pairs' run
    // times differ by up to 5x, so the median of all runs would sit
    // wherever the middle pair happens to fall.
    let pair_p50: Vec<f64> = t.walls_ms.iter_mut().map(|w| median(w)).collect();
    let p50 = (pair_p50.iter().map(|m| m.ln()).sum::<f64>() / pair_p50.len() as f64).exp();
    let mut all: Vec<f64> = t.walls_ms.concat();
    let runs = all.len();
    let setup_s = median(&mut setup_s);
    // The highest percentile with at least ten samples beyond it.
    all.sort_by(f64::total_cmp);
    let tail = [99, 90, 75]
        .into_iter()
        .find(|p| runs * (100 - p) / 100 >= 10)
        .map_or(String::new(), |p| {
            format!(", p{p} {:.3} ms", all[runs * p / 100])
        });
    let rss = t.peak_rss_mb.unwrap_or_else(|| {
        gate.fail(0, "VmHWM unavailable");
        f64::NAN
    });
    eprintln!(
        "{}: as measured, {} blocks, {runs} runs in {:.3} s; run wall p50 {p50:.3} ms \
         (geometric mean of the pairs' medians){tail}; first set-up pass {first_setup_s:.3} s",
        args.workload.name(),
        t.blocks,
        t.elapsed_s,
    );
    eprintln!(
        "timed loop scaled by {:.4} to the nominal speed; set-up {setup_s:.3} s scaled \
         (median of {SETUP_REPEATS} passes, each scaled by its own reference chunks); \
         fail_frac {}/{} runs executed (set-up warm runs included)",
        t.scale, gate.failed, gate.attempted
    );
    vec![
        metric(
            "runs_per_s",
            runs as f64 / (t.elapsed_s * t.scale),
            "runs/s",
        ),
        metric("run_ms_p50", p50 * t.scale, "ms"),
        metric("peak_rss_mb", rss, "MiB"),
        metric("setup_s", setup_s, "s"),
    ]
}

/// The per-layer metrics of a traced timed loop: times are per pass over
/// the run list (averaged over every traced block run) and scaled to the
/// nominal machine speed, counts are exact totals over one pass.
fn per_layer(args: &Args, reference: &mut Reference, gate: &mut Gate) -> Vec<Metric> {
    let t = timed_loop(args, true, reference, gate);
    let passes = t.blocks as f64 / args.workload.blocks_per_pass() as f64;
    let per_pass_ms = |ns: f64| ns * t.scale / passes / 1e6;
    let l = &t.layers;
    let engine_ns = l.dispatch_ns + l.trace_ns + l.protocol_ns.iter().sum::<u64>();
    let runner_self_ms =
        per_pass_ms(l.run_ns as f64 - (engine_ns + l.realize_ns + l.build_ns) as f64);

    // Reconciliation: every self time plus the unattributed row against
    // the traced runs' measured wall time.
    let mut rows: Vec<(String, f64)> = vec![
        ("topology.realize".into(), per_pass_ms(l.realize_ns as f64)),
        ("netsim.build".into(), per_pass_ms(l.build_ns as f64)),
        (
            "netsim.dispatch_self".into(),
            per_pass_ms(l.dispatch_ns as f64),
        ),
        ("netsim.trace_self".into(), per_pass_ms(l.trace_ns as f64)),
    ];
    for (p, ns) in PROTOCOL_LAYERS.iter().zip(l.protocol_ns) {
        rows.push((format!("{p}.self"), per_pass_ms(ns as f64)));
    }
    rows.push(("core.fold".into(), per_pass_ms(l.fold_ns as f64)));
    rows.push(("core.series".into(), per_pass_ms(l.series_ns as f64)));
    rows.push(("unattributed (core.runner_self)".into(), runner_self_ms));
    let attributed: f64 = rows.iter().map(|(_, ms)| ms).sum();
    let wall_ms = per_pass_ms(t.traced_ns as f64);
    eprintln!(
        "{}: {} traced blocks ({passes:.2} passes); ms per pass, scaled by {:.4} to the nominal speed:",
        args.workload.name(),
        t.blocks,
        t.scale
    );
    for (name, ms) in &rows {
        eprintln!("  {name:<32} {ms:>12.3} {:>7.2}%", 100.0 * ms / wall_ms);
    }
    eprintln!("  {:<32} {attributed:>12.3}", "sum");
    eprintln!(
        "  {:<32} {wall_ms:>12.3}  (wall - sum = {:.3} ms: digests and checks)",
        "measured wall",
        wall_ms - attributed
    );
    if runner_self_ms < 0.0 {
        eprintln!("warning: attributed layer time exceeds the run_observed wall time");
    }
    let overhead = (t.traced_ns as f64 - t.plain_ns as f64) / t.plain_ns as f64;
    eprintln!(
        "  obs.trace_overhead_frac {overhead:.4} = (traced {wall_ms:.3} - untraced {:.3}) / untraced, ms per pass",
        per_pass_ms(t.plain_ns as f64)
    );

    // Exact counts over one pass: the first traced execution of each block.
    let mut counts = Counts::default();
    let mut exact = Layers::default();
    for o in gate.traced.iter().flatten().flatten() {
        counts.add(&o.counts);
        exact.add(o.layers.as_ref().expect("traced runs carry layers"));
    }
    let count = |name: &str, n: u64| metric(name, n as f64, "count");
    let ratio = |n: u64, d: u64| n as f64 / d as f64;
    let mut out = vec![
        metric(
            "topology.realize_ms",
            per_pass_ms(l.realize_ns as f64),
            "ms",
        ),
        metric("netsim.build_ms", per_pass_ms(l.build_ns as f64), "ms"),
        metric(
            "netsim.dispatch_self_ms",
            per_pass_ms(l.dispatch_ns as f64),
            "ms",
        ),
        metric("netsim.trace_self_ms", per_pass_ms(l.trace_ns as f64), "ms"),
        count("netsim.events", counts.events),
        count("netsim.dispatch_calls", exact.dispatch_calls),
        count("netsim.queue_high_water", counts.queue_high_water),
        count("netsim.ctrl_msgs", counts.ctrl_msgs),
        count("netsim.ctrl_bytes", counts.ctrl_bytes),
        metric(
            "netsim.ctrl_lost_frac",
            ratio(counts.ctrl_lost, counts.ctrl_msgs),
            "ratio",
        ),
        metric(
            "netsim.ctrl_shared_frac",
            ratio(counts.ctrl_shared, counts.ctrl_msgs),
            "ratio",
        ),
        count("netsim.pkts_injected", counts.pkts_injected),
        count("netsim.pkts_delivered", counts.pkts_delivered),
        count("netsim.pkts_dropped", counts.pkts_dropped),
        count("netsim.trace_events", exact.trace_kinds.iter().sum()),
    ];
    for (kind, n) in TRACE_KINDS.iter().zip(exact.trace_kinds) {
        out.push(count(&format!("netsim.trace.{kind}"), n));
    }
    for (i, p) in PROTOCOL_LAYERS.iter().enumerate() {
        out.push(metric(
            format!("{p}.self_ms"),
            per_pass_ms(l.protocol_ns[i] as f64),
            "ms",
        ));
        out.push(count(&format!("{p}.calls"), exact.protocol_calls[i]));
    }
    out.push(metric(
        "core.fold_ms",
        per_pass_ms((l.fold_ns + l.series_ns) as f64),
        "ms",
    ));
    out.push(metric("core.runner_self_ms", runner_self_ms, "ms"));
    out.push(metric("obs.trace_overhead_frac", overhead, "ratio"));
    out
}

fn main() -> ExitCode {
    let process_start = workload::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut gate = Gate::default();
    let mut reference = Reference::new();
    let setup_s = setup(&args, process_start, &mut reference, &mut gate);
    let metrics = if args.trace {
        per_layer(&args, &mut reference, &mut gate)
    } else {
        end_to_end(&args, setup_s, &mut reference, &mut gate)
    };
    let correct = gate.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    println!("{}", render_json(&gate, correct, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
