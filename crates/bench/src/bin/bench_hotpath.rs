//! Hot-path micro-harness: events/sec, exact work counters and the
//! allocation-sharing counters, appended as one record to the JSON array
//! in `BENCH_hotpath.json` at the repository root (a file holding a
//! single object from before the array is kept as its first record).
//!
//! Three legs, all fully seeded and deterministic in everything but the
//! wall clock:
//!
//! 1. **DBF timing leg** — the paper's DBF degree-4 point (the richest
//!    event mix: update storms, transient loops, TTL drops), timed one
//!    run at a time. Reports per-run events/sec (median/min/max), total
//!    events, and how many control sends shared an already-queued
//!    payload allocation (`Rc` fan-out instead of a per-link clone).
//! 2. **Fan-out leg** — one seeded paper run each for the protocols
//!    whose control traffic is neighbor-independent (SPF flooding, DUAL
//!    queries/replies, RIP requests), reporting how many sends shared a
//!    payload. DBF and BGP are structurally absent here: split horizon
//!    and per-peer update filtering make every one of their payloads
//!    neighbor-specific, so their share count is legitimately zero.
//! 3. **Counter legs** — for each of BGP-3, RIP, SPF and DUAL,
//!    [`COUNTER_RUNS`] seeded degree-4 paper runs, reporting their exact
//!    `events_processed`, control-message and stale-timer-pop totals and
//!    peak calendar high water.
//!
//! ```text
//! bench_hotpath [--smoke] [runs] [--jobs N]
//! ```
//!
//! `--smoke` is the CI mode (3 timing runs); the default is 30.
//! `--jobs` is accepted for interface uniformity and ignored — timing
//! runs alone. When `results/bench_hotpath_baseline.json` exists, the
//! process exits nonzero on either of two regressions:
//!
//! - the measured median is more than 20% below its
//!   `events_per_sec_median` (a wall-clock trend, so the gate is loose);
//! - an exact work counter is above its committed `counter_*` count: the
//!   DBF leg's `events_processed` total or peak calendar high water
//!   (checked with `counter_runs` timing runs, the smoke count), or a
//!   counter leg's `events_processed` total, control-message total, peak
//!   calendar high water or stale-timer-pop total, for each committed
//!   `counter_<leg>_*` key (checked on every run). These counts are the
//!   same on every machine, so any rise is a real change in the engine's
//!   or protocol's work; a change that raises one on purpose re-blesses
//!   the committed count and says why. A fall is reported, not failed, so
//!   the committed counts only ever ratchet down.

use std::time::Instant;

use bench::{append_record, point_seed};
use convergence::prelude::*;
use topology::mesh::MeshDegree;

const DEGREE: MeshDegree = MeshDegree::D4;

/// Seeded runs in each counter leg.
const COUNTER_RUNS: usize = 3;

/// The counter legs: each protocol with the name its JSON block and its
/// `counter_<name>_*` baseline keys use.
const COUNTER_LEGS: [(ProtocolKind, &str); 4] = [
    (ProtocolKind::Bgp3, "bgp3"),
    (ProtocolKind::Rip, "rip"),
    (ProtocolKind::Spf, "spf"),
    (ProtocolKind::Dual, "dual"),
];

/// Where each invocation appends its record.
const RECORD_FILE: &str = "BENCH_hotpath.json";

/// How far past a 20%-slower-than-baseline median the harness tolerates
/// before failing (the CI regression gate).
const REGRESSION_FLOOR: f64 = 0.8;

struct TimingLeg {
    events_total: u64,
    /// Peak calendar high water over the runs.
    queue_high_water: u64,
    elapsed_ns_total: u64,
    events_per_sec: Vec<f64>,
    payloads_shared: u64,
    messages_sent: u64,
}

/// Times `runs` seeded DBF degree-4 paper experiments one at a time.
fn dbf_timing_leg(runs: usize) -> TimingLeg {
    let mut leg = TimingLeg {
        events_total: 0,
        queue_high_water: 0,
        elapsed_ns_total: 0,
        events_per_sec: Vec::with_capacity(runs),
        payloads_shared: 0,
        messages_sent: 0,
    };
    for i in 0..runs {
        let cfg = ExperimentConfig::paper(ProtocolKind::Dbf, DEGREE, point_seed(DEGREE, i));
        let start = Instant::now();
        let result = run(&cfg).unwrap_or_else(|e| panic!("DBF run {i} failed: {e}"));
        let elapsed_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let events = result.stats.events_processed;
        leg.events_total += events;
        leg.queue_high_water = leg.queue_high_water.max(result.stats.queue_high_water);
        leg.elapsed_ns_total += elapsed_ns;
        leg.events_per_sec
            .push(events as f64 / (elapsed_ns.max(1) as f64 / 1e9));
        leg.payloads_shared += result.stats.control_payloads_shared;
        leg.messages_sent += result.stats.control_messages_sent;
    }
    leg
}

struct FanoutLeg {
    protocol: &'static str,
    payloads_shared: u64,
    messages_sent: u64,
}

/// One seeded paper run for `protocol`, reporting the engine's
/// payload-sharing counters (deterministic — no wall clock involved).
fn fanout_leg(protocol: ProtocolKind) -> FanoutLeg {
    let cfg = ExperimentConfig::paper(protocol, DEGREE, point_seed(DEGREE, 0));
    let result = run(&cfg).unwrap_or_else(|e| panic!("{protocol} fan-out run failed: {e}"));
    FanoutLeg {
        protocol: protocol.label(),
        payloads_shared: result.stats.control_payloads_shared,
        messages_sent: result.stats.control_messages_sent,
    }
}

struct CounterLeg {
    name: &'static str,
    events_total: u64,
    queue_high_water: u64,
    messages_sent: u64,
    stale_timer_pops: u64,
}

/// [`COUNTER_RUNS`] seeded degree-4 paper runs of `protocol`; only exact
/// counts.
fn counter_leg(protocol: ProtocolKind, name: &'static str) -> CounterLeg {
    let mut leg = CounterLeg {
        name,
        events_total: 0,
        queue_high_water: 0,
        messages_sent: 0,
        stale_timer_pops: 0,
    };
    for i in 0..COUNTER_RUNS {
        let cfg = ExperimentConfig::paper(protocol, DEGREE, point_seed(DEGREE, i));
        let result = run(&cfg).unwrap_or_else(|e| panic!("{protocol} run {i} failed: {e}"));
        leg.events_total += result.stats.events_processed;
        leg.queue_high_water = leg.queue_high_water.max(result.stats.queue_high_water);
        leg.messages_sent += result.stats.control_messages_sent;
        leg.stale_timer_pops += result.stats.stale_timer_pops;
    }
    leg
}

/// Median of an unsorted sample (mean of the middle pair when even).
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Reads the integer field `key` of the committed baseline `text`.
/// Unlike telemetry JSONL, the committed file is pretty-printed, so the
/// parser here tolerates whitespace between the colon and the number.
fn baseline_field(text: &str, key: &str) -> Option<u64> {
    let quoted = format!("\"{key}\"");
    let start = text.find(&quoted)? + quoted.len();
    let rest = text[start..].trim_start_matches(|c: char| c == ':' || c.is_whitespace());
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    rest[..end].parse().ok()
}

fn main() {
    let mut runs: usize = 30;
    let mut smoke = false;
    let mut runs_seen = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--smoke" {
            smoke = true;
        } else if arg == "--progress" {
            // Accepted for uniformity with the sweep binaries.
        } else if arg == "--jobs" {
            let _ = args.next();
        } else if arg.strip_prefix("--jobs=").is_some() {
            // Ignored: timing runs alone.
        } else if !runs_seen {
            runs = arg
                .parse()
                .unwrap_or_else(|_| panic!("usage: bench_hotpath [--smoke] [runs] [--jobs N]"));
            runs_seen = true;
        } else {
            panic!("usage: bench_hotpath [--smoke] [runs] [--jobs N]");
        }
    }
    if smoke {
        runs = 3;
    }
    println!("bench_hotpath — DBF d{DEGREE} timing ({runs} runs) + counter legs\n");

    let timing = dbf_timing_leg(runs);
    let eps_median = median(&timing.events_per_sec);
    let eps_min = timing
        .events_per_sec
        .iter()
        .copied()
        .fold(f64::MAX, f64::min);
    let eps_max = timing
        .events_per_sec
        .iter()
        .copied()
        .fold(0.0_f64, f64::max);
    let shared_pct = 100.0 * timing.payloads_shared as f64 / timing.messages_sent.max(1) as f64;
    println!("DBF timing leg:");
    println!("  events processed   {:>12}", timing.events_total);
    println!(
        "  wall time          {:>12.3} s",
        timing.elapsed_ns_total as f64 / 1e9
    );
    println!("  events/sec median  {eps_median:>12.0}  (min {eps_min:.0}, max {eps_max:.0})");
    println!(
        "  payload fan-out    {:>12} of {} control sends shared an allocation ({shared_pct:.1}%)",
        timing.payloads_shared, timing.messages_sent
    );

    let fanout: Vec<FanoutLeg> = [ProtocolKind::Spf, ProtocolKind::Dual, ProtocolKind::Rip]
        .into_iter()
        .map(fanout_leg)
        .collect();
    println!("\nFan-out leg (payload sharing, one seeded run each):");
    for leg in &fanout {
        println!(
            "  {:<5} {:>8} of {:>8} control sends shared an allocation ({:.1}%)",
            leg.protocol,
            leg.payloads_shared,
            leg.messages_sent,
            100.0 * leg.payloads_shared as f64 / leg.messages_sent.max(1) as f64
        );
    }

    let legs: Vec<CounterLeg> = COUNTER_LEGS
        .into_iter()
        .map(|(protocol, name)| counter_leg(protocol, name))
        .collect();
    println!("\nCounter legs ({COUNTER_RUNS} seeded runs each):");
    println!("  leg      events  control msgs  high water  stale pops");
    for leg in &legs {
        println!(
            "  {:<5} {:>9} {:>13} {:>11} {:>11}",
            leg.name,
            leg.events_total,
            leg.messages_sent,
            leg.queue_high_water,
            leg.stale_timer_pops
        );
    }

    let baseline_text =
        std::fs::read_to_string("results/bench_hotpath_baseline.json").unwrap_or_default();
    let field = |key: &str| baseline_field(&baseline_text, key);
    let baseline = field("events_per_sec_median");
    let regressed = baseline.is_some_and(|b| eps_median < REGRESSION_FLOOR * b as f64);
    if let Some(b) = baseline {
        println!(
            "\nbaseline events/sec median: {b} (gate: fail below {:.0})",
            REGRESSION_FLOOR * b as f64
        );
    }
    let mut counters: Vec<(String, u64, String)> = Vec::new();
    for leg in &legs {
        for (what, measured, key) in [
            ("events processed", leg.events_total, "events_total"),
            ("control messages", leg.messages_sent, "control_messages"),
            (
                "calendar high water",
                leg.queue_high_water,
                "queue_high_water",
            ),
            ("stale timer pops", leg.stale_timer_pops, "stale_timer_pops"),
        ] {
            let name = leg.name;
            counters.push((
                format!("{name} {what}"),
                measured,
                format!("counter_{name}_{key}"),
            ));
        }
    }
    if field("counter_runs") == Some(runs as u64) {
        counters.extend([
            (
                "DBF events processed".into(),
                timing.events_total,
                "counter_events_total".into(),
            ),
            (
                "DBF calendar high water".into(),
                timing.queue_high_water,
                "counter_queue_high_water".into(),
            ),
        ]);
    }
    let mut counters_rose = false;
    for (name, measured, key) in counters {
        let Some(committed) = field(&key) else {
            continue;
        };
        let verdict = match measured.cmp(&committed) {
            std::cmp::Ordering::Greater => "ROSE: fails the ratchet",
            std::cmp::Ordering::Less => "fell: re-bless the committed count",
            std::cmp::Ordering::Equal => "unchanged",
        };
        println!("counter {name}: {measured} (committed {committed}, {verdict})");
        counters_rose |= measured > committed;
    }

    let fanout_json: Vec<String> = fanout
        .iter()
        .map(|leg| {
            format!(
                "    {{\"protocol\": \"{}\", \"control_messages_sent\": {}, \
                 \"control_payloads_shared\": {}}}",
                leg.protocol, leg.messages_sent, leg.payloads_shared
            )
        })
        .collect();
    let legs_json: Vec<String> = legs
        .iter()
        .map(|leg| {
            format!(
                "\"{}\": {{\n    \"runs\": {COUNTER_RUNS},\n    \"events_total\": {},\n    \
                 \"queue_high_water\": {},\n    \"control_messages_sent\": {},\n    \
                 \"stale_timer_pops\": {}\n  }}",
                leg.name,
                leg.events_total,
                leg.queue_high_water,
                leg.messages_sent,
                leg.stale_timer_pops
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"runs\": {runs},\n  \"smoke\": {smoke},\n  \"degree\": \"{DEGREE}\",\n  \
         \"dbf\": {{\n    \"events_total\": {},\n    \"queue_high_water\": {},\n    \
         \"elapsed_ns_total\": {},\n    \
         \"events_per_sec_median\": {:.0},\n    \"events_per_sec_min\": {:.0},\n    \
         \"events_per_sec_max\": {:.0},\n    \"control_messages_sent\": {},\n    \
         \"control_payloads_shared\": {}\n  }},\n  \
         \"fanout\": [\n{}\n  ],\n  \
         {},\n  \
         \"baseline_events_per_sec_median\": {},\n  \"regressed\": {regressed},\n  \
         \"counters_rose\": {counters_rose}\n}}",
        timing.events_total,
        timing.queue_high_water,
        timing.elapsed_ns_total,
        eps_median,
        eps_min,
        eps_max,
        timing.messages_sent,
        timing.payloads_shared,
        fanout_json.join(",\n"),
        legs_json.join(",\n  "),
        baseline.map_or_else(|| "null".to_string(), |b| b.to_string()),
    );
    append_record(RECORD_FILE, &json).unwrap_or_else(|e| panic!("append to {RECORD_FILE}: {e}"));
    println!("appended a record to {RECORD_FILE}");

    if regressed {
        eprintln!(
            "REGRESSION: events/sec median {eps_median:.0} is more than 20% below the \
             committed baseline {}",
            baseline.unwrap_or(0)
        );
    }
    if counters_rose {
        eprintln!(
            "REGRESSION: an exact work counter rose above its committed count \
             (results/bench_hotpath_baseline.json)"
        );
    }
    if regressed || counters_rose {
        std::process::exit(1);
    }
}
