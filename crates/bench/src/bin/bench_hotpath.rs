//! Hot-path micro-harness: events/sec plus the allocation-sharing
//! counters introduced by the memory overhaul, recorded in
//! `BENCH_hotpath.json` at the repository root.
//!
//! Two legs, both fully seeded and deterministic in everything but the
//! wall clock:
//!
//! 1. **DBF timing leg** — the paper's DBF degree-4 point (the richest
//!    event mix: update storms, transient loops, TTL drops), timed one
//!    run at a time. Reports per-run events/sec (median/min/max), total
//!    events, and how many control sends shared an already-queued
//!    payload allocation (`Arc` fan-out instead of a per-link clone).
//! 2. **Fan-out leg** — one seeded paper run each for the protocols
//!    whose control traffic is neighbor-independent (SPF flooding, DUAL
//!    queries/replies, RIP requests), reporting how many sends shared a
//!    payload. DBF and BGP are structurally absent here: split horizon
//!    and per-peer update filtering make every one of their payloads
//!    neighbor-specific, so their share count is legitimately zero.
//! 3. **BGP interner leg** — a hand-built degree-4 mesh running plain
//!    BGP through convergence, a link failure, and reconvergence; the
//!    per-node [`PathInterner`](routing_core::PathInterner) hit/miss
//!    counters are read back through the simulator's protocol
//!    inspection hook and summed.
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
//! - with `counter_runs` timing runs (the smoke count), the DBF leg's
//!   exact `events_processed` total or peak calendar high water is above
//!   `counter_events_total` or `counter_queue_high_water`. These counts
//!   are the same on every machine, so any rise is a real change in the
//!   engine's work; a change that raises one on purpose re-blesses the
//!   committed count and says why. A fall is reported, not failed, so
//!   the committed counts only ever ratchet down.

use std::time::Instant;

use bench::point_seed;
use bgp::Bgp;
use convergence::prelude::*;
use netsim::ident::NodeId;
use netsim::time::SimTime;
use topology::instantiate::to_simulator_builder;
use topology::mesh::MeshDegree;

const DEGREE: MeshDegree = MeshDegree::D4;

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

struct InternerLeg {
    hits: u64,
    misses: u64,
    payloads_shared: u64,
    messages_sent: u64,
}

/// Runs plain BGP on a hand-built degree-4 mesh through convergence, a
/// link failure and reconvergence, then reads back the per-node path
/// interner counters.
fn bgp_interner_leg(seed: u64) -> InternerLeg {
    let cfg = ExperimentConfig::paper(ProtocolKind::Bgp, DEGREE, seed);
    let realized = cfg.topology.realize();
    let (mut builder, links) =
        to_simulator_builder(&realized.graph, cfg.link).expect("paper mesh instantiates");
    builder.seed(seed);
    let mut sim = builder.build().expect("paper mesh builds");
    let num_nodes = sim.num_nodes();
    for i in 0..num_nodes {
        sim.install_protocol(NodeId::new(i as u32), Box::new(Bgp::new()))
            .expect("node exists");
    }
    // Flap the lowest link after the mesh converges. Interning pays off
    // exactly here: every re-convergence walks routes back through
    // previously seen paths, so prepending hits the interner instead of
    // allocating a fresh hop sequence per flap cycle.
    let flapped = *links.values().next().expect("mesh has links");
    sim.start();
    for cycle in 0..3_u64 {
        sim.schedule_link_failure(SimTime::from_secs(120 + cycle * 120), flapped)
            .expect("link exists");
        sim.schedule_link_recovery(SimTime::from_secs(180 + cycle * 120), flapped)
            .expect("link exists");
    }
    sim.run_until(SimTime::from_secs(540));

    let mut leg = InternerLeg {
        hits: 0,
        misses: 0,
        payloads_shared: sim.stats().control_payloads_shared,
        messages_sent: sim.stats().control_messages_sent,
    };
    for i in 0..num_nodes {
        let node = NodeId::new(i as u32);
        let protocol = sim.protocol(node).expect("protocol installed");
        let bgp = protocol
            .as_any()
            .downcast_ref::<Bgp>()
            .expect("BGP installed on every node");
        let (hits, misses) = bgp.interner_stats();
        leg.hits += hits;
        leg.misses += misses;
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
    println!("bench_hotpath — DBF d{DEGREE} timing ({runs} runs) + BGP interner leg\n");

    let timing = dbf_timing_leg(runs);
    let eps_median = median(&timing.events_per_sec);
    let eps_min = timing.events_per_sec.iter().copied().fold(f64::MAX, f64::min);
    let eps_max = timing.events_per_sec.iter().copied().fold(0.0_f64, f64::max);
    let shared_pct = 100.0 * timing.payloads_shared as f64 / timing.messages_sent.max(1) as f64;
    println!("DBF timing leg:");
    println!("  events processed   {:>12}", timing.events_total);
    println!("  wall time          {:>12.3} s", timing.elapsed_ns_total as f64 / 1e9);
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

    let interner = bgp_interner_leg(point_seed(DEGREE, 0));
    let total = interner.hits + interner.misses;
    let hit_pct = 100.0 * interner.hits as f64 / total.max(1) as f64;
    println!("\nBGP interner leg (convergence + link failure + reconvergence):");
    println!("  paths interned     {:>12}  ({} hits, {} misses, {hit_pct:.1}% hit rate)",
        total, interner.hits, interner.misses);
    println!(
        "  payload fan-out    {:>12} of {} control sends shared an allocation",
        interner.payloads_shared, interner.messages_sent
    );

    let baseline_text =
        std::fs::read_to_string("results/bench_hotpath_baseline.json").unwrap_or_default();
    let field = |key: &str| baseline_field(&baseline_text, key);
    let baseline = field("events_per_sec_median");
    let regressed = baseline
        .is_some_and(|b| eps_median < REGRESSION_FLOOR * b as f64);
    if let Some(b) = baseline {
        println!("\nbaseline events/sec median: {b} (gate: fail below {:.0})",
            REGRESSION_FLOOR * b as f64);
    }
    let mut counters_rose = false;
    if field("counter_runs") == Some(runs as u64) {
        for (name, measured, key) in [
            (
                "events processed",
                timing.events_total,
                "counter_events_total",
            ),
            (
                "calendar high water",
                timing.queue_high_water,
                "counter_queue_high_water",
            ),
        ] {
            let Some(committed) = field(key) else {
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
    let json = format!(
        "{{\n  \"runs\": {runs},\n  \"smoke\": {smoke},\n  \"degree\": \"{DEGREE}\",\n  \
         \"dbf\": {{\n    \"events_total\": {},\n    \"queue_high_water\": {},\n    \
         \"elapsed_ns_total\": {},\n    \
         \"events_per_sec_median\": {:.0},\n    \"events_per_sec_min\": {:.0},\n    \
         \"events_per_sec_max\": {:.0},\n    \"control_messages_sent\": {},\n    \
         \"control_payloads_shared\": {}\n  }},\n  \
         \"fanout\": [\n{}\n  ],\n  \
         \"bgp_interner\": {{\n    \"hits\": {},\n    \"misses\": {},\n    \
         \"hit_rate_pct\": {:.2},\n    \"control_messages_sent\": {},\n    \
         \"control_payloads_shared\": {}\n  }},\n  \
         \"baseline_events_per_sec_median\": {},\n  \"regressed\": {regressed},\n  \
         \"counters_rose\": {counters_rose}\n}}\n",
        timing.events_total,
        timing.queue_high_water,
        timing.elapsed_ns_total,
        eps_median,
        eps_min,
        eps_max,
        timing.messages_sent,
        timing.payloads_shared,
        fanout_json.join(",\n"),
        interner.hits,
        interner.misses,
        hit_pct,
        interner.messages_sent,
        interner.payloads_shared,
        baseline.map_or_else(|| "null".to_string(), |b| b.to_string()),
    );
    std::fs::write("BENCH_hotpath.json", &json).expect("write BENCH_hotpath.json");
    println!("wrote BENCH_hotpath.json");

    if regressed {
        eprintln!(
            "REGRESSION: events/sec median {eps_median:.0} is more than 20% below the \
             committed baseline {}",
            baseline.unwrap_or(0)
        );
    }
    if counters_rose {
        eprintln!(
            "REGRESSION: an exact DBF work counter rose above its committed count \
             (results/bench_hotpath_baseline.json)"
        );
    }
    if regressed || counters_rose {
        std::process::exit(1);
    }
}
