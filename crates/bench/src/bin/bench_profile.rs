//! Per-phase time profile of the simulation engine, one row per paper
//! protocol.
//!
//! Runs seeded paper experiments with a *wall-clock* span recorder
//! attached (the same instrumentation the simulator drives with sim time
//! during normal runs) and reports where the time goes: event dispatch,
//! protocol processing, trace recording, and metric folding. Exclusive
//! attribution means the four phases partition the instrumented time —
//! a phase never counts its children.
//!
//! Each row also gives the exact event count and how many of those events
//! were stale timer pops (cancelled or superseded timers, which do no
//! work), so the tombstone share of "events" is a measured count.
//!
//! ```text
//! bench_profile [--smoke] [runs] [--jobs N]
//! ```
//!
//! `--smoke` profiles a single degree-4 run per protocol (the CI mode);
//! the default is 5 runs. `--jobs` is accepted for interface uniformity
//! and ignored — attributing wall time requires running alone. Writes
//! `results/bench_profile.json`.

use std::time::Instant;

use bench::point_seed;
use convergence::prelude::*;
use convergence::report::Table;
use obs::span::{Recorder, EVENT_DISPATCH, METRIC_FOLDING, PROTOCOL_PROCESSING, TRACE_RECORDING};
use topology::mesh::MeshDegree;

const PHASES: [&str; 4] = [
    EVENT_DISPATCH,
    PROTOCOL_PROCESSING,
    TRACE_RECORDING,
    METRIC_FOLDING,
];

struct Profile {
    protocol: &'static str,
    /// (calls, exclusive ns) per entry of [`PHASES`].
    phases: Vec<(u64, u64)>,
    /// Events processed, stale timer pops included.
    events: u64,
    stale_timer_pops: u64,
}

fn wall_recorder() -> Box<Recorder> {
    let start = Instant::now();
    Box::new(Recorder::external(Box::new(move || {
        u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    })))
}

fn profile_protocol(protocol: ProtocolKind, degree: MeshDegree, runs: usize) -> Profile {
    let mut recorder = wall_recorder();
    let (mut events, mut stale_timer_pops) = (0, 0);
    for i in 0..runs {
        let cfg = ExperimentConfig::paper(protocol, degree, point_seed(degree, i));
        let (result, returned) = run_observed(&cfg, Some(recorder))
            .unwrap_or_else(|e| panic!("{protocol} run {i} failed: {e}"));
        recorder = returned.expect("recorder returned on success");
        events += result.stats.events_processed;
        stale_timer_pops += result.stats.stale_timer_pops;
        recorder.enter(METRIC_FOLDING);
        let summary =
            summarize_streaming(&result).unwrap_or_else(|e| panic!("{protocol} run {i}: {e}"));
        recorder.exit();
        assert!(summary.injected > 0, "profiled run injected no packets");
    }
    Profile {
        protocol: protocol.label(),
        phases: PHASES
            .iter()
            .map(|name| (recorder.calls(name), recorder.exclusive_ns(name)))
            .collect(),
        events,
        stale_timer_pops,
    }
}

fn main() {
    let mut runs: usize = 5;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    let mut runs_seen = false;
    while let Some(arg) = args.next() {
        if arg == "--smoke" {
            smoke = true;
        } else if arg == "--progress" {
            // Accepted for uniformity with the sweep binaries; profiling
            // has no sweep to report on.
        } else if arg == "--jobs" {
            let _ = args.next();
        } else if arg.strip_prefix("--jobs=").is_some() {
            // Ignored: see the module docs.
        } else if !runs_seen {
            runs = arg
                .parse()
                .unwrap_or_else(|_| panic!("usage: bench_profile [--smoke] [runs] [--jobs N]"));
            runs_seen = true;
        } else {
            panic!("usage: bench_profile [--smoke] [runs] [--jobs N]");
        }
    }
    if smoke {
        runs = 1;
    }
    let degree = MeshDegree::D4;
    println!("bench_profile — per-phase wall time, {runs} run(s)/protocol at degree {degree}\n");

    let profiles: Vec<Profile> = ProtocolKind::PAPER
        .iter()
        .map(|&p| {
            let profile = profile_protocol(p, degree, runs);
            eprintln!("  {} done", profile.protocol);
            profile
        })
        .collect();

    let mut table = Table::new(
        std::iter::once("protocol".to_string())
            .chain(
                PHASES
                    .iter()
                    .flat_map(|p| [format!("{p} (ms)"), format!("{p} calls")]),
            )
            .chain(["events".to_string(), "stale timer pops".to_string()])
            .collect(),
    );
    for profile in &profiles {
        let mut row = vec![profile.protocol.to_string()];
        for &(calls, ns) in &profile.phases {
            row.push(format!("{:.3}", ns as f64 / 1e6));
            row.push(calls.to_string());
        }
        row.push(profile.events.to_string());
        row.push(format!(
            "{} ({:.1}%)",
            profile.stale_timer_pops,
            100.0 * profile.stale_timer_pops as f64 / profile.events.max(1) as f64
        ));
        table.push_row(row);
    }
    println!("{}", table.render());
    println!("phases are exclusive: each row's times partition the instrumented");
    println!("span time without double counting nested phases.\n");

    let entries: Vec<String> = profiles
        .iter()
        .map(|profile| {
            let phases: Vec<String> = PHASES
                .iter()
                .zip(&profile.phases)
                .map(|(name, &(calls, ns))| {
                    format!(
                        "      {{\"name\": \"{name}\", \"calls\": {calls}, \"exclusive_ns\": {ns}}}"
                    )
                })
                .collect();
            format!(
                "    {{\"protocol\": \"{}\", \"events_processed\": {}, \"stale_timer_pops\": {}, \
                 \"phases\": [\n{}\n    ]}}",
                profile.protocol,
                profile.events,
                profile.stale_timer_pops,
                phases.join(",\n")
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"runs_per_protocol\": {runs},\n  \"degree\": \"{degree}\",\n  \"protocols\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::create_dir_all(bench::results_dir()).expect("results dir");
    let path = bench::results_dir().join("bench_profile.json");
    std::fs::write(&path, json).expect("write profile JSON");
    println!("wrote {}", path.display());
}
