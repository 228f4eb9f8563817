//! Reproduce the paper's §5.2 trace-file analysis: find the transient
//! forwarding loops BGP creates after a failure on a sparse mesh, name the
//! routers involved, and follow the sender→receiver path as it mutates.
//!
//! ```text
//! cargo run --release --example loop_forensics [seed]
//! ```

use convergence::metrics::loops::{analyze_loops, LoopFate};
use convergence::metrics::{path_history, PathOutcome};
use convergence::prelude::*;
use topology::mesh::MeshDegree;

fn main() -> Result<(), RunError> {
    let base: u64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("seed must be a number"))
        .unwrap_or(0);

    // Hunt for a seed where BGP's MRAI produces a forwarding loop on the
    // degree-3 mesh (roughly half of the scenarios do).
    for seed in base..base + 50 {
        let cfg = ExperimentConfig::paper(ProtocolKind::Bgp, MeshDegree::D3, seed);
        let (result, trace) = run_traced(&cfg)?;
        let report = analyze_loops(&trace);
        if report.looped_packets() == 0 {
            continue;
        }
        let flow = result.flows[0];
        println!("seed {seed}: flow {} -> {}", flow.sender, flow.receiver);
        println!(
            "failed link {} -- {}\n",
            result.failure.edges[0].a, result.failure.edges[0].b
        );

        println!(
            "{} packets entered loops; {} escaped and were still delivered, {} died of TTL",
            report.looped_packets(),
            report.escaped(),
            report.ttl_killed()
        );
        for enc in report.encounters.iter().take(5) {
            println!(
                "  packet {}: revisited {} after {} hops (total {} hops, fate {:?})",
                enc.packet, enc.pivot, enc.hops_before_revisit, enc.total_hops, enc.fate
            );
        }
        let killed = report
            .encounters
            .iter()
            .filter(|e| e.fate == LoopFate::TtlKilled)
            .count();
        println!("  ({killed} TTL deaths — the paper's Figure 4 quantity)\n");

        println!("forwarding-path timeline (seconds relative to failure):");
        let history = path_history(
            &trace,
            result.graph.num_nodes(),
            flow.sender,
            flow.receiver,
            result.t_fail,
        );
        for (t, outcome) in &history.timeline {
            let rel = t.as_secs_f64() - result.t_fail.as_secs_f64();
            let desc = match outcome {
                PathOutcome::Complete(p) => format!("complete, {} hops", p.len() - 1),
                PathOutcome::Loop(p) => format!("LOOP at {:?}", p.last().unwrap()),
                PathOutcome::Broken(p) => {
                    format!("broken after {:?}", p.last().unwrap())
                }
            };
            println!("  {rel:+9.3}s  {desc}");
        }
        return Ok(());
    }
    println!("no loops in seeds {base}..{}; try another range", base + 50);
    Ok(())
}
