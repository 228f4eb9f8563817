//! Extension E9: routing convergence when links are *lossy* instead of
//! merely cut.
//!
//! The paper's failure model is binary: a link is up or down. Real
//! outages often start as degradation — a flapping optical or congested
//! interface that drops a fraction of frames long before (or without
//! ever) going down. This experiment repeats the paper's single-link
//! failure while every link additionally drops a fixed fraction of all
//! frames, and asks how each protocol's convergence machinery copes:
//! RIP/DBF updates ride datagrams and simply vanish, while BGP's
//! TCP-style sessions turn loss into retransmission delay.
//!
//! Like every sweep, runs execute through the hardened sweep driver: a
//! seed whose random draw yields no usable scenario is retried with a
//! derived reseed, and anything unsalvageable is reported, not panicked
//! over; the "failed runs" column counts those slots.

use bench::{point_seed, sweep_args, SweepObserver};
use convergence::prelude::*;
use convergence::report::{fmt_f64, Table};
use topology::mesh::MeshDegree;

fn main() {
    let args = sweep_args();
    let runs = args.runs;
    let mut observer = SweepObserver::new("ext_lossy", args);
    println!("Extension E9 — convergence under lossy links, {runs} runs/point");
    println!("(paper single-link failure at degree 4, plus uniform frame loss)\n");

    let mut table = Table::new(
        [
            "loss %",
            "protocol",
            "delivery %",
            "impaired",
            "no-route",
            "rtconv(s)",
            "ctl-rexmit",
            "failed runs",
        ]
        .map(String::from)
        .to_vec(),
    );
    let degree = MeshDegree::D4;
    for loss in [0.0, 0.05, 0.10, 0.20] {
        for protocol in [ProtocolKind::Rip, ProtocolKind::Dbf, ProtocolKind::Bgp3] {
            let mut cfg = ExperimentConfig::paper(protocol, degree, 0);
            if loss > 0.0 {
                cfg.link.impairment = Impairment::lossy(loss);
            }
            let sweep_label = format!("{}/d{degree}/loss-{:.0}", protocol.label(), loss * 100.0);
            let outcome = observer.sweep(
                &sweep_label,
                &cfg,
                runs,
                point_seed(degree, 0),
                summarize_streaming,
            );
            let completed = outcome.completed.len().max(1) as f64;
            let retransmits = outcome
                .telemetry
                .iter()
                .map(|t| t.control_retransmits)
                .sum::<u64>() as f64
                / completed;
            let point = aggregate_point(&outcome.completed).expect("nonempty sweep");
            table.push_row(vec![
                format!("{:.0}", loss * 100.0),
                protocol.to_string(),
                format!("{:.2}", 100.0 * point.delivery_ratio.mean),
                fmt_f64(
                    outcome
                        .completed
                        .iter()
                        .map(|s| s.drops.impaired as f64)
                        .sum::<f64>()
                        / completed,
                ),
                fmt_f64(point.drops_no_route.mean),
                fmt_f64(point.routing_convergence_s.mean),
                fmt_f64(retransmits),
                outcome.failed.len().to_string(),
            ]);
            eprintln!("  loss {:.0}% {protocol} done", loss * 100.0);
        }
    }
    println!("{}", table.render());
    println!("expected: delivery falls with per-hop loss for every protocol, but");
    println!("convergence degrades unevenly — RIP/DBF lose updates outright and");
    println!("lean on periodic refresh, while BGP-3 converges at nearly the clean");
    println!("pace at the cost of control retransmissions.\n");
    let path = bench::results_dir().join("ext_lossy.csv");
    table.write_csv(&path).expect("write CSV");
    println!("wrote {}", path.display());
    let tpath = observer.finish().expect("write telemetry");
    println!("wrote {}", tpath.display());
}
