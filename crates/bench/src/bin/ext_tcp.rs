//! Extension E3 (paper §6 future work): end-to-end reliable-transport
//! performance during routing convergence.
//!
//! A window-limited go-back-N transfer (the "simple flow control with a
//! maximal window size and retransmission after timeout" of the paper's
//! reference \[25\]) crosses the mesh while one on-path link fails. We
//! measure the goodput stall and retransmission cost per protocol.

use bench::{point_seed, sweep_args, SweepObserver};
use convergence::prelude::*;
use convergence::report::{fmt_f64, Table};
use netsim::time::SimDuration;
use topology::mesh::MeshDegree;

fn main() {
    let args = sweep_args();
    let mut observer = SweepObserver::new("ext_tcp", args);
    let runs = args.runs.min(50);
    println!("Extension E3 — go-back-N transfer across a failure, {runs} runs/point\n");

    let mut table = Table::new(
        [
            "degree",
            "protocol",
            "stall (s)",
            "retransmissions",
            "completion (s)",
        ]
        .map(String::from)
        .to_vec(),
    );
    for degree in [MeshDegree::D3, MeshDegree::D4, MeshDegree::D6] {
        for protocol in ProtocolKind::PAPER {
            let mut cfg = ExperimentConfig::paper(protocol, degree, 0);
            cfg.traffic.mode = TrafficMode::GoBackN(GoBackNConfig {
                total_packets: 20_000,
                ..GoBackNConfig::default()
            });
            cfg.traffic.lead = SimDuration::from_secs(2);
            cfg.traffic.tail = SimDuration::from_secs(120);
            cfg.drain = SimDuration::from_secs(300);
            let outcome = observer.sweep(
                &format!("{}/d{degree}/gbn", protocol.label()),
                &cfg,
                runs,
                point_seed(degree, 0),
                |result| {
                    let report = &result.flow_reports[0];
                    // Stall: longest gap between progress events after the
                    // failure.
                    let mut stall = 0.0f64;
                    for w in report.progress.windows(2) {
                        if w[1].0 >= result.t_fail {
                            stall = stall.max(w[1].0.saturating_since(w[0].0).as_secs_f64());
                        }
                    }
                    let done = report
                        .completed_at
                        .map(|done| done.saturating_since(result.t_fail).as_secs_f64());
                    Ok((stall, report.retransmissions as f64, done))
                },
            );
            let per_run = outcome.completed;
            let stalls: Vec<f64> = per_run.iter().map(|&(s, _, _)| s).collect();
            let retx: Vec<f64> = per_run.iter().map(|&(_, r, _)| r).collect();
            let completion: Vec<f64> = per_run.iter().filter_map(|&(_, _, c)| c).collect();
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
            table.push_row(vec![
                degree.to_string(),
                protocol.label().to_string(),
                fmt_f64(mean(&stalls)),
                fmt_f64(mean(&retx)),
                if completion.is_empty() {
                    "-".into()
                } else {
                    fmt_f64(mean(&completion))
                },
            ]);
            eprintln!("  degree {degree} {protocol} done");
        }
    }
    println!("{}", table.render());
    println!("expected: the transport hides packet loss but not time — the stall");
    println!("tracks each protocol's forwarding-path convergence delay, and");
    println!("go-back-N pays for every stall with a burst of retransmissions.\n");
    let path = bench::results_dir().join("ext_tcp.csv");
    table.write_csv(&path).expect("write CSV");
    println!("wrote {}", path.display());
    let tpath = observer.finish().expect("write telemetry");
    println!("wrote {}", tpath.display());
}
