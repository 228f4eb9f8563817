//! Extension E8: convergence under data-plane congestion.
//!
//! The paper's 20 pkt/s flow leaves link queues empty, so routing messages
//! never wait behind data. Real networks converge *while loaded*: control
//! and data share the same drop-tail queues, so congestion can delay — or
//! drop — the very updates that would end the congestion. This experiment
//! raises the offered load toward link capacity and watches what happens
//! to convergence, separately for a datagram-signaled protocol (DBF, whose
//! updates can be lost) and a reliably-signaled one (BGP-3, immune to
//! queue drops by its TCP-like session).

use bench::{point_seed, sweep_args, SweepObserver};
use convergence::prelude::*;
use convergence::report::{fmt_f64, Table};
use topology::mesh::MeshDegree;

fn main() {
    let args = sweep_args();
    let mut observer = SweepObserver::new("ext_load", args);
    let runs = args.runs.min(30);
    println!("Extension E8 — convergence under load (degree 4), {runs} runs/point");
    println!("(10 Mb/s links carry ~1250 x 1000B pkt/s; 5 flows share the mesh)\n");

    let mut table = Table::new(
        [
            "rate/flow (pps)",
            "protocol",
            "delivery %",
            "no-route",
            "queue drops",
            "ctrl lost",
            "rtconv(s)",
        ]
        .map(String::from)
        .to_vec(),
    );
    for rate in [20u64, 200, 400] {
        for protocol in [ProtocolKind::Dbf, ProtocolKind::Bgp3] {
            let mut cfg = ExperimentConfig::paper(protocol, MeshDegree::D4, 0);
            cfg.traffic.rate_pps = rate;
            cfg.traffic.flows = 5;
            let outcome = observer.sweep(
                &format!("{}/d4/rate-{rate}", protocol.label()),
                &cfg,
                runs,
                point_seed(MeshDegree::D4, 0),
                |r| Ok((summarize_streaming(r)?, r.stats.control_messages_lost)),
            );
            let (summaries, lost): (Vec<_>, Vec<u64>) = outcome.completed.into_iter().unzip();
            let completed = summaries.len().max(1) as f64;
            let point = aggregate_point(&summaries).expect("nonempty sweep");
            let queue_drops = summaries
                .iter()
                .map(|s| s.drops.queue_overflow as f64)
                .sum::<f64>()
                / completed;
            table.push_row(vec![
                rate.to_string(),
                protocol.label().to_string(),
                format!("{:.2}", 100.0 * point.delivery_ratio.mean),
                fmt_f64(point.drops_no_route.mean),
                fmt_f64(queue_drops),
                fmt_f64(lost.iter().sum::<u64>() as f64 / completed),
                fmt_f64(point.routing_convergence_s.mean),
            ]);
            eprintln!("  rate {rate} {protocol} done");
        }
    }
    println!("{}", table.render());
    println!("expected: as shared queues fill, datagram-signaled DBF starts losing");
    println!("updates (ctrl lost > 0) and its convergence/drops degrade, while");
    println!("BGP-3's reliable session keeps signaling intact at the same load.\n");
    let path = bench::results_dir().join("ext_load.csv");
    table.write_csv(&path).expect("write CSV");
    println!("wrote {}", path.display());
    let tpath = observer.finish().expect("write telemetry");
    println!("wrote {}", tpath.display());
}
