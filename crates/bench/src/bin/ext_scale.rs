//! Extension E5 (paper §6 future work): larger network sizes.
//!
//! Repeats the single-failure experiment on meshes from the paper's 7×7
//! up to 15×15, checking whether the delivery conclusions survive scale
//! (longer paths, more destinations per update, longer convergence
//! chains).
//!
//! Degree 8 keeps every pair inside the distance-vector metric horizon:
//! RIP/DBF saturate at 16 hops (RFC 2453's design diameter), so a
//! degree-4 13×13 grid — diameter 24 — would leave far corners
//! legitimately unreachable. With both diagonals the 15×15 diameter is
//! 14 hops.

use bench::{sweep_args, SweepObserver, BASE_SEED};
use convergence::experiment::TopologySpec;
use convergence::prelude::*;
use convergence::report::{fmt_f64, Table};
use topology::mesh::MeshDegree;

fn main() {
    let args = sweep_args();
    let mut observer = SweepObserver::new("ext_scale", args);
    let runs = args.runs.min(30);
    println!("Extension E5 — mesh size scaling (degree 8), {runs} runs/point\n");

    let mut table = Table::new(
        [
            "mesh",
            "nodes",
            "protocol",
            "delivery %",
            "no-route",
            "fwdconv(s)",
            "rtconv(s)",
        ]
        .map(String::from)
        .to_vec(),
    );
    for size in [7usize, 10, 13, 15] {
        for protocol in [ProtocolKind::Rip, ProtocolKind::Dbf, ProtocolKind::Bgp3] {
            let mut cfg = ExperimentConfig::paper(protocol, MeshDegree::D8, 0);
            cfg.topology = TopologySpec::Mesh {
                rows: size,
                cols: size,
                degree: MeshDegree::D8,
            };
            let outcome = observer.sweep(
                &format!("{}/mesh-{size}x{size}", protocol.label()),
                &cfg,
                runs,
                BASE_SEED + size as u64 * 1000,
                summarize_streaming,
            );
            let point = aggregate_point(&outcome.completed).expect("nonempty sweep");
            table.push_row(vec![
                format!("{size}x{size}"),
                (size * size).to_string(),
                protocol.label().to_string(),
                format!("{:.2}", 100.0 * point.delivery_ratio.mean),
                fmt_f64(point.drops_no_route.mean),
                fmt_f64(point.forwarding_convergence_s.mean),
                fmt_f64(point.routing_convergence_s.mean),
            ]);
            eprintln!("  {size}x{size} {protocol} done");
        }
    }
    println!("{}", table.render());
    println!("expected: the protocol ordering (RIP worst, DBF/BGP-3 near-full");
    println!("delivery) is scale-invariant; absolute convergence times grow");
    println!("with the path lengths.\n");
    let path = bench::results_dir().join("ext_scale.csv");
    table.write_csv(&path).expect("write CSV");
    println!("wrote {}", path.display());
    let tpath = observer.finish().expect("write telemetry");
    println!("wrote {}", tpath.display());
}
