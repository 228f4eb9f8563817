//! Figure 4: packet drops due to TTL expiration (transient forwarding
//! loops) vs. node degree.
//!
//! Paper shape to reproduce: RIP has none (it drops instead of looping);
//! BGP has the most, roughly the MRAI ratio (~10×) above BGP-3; loops
//! disappear in densely connected meshes.

use bench::{sweep_args, SweepObserver};
use convergence::protocols::ProtocolKind;
use convergence::report::{fmt_f64, Table};
use topology::mesh::MeshDegree;

fn main() {
    let args = sweep_args();
    let runs = args.runs;
    let mut observer = SweepObserver::new("fig4_ttl", args);
    println!("Figure 4 — TTL expirations during convergence, {runs} runs/point\n");

    let mut ttl = Table::new(
        std::iter::once("degree".to_string())
            .chain(ProtocolKind::PAPER.iter().map(|p| p.label().to_string()))
            .collect(),
    );
    let mut looped = Table::new(
        std::iter::once("degree".to_string())
            .chain(ProtocolKind::PAPER.iter().map(|p| p.label().to_string()))
            .collect(),
    );
    for degree in MeshDegree::ALL {
        let mut ttl_row = vec![degree.to_string()];
        let mut loop_row = vec![degree.to_string()];
        for protocol in ProtocolKind::PAPER {
            let point = observer.point(protocol, degree, |_| {});
            ttl_row.push(fmt_f64(point.ttl_expirations.mean));
            loop_row.push(fmt_f64(point.looped_packets.mean));
        }
        ttl.push_row(ttl_row);
        looped.push_row(loop_row);
        eprintln!("  degree {degree} done");
    }
    println!("TTL expirations (the figure's y-axis):");
    println!("{}", ttl.render());
    println!("packets that entered any forwarding loop (supporting metric):");
    println!("{}", looped.render());
    println!("expected shape: RIP column all zeros; BGP >> BGP-3 (≈ MRAI ratio);");
    println!("all columns ~0 once the mesh is dense.\n");

    let path = bench::results_dir().join("fig4_ttl.csv");
    ttl.write_csv(&path).expect("write CSV");
    println!("wrote {}", path.display());
    let tpath = observer.finish().expect("write telemetry");
    println!("wrote {}", tpath.display());
}
