//! Figure 3: packet drops due to no route vs. node degree, for RIP, DBF,
//! BGP and BGP-3, averaged over randomized runs.
//!
//! Paper shape to reproduce: drops fall as the degree rises; at degree ≥ 6
//! DBF/BGP/BGP-3 drop virtually nothing while RIP remains clearly worst.

use bench::{sweep_args, SweepObserver};
use convergence::protocols::ProtocolKind;
use convergence::report::{fmt_f64, Table};
use topology::mesh::MeshDegree;

fn main() {
    let args = sweep_args();
    let runs = args.runs;
    let mut observer = SweepObserver::new("fig3_drops", args);
    println!("Figure 3 — packet drops (no route) vs node degree, {runs} runs/point\n");

    let mut table = Table::new(
        std::iter::once("degree".to_string())
            .chain(ProtocolKind::PAPER.iter().map(|p| p.label().to_string()))
            .collect(),
    );
    for degree in MeshDegree::ALL {
        let mut row = vec![degree.to_string()];
        for protocol in ProtocolKind::PAPER {
            let point = observer.point(protocol, degree, |_| {});
            row.push(fmt_f64(point.drops_no_route.mean));
        }
        table.push_row(row);
        eprintln!("  degree {degree} done");
    }
    println!("{}", table.render());
    println!("expected shape: every column falls with degree; RIP stays highest;");
    println!("DBF/BGP/BGP-3 reach ~0 at high degree.\n");

    let path = bench::results_dir().join("fig3_drops.csv");
    table.write_csv(&path).expect("write CSV");
    println!("wrote {}", path.display());
    let tpath = observer.finish().expect("write telemetry");
    println!("wrote {}", tpath.display());
}
