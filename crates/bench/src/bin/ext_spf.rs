//! Extension E1 (paper §6 future work): add a link-state protocol to the
//! comparison.
//!
//! SPF floods the topology change and recomputes Dijkstra everywhere, so
//! its convergence is bounded by flooding + SPF hold-down rather than by
//! distance-vector exploration — the hypothesis the paper's future-work
//! section wants tested.

use bench::{sweep_args, SweepObserver};
use convergence::protocols::ProtocolKind;
use convergence::report::{fmt_f64, Table};
use topology::mesh::MeshDegree;

fn main() {
    let args = sweep_args();
    let runs = args.runs;
    let mut observer = SweepObserver::new("ext_spf", args);
    println!("Extension E1 — SPF and DUAL vs the paper's family, {runs} runs/point\n");

    let mut table = Table::new(
        [
            "degree", "metric", "RIP", "DBF", "BGP", "BGP-3", "SPF", "DUAL",
        ]
        .map(String::from)
        .to_vec(),
    );
    for degree in [MeshDegree::D3, MeshDegree::D4, MeshDegree::D6] {
        let points: Vec<_> = ProtocolKind::ALL
            .iter()
            .map(|&p| observer.point(p, degree, |_| {}))
            .collect();
        let mut row = |metric: &str, f: &dyn Fn(&convergence::aggregate::PointSummary) -> f64| {
            table.push_row(
                std::iter::once(degree.to_string())
                    .chain(std::iter::once(metric.to_string()))
                    .chain(points.iter().map(|p| fmt_f64(f(p))))
                    .collect(),
            );
        };
        row("no-route drops", &|p| p.drops_no_route.mean);
        row("ttl expirations", &|p| p.ttl_expirations.mean);
        row("rt convergence (s)", &|p| p.routing_convergence_s.mean);
        row("control msgs", &|p| p.control_messages.mean);
        eprintln!("  degree {degree} done");
    }
    println!("{}", table.render());
    println!("expected: SPF converges in well under a second at every degree and");
    println!("drops only the packets in flight during the detection window.\n");
    let path = bench::results_dir().join("ext_spf.csv");
    table.write_csv(&path).expect("write CSV");
    println!("wrote {}", path.display());
    let tpath = observer.finish().expect("write telemetry");
    println!("wrote {}", tpath.display());
}
