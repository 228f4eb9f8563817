//! Extension E2 (paper §6 future work): multiple sender/receiver pairs,
//! multiple simultaneous link failures, and whole-router failures.

use bench::{sweep_args, SweepObserver};
use convergence::failure::FailurePlan;
use convergence::protocols::ProtocolKind;
use convergence::report::{fmt_f64, Table};
use topology::mesh::MeshDegree;

type Customizer = Box<dyn Fn(&mut convergence::experiment::ExperimentConfig)>;

fn main() {
    let args = sweep_args();
    let runs = args.runs;
    let mut observer = SweepObserver::new("ext_multi", args);
    println!("Extension E2 — multiple flows / failures, {runs} runs/point\n");

    let protocols = [ProtocolKind::Dbf, ProtocolKind::Bgp3];
    let mut table = Table::new(
        [
            "scenario",
            "degree",
            "protocol",
            "delivery",
            "no-route",
            "ttl",
            "rtconv(s)",
        ]
        .map(String::from)
        .to_vec(),
    );
    for degree in [MeshDegree::D4, MeshDegree::D6] {
        for protocol in protocols {
            let scenarios: [(&str, Customizer); 4] = [
                ("baseline", Box::new(|_| {})),
                (
                    "5 flows",
                    Box::new(|cfg| {
                        cfg.traffic.flows = 5;
                    }),
                ),
                (
                    "2 link failures",
                    Box::new(|cfg| {
                        cfg.failure = FailurePlan::MultipleLinks { count: 2 };
                    }),
                ),
                (
                    "router failure",
                    Box::new(|cfg| {
                        cfg.failure = FailurePlan::NodeOnPath;
                    }),
                ),
            ];
            for (label, customize) in &scenarios {
                let point = observer.point(protocol, degree, customize);
                table.push_row(vec![
                    (*label).to_string(),
                    degree.to_string(),
                    protocol.label().to_string(),
                    format!("{:.4}", point.delivery_ratio.mean),
                    fmt_f64(point.drops_no_route.mean),
                    fmt_f64(point.ttl_expirations.mean),
                    fmt_f64(point.routing_convergence_s.mean),
                ]);
            }
            eprintln!("  degree {degree} {protocol} done");
        }
    }
    println!("{}", table.render());
    println!("expected: richer connectivity keeps delivery high even under");
    println!("compound failures; a router failure hurts more than any one link.\n");
    let path = bench::results_dir().join("ext_multi.csv");
    table.write_csv(&path).expect("write CSV");
    println!("wrote {}", path.display());
    let tpath = observer.finish().expect("write telemetry");
    println!("wrote {}", tpath.display());
}
