//! Extension E7: the paper's §4 design factors, measured directly.
//!
//! §4 identifies three factors governing delivery during convergence:
//! (1) the *path switch-over period* — how long a router has no next hop;
//! (2) the probability the chosen alternate is *valid*; (3) the failure-
//! information propagation time. Figures 3–7 observe their consequences;
//! this table measures the factors themselves: the longest no-route window
//! anywhere for the flow's destination, and the mean path stretch of
//! delivered packets (valid-but-suboptimal alternates show up as stretch
//! just above 1).

use bench::{sweep_args, SweepObserver};
use convergence::protocols::ProtocolKind;
use convergence::report::{fmt_f64, Table};
use topology::mesh::MeshDegree;

fn main() {
    let args = sweep_args();
    let runs = args.runs;
    let mut observer = SweepObserver::new("ext_factors", args);
    println!(
        "Extension E7 — §4 factors: switch-over windows and path stretch, {runs} runs/point\n"
    );

    let mut table = Table::new(
        [
            "degree",
            "protocol",
            "max switch-over (s)",
            "mean stretch",
            "transient paths",
        ]
        .map(String::from)
        .to_vec(),
    );
    for degree in [MeshDegree::D3, MeshDegree::D4, MeshDegree::D6] {
        for protocol in ProtocolKind::PAPER {
            let point = observer.point(protocol, degree, |_| {});
            table.push_row(vec![
                degree.to_string(),
                protocol.label().to_string(),
                fmt_f64(point.max_switchover_s.mean),
                format!("{:.4}", point.mean_stretch.mean),
                fmt_f64(point.transient_paths.mean),
            ]);
        }
        eprintln!("  degree {degree} done");
    }
    println!("{}", table.render());
    println!("expected (§4.1): RIP's switch-over window dwarfs the others at every");
    println!("degree — it keeps no alternate-path state; DBF/BGP windows shrink to");
    println!("~0 as connectivity supplies instantly-valid alternates. Stretch just");
    println!("above 1 marks valid-but-suboptimal transient paths (§4.2).\n");
    let path = bench::results_dir().join("ext_factors.csv");
    table.write_csv(&path).expect("write CSV");
    println!("wrote {}", path.display());
    let tpath = observer.finish().expect("write telemetry");
    println!("wrote {}", tpath.display());
}
