//! Ablation A2 (paper §4.2): how much of the valid-alternate-path
//! probability comes from split horizon with poisoned reverse?
//!
//! Runs DBF with poisoned reverse (default), simple split horizon, and no
//! split horizon at the loop-prone sparse degrees.

use bench::{sweep_args, SweepObserver};
use convergence::experiment::ProtocolFactory;
use convergence::protocols::ProtocolKind;
use convergence::report::{fmt_f64, Table};
use dbf::{Dbf, DbfConfig};
use rip::SplitHorizon;
use topology::mesh::MeshDegree;

fn dbf_with(mode: SplitHorizon) -> ProtocolFactory {
    ProtocolFactory::new(move || {
        Box::new(
            Dbf::with_config(DbfConfig {
                split_horizon: mode,
                ..DbfConfig::default()
            })
            .expect("valid config"),
        )
    })
}

fn main() {
    let args = sweep_args();
    let runs = args.runs;
    let mut observer = SweepObserver::new("ablation_split_horizon", args);
    println!("Ablation A2 — split-horizon modes (DBF), {runs} runs/point\n");

    let modes = [
        ("poison-reverse", SplitHorizon::PoisonReverse),
        ("simple", SplitHorizon::Simple),
        ("disabled", SplitHorizon::Disabled),
    ];
    let mut table = Table::new(
        [
            "degree",
            "mode",
            "no-route",
            "ttl-expired",
            "looped",
            "rtconv(s)",
        ]
        .map(String::from)
        .to_vec(),
    );
    for degree in [MeshDegree::D3, MeshDegree::D4, MeshDegree::D5] {
        for (label, mode) in modes {
            let point = observer.point(ProtocolKind::Dbf, degree, |cfg| {
                cfg.protocol_override = Some(dbf_with(mode));
            });
            table.push_row(vec![
                degree.to_string(),
                label.to_string(),
                fmt_f64(point.drops_no_route.mean),
                fmt_f64(point.ttl_expirations.mean),
                fmt_f64(point.looped_packets.mean),
                fmt_f64(point.routing_convergence_s.mean),
            ]);
        }
        eprintln!("  degree {degree} done");
    }
    println!("{}", table.render());
    println!("expected: disabling poisoned reverse admits two-hop loops, raising");
    println!("TTL expirations and convergence time in sparse meshes.\n");
    let path = bench::results_dir().join("ablation_split_horizon.csv");
    table.write_csv(&path).expect("write CSV");
    println!("wrote {}", path.display());
    let tpath = observer.finish().expect("write telemetry");
    println!("wrote {}", tpath.display());
}
