//! Ablation A5: the classic hold-down timer (paper §2's family of
//! "achieve loop-free routing through delaying routing update
//! propagation").
//!
//! With hold-down, a router that loses a route refuses all news about the
//! destination for a fixed window — trading availability for stability.
//! RIP is already nearly loop-free via fast poison; hold-down's remaining
//! effect should be almost purely additional packet loss.

use bench::{sweep_args, SweepObserver};
use convergence::experiment::ProtocolFactory;
use convergence::protocols::ProtocolKind;
use convergence::report::{fmt_f64, Table};
use netsim::time::SimDuration;
use rip::{Rip, RipConfig};
use topology::mesh::MeshDegree;

fn rip_with_holddown(secs: u64) -> ProtocolFactory {
    ProtocolFactory::new(move || {
        Box::new(
            Rip::with_config(RipConfig {
                hold_down: Some(SimDuration::from_secs(secs)),
                ..RipConfig::default()
            })
            .expect("valid config"),
        )
    })
}

fn main() {
    let args = sweep_args();
    let runs = args.runs;
    let mut observer = SweepObserver::new("ablation_holddown", args);
    println!("Ablation A5 — RIP hold-down timer, {runs} runs/point\n");

    let mut table = Table::new(
        [
            "degree",
            "hold-down",
            "no-route",
            "ttl-expired",
            "fwdconv(s)",
            "rtconv(s)",
        ]
        .map(String::from)
        .to_vec(),
    );
    for degree in [MeshDegree::D3, MeshDegree::D4, MeshDegree::D6] {
        for (label, factory) in [
            ("off", None),
            ("15 s", Some(rip_with_holddown(15))),
            ("60 s", Some(rip_with_holddown(60))),
        ] {
            let point = observer.point(ProtocolKind::Rip, degree, |cfg| {
                cfg.protocol_override = factory;
            });
            table.push_row(vec![
                degree.to_string(),
                label.to_string(),
                fmt_f64(point.drops_no_route.mean),
                fmt_f64(point.ttl_expirations.mean),
                fmt_f64(point.forwarding_convergence_s.mean),
                fmt_f64(point.routing_convergence_s.mean),
            ]);
        }
        eprintln!("  degree {degree} done");
    }
    println!("{}", table.render());
    println!("expected: hold-down adds its full window to the outage (drops grow");
    println!("roughly by window x rate) while buying nothing — RIP's poison wave");
    println!("already prevents the loops hold-down was invented for.\n");
    let path = bench::results_dir().join("ablation_holddown.csv");
    table.write_csv(&path).expect("write CSV");
    println!("wrote {}", path.display());
    let tpath = observer.finish().expect("write telemetry");
    println!("wrote {}", tpath.display());
}
