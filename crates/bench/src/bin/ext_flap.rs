//! Extension E4: route-flap damping under a flapping link.
//!
//! The paper's introduction cites Bush/Griffin/Mao and Mao et al.: flap
//! damping suppresses noisy routes but also punishes the path exploration
//! that *normal* convergence produces, extending unavailability after the
//! network has physically stabilized. This experiment flaps one on-path
//! link several times and compares BGP-3 with damping off vs on.

use bench::{point_seed, sweep_args, SweepObserver};
use bgp::{Bgp, BgpConfig, FlapConfig};
use convergence::experiment::ProtocolFactory;
use convergence::failure::FailurePlan;
use convergence::prelude::*;
use convergence::report::{fmt_f64, Table};
use netsim::time::SimDuration;
use topology::mesh::MeshDegree;

fn bgp3_with_damping() -> ProtocolFactory {
    ProtocolFactory::new(|| {
        Box::new(
            Bgp::with_config(BgpConfig {
                flap_damping: Some(FlapConfig::aggressive()),
                ..BgpConfig::bgp3()
            })
            .expect("valid config"),
        )
    })
}

fn main() {
    let args = sweep_args();
    let runs = args.runs;
    let mut observer = SweepObserver::new("ext_flap", args);
    println!("Extension E4 — route-flap damping vs a flapping link, {runs} runs/point");
    println!("(BGP-3; 3 flap cycles of 2 s down / 3 s up, then stable)\n");

    let flapping = FailurePlan::FlappingLink {
        cycles: 3,
        down: SimDuration::from_secs(2),
        up: SimDuration::from_secs(3),
    };
    let mut table = Table::new(
        [
            "degree",
            "damping",
            "delivery %",
            "no-route",
            "rtconv(s)",
            "msgs",
        ]
        .map(String::from)
        .to_vec(),
    );
    for degree in [MeshDegree::D4, MeshDegree::D6] {
        for (label, factory) in [
            ("off", None),
            ("rfc2439 (10s half-life)", Some(bgp3_with_damping())),
        ] {
            let mut cfg = ExperimentConfig::paper(ProtocolKind::Bgp3, degree, 0);
            cfg.failure = flapping.clone();
            cfg.traffic.tail = SimDuration::from_secs(60);
            cfg.protocol_override = factory;
            let outcome = observer.sweep(
                &format!("BGP-3/d{degree}/damping-{label}"),
                &cfg,
                runs,
                point_seed(degree, 0),
                summarize_streaming,
            );
            let point = aggregate_point(&outcome.completed).expect("nonempty sweep");
            table.push_row(vec![
                degree.to_string(),
                label.to_string(),
                format!("{:.2}", 100.0 * point.delivery_ratio.mean),
                fmt_f64(point.drops_no_route.mean),
                fmt_f64(point.routing_convergence_s.mean),
                fmt_f64(point.control_messages.mean),
            ]);
            eprintln!("  degree {degree} damping {label} done");
        }
    }
    println!("{}", table.render());
    println!("expected: damping cuts update churn but *extends* unavailability —");
    println!("suppressed routes stay unusable after the link stops flapping, so");
    println!("delivery is worse with damping on (the Mao et al. effect).\n");
    let path = bench::results_dir().join("ext_flap.csv");
    table.write_csv(&path).expect("write CSV");
    println!("wrote {}", path.display());
    let tpath = observer.finish().expect("write telemetry");
    println!("wrote {}", tpath.display());
}
