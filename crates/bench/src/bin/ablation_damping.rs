//! Ablation A4: triggered-update damping semantics.
//!
//! RFC 2453 sends the first triggered update immediately
//! (`FirstImmediate`, the study default, matching the paper's §5.2
//! "failure information can propagate along the path in a few
//! milliseconds" and RIP's zero TTL expirations). `DelayedFlush` delays
//! every update by a fresh 1–5 s draw; this ablation shows that doing so
//! slows the poison wave enough to give even RIP transient loops —
//! contradicting the paper's Observation 2 and thereby justifying the
//! default.

use bench::{sweep_args, SweepObserver};
use convergence::experiment::ProtocolFactory;
use convergence::protocols::ProtocolKind;
use convergence::report::{fmt_f64, Table};
use routing_core::damping::DampingMode;
use topology::mesh::MeshDegree;

fn with_mode(kind: ProtocolKind, mode: DampingMode) -> ProtocolFactory {
    match kind {
        ProtocolKind::Rip => ProtocolFactory::new(move || {
            Box::new(
                rip::Rip::with_config(rip::RipConfig {
                    damping_mode: mode,
                    ..rip::RipConfig::default()
                })
                .expect("valid config"),
            )
        }),
        ProtocolKind::Dbf => ProtocolFactory::new(move || {
            Box::new(
                dbf::Dbf::with_config(dbf::DbfConfig {
                    damping_mode: mode,
                    ..dbf::DbfConfig::default()
                })
                .expect("valid config"),
            )
        }),
        other => panic!("damping ablation only applies to RIP/DBF, not {other}"),
    }
}

fn main() {
    let args = sweep_args();
    let runs = args.runs;
    let mut observer = SweepObserver::new("ablation_damping", args);
    println!("Ablation A4 — triggered-update damping semantics, {runs} runs/point\n");

    let mut table = Table::new(
        [
            "protocol",
            "degree",
            "mode",
            "no-route",
            "ttl-expired",
            "fwdconv(s)",
        ]
        .map(String::from)
        .to_vec(),
    );
    for kind in [ProtocolKind::Rip, ProtocolKind::Dbf] {
        for degree in [MeshDegree::D3, MeshDegree::D4, MeshDegree::D5] {
            for (label, mode) in [
                ("first-immediate", DampingMode::FirstImmediate),
                ("delayed-flush", DampingMode::DelayedFlush),
            ] {
                let point = observer.point(kind, degree, |cfg| {
                    cfg.protocol_override = Some(with_mode(kind, mode));
                });
                table.push_row(vec![
                    kind.label().to_string(),
                    degree.to_string(),
                    label.to_string(),
                    fmt_f64(point.drops_no_route.mean),
                    fmt_f64(point.ttl_expirations.mean),
                    fmt_f64(point.forwarding_convergence_s.mean),
                ]);
            }
            eprintln!("  {kind} degree {degree} done");
        }
    }
    println!("{}", table.render());
    println!("expected: delayed-flush inflates drops AND gives RIP nonzero TTL");
    println!("expirations — the paper observed zero, supporting first-immediate.\n");
    let path = bench::results_dir().join("ablation_damping.csv");
    table.write_csv(&path).expect("write CSV");
    println!("wrote {}", path.display());
    let tpath = observer.finish().expect("write telemetry");
    println!("wrote {}", tpath.display());
}
