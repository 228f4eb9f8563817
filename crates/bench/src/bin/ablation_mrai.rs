//! Ablation A1 (paper §5.2 note): per-neighbor vs per-(neighbor,
//! destination) MRAI granularity.
//!
//! The paper observes that vendor implementations keep the MRAI per
//! neighbor, which holds back updates about *other* destinations after the
//! first post-failure update, lengthening inconsistency windows — "the
//! results could have been different had the MRAI timer been implemented
//! on a per (neighbor, destination) basis". This binary measures that
//! difference.

use bench::{sweep_args, SweepObserver};
use bgp::{Bgp, BgpConfig, MraiScope};
use convergence::experiment::ExperimentConfig;
use convergence::protocols::ProtocolKind;
use convergence::report::{fmt_f64, Table};
use topology::mesh::MeshDegree;

fn main() {
    let args = sweep_args();
    let runs = args.runs;
    let mut observer = SweepObserver::new("ablation_mrai", args);
    println!("Ablation A1 — MRAI scope (BGP, 30 s mean), {runs} runs/point\n");
    // We cannot switch the scope through ProtocolKind, so runs are driven
    // through a custom protocol hook: ExperimentConfig carries the kind,
    // and the per-pair variant is injected by replacing the experiment's
    // protocol with a custom build through the generic sweep.
    let mut table = Table::new(
        [
            "degree",
            "ttl/neighbor",
            "ttl/pair",
            "rtconv/neighbor(s)",
            "rtconv/pair(s)",
            "msgs/neighbor",
            "msgs/pair",
        ]
        .map(String::from)
        .to_vec(),
    );
    for degree in [
        MeshDegree::D3,
        MeshDegree::D4,
        MeshDegree::D5,
        MeshDegree::D6,
    ] {
        let vendor = observer.point(ProtocolKind::Bgp, degree, |_| {});
        let pair = observer.point(ProtocolKind::Bgp, degree, |cfg: &mut ExperimentConfig| {
            cfg.protocol_override = Some(convergence::experiment::ProtocolFactory::new(|| {
                Box::new(
                    Bgp::with_config(BgpConfig {
                        mrai_scope: MraiScope::PerNeighborDestination,
                        ..BgpConfig::standard()
                    })
                    .expect("valid config"),
                )
            }));
        });
        table.push_row(vec![
            degree.to_string(),
            fmt_f64(vendor.ttl_expirations.mean),
            fmt_f64(pair.ttl_expirations.mean),
            fmt_f64(vendor.routing_convergence_s.mean),
            fmt_f64(pair.routing_convergence_s.mean),
            fmt_f64(vendor.control_messages.mean),
            fmt_f64(pair.control_messages.mean),
        ]);
        eprintln!("  degree {degree} done");
    }
    println!("{}", table.render());
    println!("expected: per-pair MRAI shortens loops/convergence at the cost of");
    println!("more update messages.\n");
    let path = bench::results_dir().join("ablation_mrai.csv");
    table.write_csv(&path).expect("write CSV");
    println!("wrote {}", path.display());
    let tpath = observer.finish().expect("write telemetry");
    println!("wrote {}", tpath.display());
}
