//! Extension E6: the loop-freedom vs availability trade-off.
//!
//! The paper's conclusion argues that loop-prevention schemes like
//! Garcia-Luna-Aceves' DUAL "eliminate routing loops by paying a high cost
//! of delaying routing updates and stopping packet delivery during
//! convergence", while in well-connected networks a plain distance vector
//! simply counts to the next-best path. This experiment puts numbers on
//! that claim: DUAL (zero loops by construction, diffusion freeze) against
//! DBF (instant switch-over, occasional loops) and BGP-3.

use bench::{sweep_args, SweepObserver};
use convergence::protocols::ProtocolKind;
use convergence::report::{fmt_f64, Table};
use topology::mesh::MeshDegree;

fn main() {
    let args = sweep_args();
    let runs = args.runs;
    let mut observer = SweepObserver::new("ext_dual", args);
    println!("Extension E6 — DUAL vs the distance-vector family, {runs} runs/point\n");

    let protocols = [ProtocolKind::Dual, ProtocolKind::Dbf, ProtocolKind::Bgp3];
    let mut table = Table::new(
        [
            "degree",
            "protocol",
            "no-route",
            "ttl-expired",
            "looped",
            "fwdconv(s)",
            "rtconv(s)",
        ]
        .map(String::from)
        .to_vec(),
    );
    for degree in MeshDegree::ALL {
        for protocol in protocols {
            let point = observer.point(protocol, degree, |_| {});
            table.push_row(vec![
                degree.to_string(),
                protocol.label().to_string(),
                fmt_f64(point.drops_no_route.mean),
                fmt_f64(point.ttl_expirations.mean),
                fmt_f64(point.looped_packets.mean),
                fmt_f64(point.forwarding_convergence_s.mean),
                fmt_f64(point.routing_convergence_s.mean),
            ]);
        }
        eprintln!("  degree {degree} done");
    }
    println!("{}", table.render());
    println!("expected: DUAL's looped column is exactly zero at every degree,");
    println!("but its no-route drops exceed DBF's in sparse meshes — the");
    println!("diffusion freeze blackholes traffic that DBF would have delivered");
    println!("over a transient (sometimes looping) alternate path.\n");
    let path = bench::results_dir().join("ext_dual.csv");
    table.write_csv(&path).expect("write CSV");
    println!("wrote {}", path.display());
    let tpath = observer.finish().expect("write telemetry");
    println!("wrote {}", tpath.display());
}
