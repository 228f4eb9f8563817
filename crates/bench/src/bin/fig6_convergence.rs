//! Figure 6: (a) forwarding-path convergence time and (b) network routing
//! convergence time vs. node degree.
//!
//! Paper shape to reproduce: BGP-3 converges far faster than BGP at every
//! degree (the MRAI dominates); forwarding-path convergence is much
//! shorter than network-wide routing convergence; yet at degree ≥ 6 the
//! packet-drop difference between BGP and BGP-3 is negligible — fast
//! convergence is not the same thing as good packet delivery.

use bench::{sweep_args, SweepObserver};
use convergence::protocols::ProtocolKind;
use convergence::report::{fmt_f64, Table};
use topology::mesh::MeshDegree;

fn main() {
    let args = sweep_args();
    let runs = args.runs;
    let mut observer = SweepObserver::new("fig6_convergence", args);
    println!("Figure 6 — convergence times vs node degree, {runs} runs/point\n");

    let headers: Vec<String> = std::iter::once("degree".to_string())
        .chain(ProtocolKind::PAPER.iter().map(|p| p.label().to_string()))
        .collect();
    let mut fwd = Table::new(headers.clone());
    let mut rt = Table::new(headers);
    for degree in MeshDegree::ALL {
        let mut fwd_row = vec![degree.to_string()];
        let mut rt_row = vec![degree.to_string()];
        for protocol in ProtocolKind::PAPER {
            let point = observer.point(protocol, degree, |_| {});
            fwd_row.push(fmt_f64(point.forwarding_convergence_s.mean));
            rt_row.push(fmt_f64(point.routing_convergence_s.mean));
        }
        fwd.push_row(fwd_row);
        rt.push_row(rt_row);
        eprintln!("  degree {degree} done");
    }
    println!("(a) forwarding-path convergence time (s):");
    println!("{}", fwd.render());
    println!("(b) network routing convergence time (s):");
    println!("{}", rt.render());
    println!("expected shape: BGP >> BGP-3 in both; (a) falls to ~0 faster than (b);");
    println!("RIP's (b) stays on the periodic-update timescale.\n");

    fwd.write_csv(bench::results_dir().join("fig6a_forwarding_convergence.csv"))
        .expect("write CSV");
    rt.write_csv(bench::results_dir().join("fig6b_routing_convergence.csv"))
        .expect("write CSV");
    println!(
        "wrote {} and {}",
        bench::results_dir()
            .join("fig6a_forwarding_convergence.csv")
            .display(),
        bench::results_dir()
            .join("fig6b_routing_convergence.csv")
            .display()
    );
    let tpath = observer.finish().expect("write telemetry");
    println!("wrote {}", tpath.display());
}
