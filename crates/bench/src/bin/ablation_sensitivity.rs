//! Ablation A3 (paper §5 claim): "the exact values of these parameters
//! should have little impact on the results."
//!
//! Sweeps the failure-detection delay, data rate and queue capacity for
//! DBF at degree 4 and checks that the *ratios* (delivery ratio, loop
//! counts) move little while absolute drop counts scale with the rate.

use bench::{sweep_args, SweepObserver};
use convergence::protocols::ProtocolKind;
use convergence::report::{fmt_f64, Table};
use netsim::time::SimDuration;
use topology::mesh::MeshDegree;

fn main() {
    let args = sweep_args();
    let runs = args.runs;
    let mut observer = SweepObserver::new("ablation_sensitivity", args);
    println!("Ablation A3 — parameter sensitivity (DBF, degree 4), {runs} runs/point\n");

    let mut table = Table::new(
        ["variant", "delivery ratio", "no-route", "ttl", "rtconv(s)"]
            .map(String::from)
            .to_vec(),
    );
    let mut add = |label: &str, point: convergence::aggregate::PointSummary| {
        table.push_row(vec![
            label.to_string(),
            format!("{:.4}", point.delivery_ratio.mean),
            fmt_f64(point.drops_no_route.mean),
            fmt_f64(point.ttl_expirations.mean),
            fmt_f64(point.routing_convergence_s.mean),
        ]);
    };

    add(
        "baseline (50ms detect, 20pps, q20)",
        observer.point(ProtocolKind::Dbf, MeshDegree::D4, |_| {}),
    );
    for (label, detect_ms) in [("detect 5ms", 5u64), ("detect 500ms", 500)] {
        add(
            label,
            observer.point(ProtocolKind::Dbf, MeshDegree::D4, |cfg| {
                cfg.link.detection_delay = SimDuration::from_millis(detect_ms);
            }),
        );
    }
    for (label, rate) in [("rate 10pps", 10u64), ("rate 100pps", 100)] {
        add(
            label,
            observer.point(ProtocolKind::Dbf, MeshDegree::D4, |cfg| {
                cfg.traffic.rate_pps = rate;
            }),
        );
    }
    for (label, cap) in [("queue 5", 5usize), ("queue 100", 100)] {
        add(
            label,
            observer.point(ProtocolKind::Dbf, MeshDegree::D4, |cfg| {
                cfg.link.queue_capacity = cap;
            }),
        );
    }
    for (label, delay_ms) in [("prop 0.1ms", 1u64), ("prop 10ms", 100)] {
        add(
            label,
            observer.point(ProtocolKind::Dbf, MeshDegree::D4, |cfg| {
                cfg.link.propagation_delay = SimDuration::from_micros(delay_ms * 100);
            }),
        );
    }
    println!("{}", table.render());
    println!("expected: delivery ratio moves by at most a few percent across the");
    println!("whole sweep (the paper's robustness claim); absolute drops scale");
    println!("with the data rate.\n");
    let path = bench::results_dir().join("ablation_sensitivity.csv");
    table.write_csv(&path).expect("write CSV");
    println!("wrote {}", path.display());
    let tpath = observer.finish().expect("write telemetry");
    println!("wrote {}", tpath.display());
}
