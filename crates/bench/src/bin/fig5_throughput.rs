//! Figure 5: instantaneous throughput (delivered packets per second) vs.
//! time around the failure, at node degrees 3, 4 and 6.
//!
//! Paper shape to reproduce: in sparse meshes every protocol dips at the
//! failure; RIP climbs back on the 30 s periodic-update timescale, BGP on
//! the ~30 s MRAI, DBF and BGP-3 within seconds. At degree 6 only RIP
//! still shows a visible dip.

use bench::{point_seed, sparkline, sweep_args, SweepObserver};
use convergence::experiment::ExperimentConfig;
use convergence::metrics::series::{mean_u64_series, throughput_series};
use convergence::protocols::ProtocolKind;
use convergence::report::Table;
use topology::mesh::MeshDegree;

const FROM_S: i64 = -10;
const TO_S: i64 = 40;

fn main() {
    let args = sweep_args();
    let runs = args.runs;
    let mut observer = SweepObserver::new("fig5_throughput", args);
    println!("Figure 5 — instantaneous throughput vs time, {runs} runs/point");
    println!("window: {FROM_S}..{TO_S} s relative to the failure; rate = 20 pkt/s\n");

    for degree in [MeshDegree::D3, MeshDegree::D4, MeshDegree::D6] {
        let mut table = Table::new(
            std::iter::once("t(s)".to_string())
                .chain(ProtocolKind::PAPER.iter().map(|p| p.label().to_string()))
                .collect(),
        );
        let mut columns = Vec::new();
        for protocol in ProtocolKind::PAPER {
            let through = observer.sweep(
                &format!("{protocol}/d{degree}"),
                &ExperimentConfig::paper(protocol, degree, 0),
                runs,
                point_seed(degree, 0),
                |r| Ok(throughput_series(&r.trace, r.t_fail, FROM_S, TO_S)),
            );
            columns.push(mean_u64_series(&through.completed));
            eprintln!("  degree {degree} {protocol} done");
        }
        for i in 0..columns[0].len() {
            let mut row = vec![columns[0][i].0.to_string()];
            for col in &columns {
                row.push(format!("{:.1}", col[i].1));
            }
            table.push_row(row);
        }
        println!("--- degree {degree} ---");
        for (protocol, col) in ProtocolKind::PAPER.iter().zip(&columns) {
            let values: Vec<f64> = col.iter().map(|&(_, v)| v).collect();
            println!("{:>5} {}", protocol.label(), sparkline(&values, Some(20.0)));
        }
        println!();
        let path = bench::results_dir().join(format!("fig5_throughput_d{degree}.csv"));
        table.write_csv(&path).expect("write CSV");
        println!("wrote {}\n", path.display());
    }
    let tpath = observer.finish().expect("write telemetry");
    println!("wrote {}", tpath.display());
}
