//! The paper's Figures 2–7.

use std::io;

use bench::{point_seed, sparkline};
use convergence::experiment::ExperimentConfig;
use convergence::metrics::series::{
    delay_series, mean_delay_series, mean_u64_series, throughput_series,
};
use convergence::protocols::ProtocolKind;
use convergence::report::{fmt_f64, Table};
use topology::analysis::{degree_stats, mean_path_length};
use topology::mesh::{Mesh, MeshDegree};
use topology::shortest_path::diameter;

use crate::{table, Frame};

/// The Figure 5 and 7 window around the failure, in seconds.
const FROM_S: i64 = -10;
const TO_S: i64 = 40;

/// A table with a first column `first` and one column per paper protocol.
fn per_protocol(first: &str) -> Table {
    Table::new(
        std::iter::once(first.to_string())
            .chain(ProtocolKind::PAPER.iter().map(|p| p.label().to_string()))
            .collect(),
    )
}

/// Figure 2: the regular mesh construction at degrees 4, 5 and 6 (plus the
/// rest of the family), rendered as ASCII and summarized structurally.
pub fn fig2_topologies(f: &mut Frame<'_>) -> io::Result<()> {
    f.line("Figure 2 — link failures in networks with node degree 4, 5 and 6")?;
    f.line("(paper shows 4/5/6; the full family 3..8 is summarized below)\n")?;

    for degree in [MeshDegree::D4, MeshDegree::D5, MeshDegree::D6] {
        let mesh = Mesh::regular(7, 7, degree);
        f.line(format_args!(
            "--- degree {degree} ({} links) ---",
            mesh.graph().num_edges()
        ))?;
        f.line(mesh.render_ascii())?;
    }

    let mut table = table("degree,links,interior deg,mean deg,diameter,mean path len");
    for degree in MeshDegree::ALL {
        let mesh = Mesh::regular(7, 7, degree);
        let stats = degree_stats(mesh.graph()).expect("mesh is nonempty");
        table.push_row(vec![
            degree.to_string(),
            mesh.graph().num_edges().to_string(),
            degree.as_u32().to_string(),
            format!("{:.2}", stats.mean),
            diameter(mesh.graph()).unwrap().to_string(),
            format!("{:.2}", mean_path_length(mesh.graph()).unwrap()),
        ]);
    }
    f.line(table.render())?;
    f.save(&[("fig2_topologies.csv", &table)])
}

/// Figure 3: packet drops due to no route vs. node degree, for RIP, DBF,
/// BGP and BGP-3, averaged over randomized runs.
///
/// Paper shape to reproduce: drops fall as the degree rises; at degree ≥ 6
/// DBF/BGP/BGP-3 drop virtually nothing while RIP remains clearly worst.
pub fn fig3_drops(f: &mut Frame<'_>) -> io::Result<()> {
    let runs = f.sweeps.runs();
    f.line(format_args!(
        "Figure 3 — packet drops (no route) vs node degree, {runs} runs/point\n"
    ))?;

    let mut table = per_protocol("degree");
    for degree in MeshDegree::ALL {
        let mut row = vec![degree.to_string()];
        for protocol in ProtocolKind::PAPER {
            let point = f.sweeps.point(protocol, degree, |_| {});
            row.push(fmt_f64(point.drops_no_route.mean));
        }
        table.push_row(row);
        eprintln!("  degree {degree} done");
    }
    f.line(table.render())?;
    f.line("expected shape: every column falls with degree; RIP stays highest;")?;
    f.line("DBF/BGP/BGP-3 reach ~0 at high degree.\n")?;
    f.save(&[("fig3_drops.csv", &table)])
}

/// Figure 4: packet drops due to TTL expiration (transient forwarding
/// loops) vs. node degree.
///
/// Paper shape to reproduce: RIP has none (it drops instead of looping);
/// BGP has the most, roughly the MRAI ratio (~10×) above BGP-3; loops
/// disappear in densely connected meshes.
pub fn fig4_ttl(f: &mut Frame<'_>) -> io::Result<()> {
    let runs = f.sweeps.runs();
    f.line(format_args!(
        "Figure 4 — TTL expirations during convergence, {runs} runs/point\n"
    ))?;

    let mut ttl = per_protocol("degree");
    let mut looped = per_protocol("degree");
    for degree in MeshDegree::ALL {
        let mut ttl_row = vec![degree.to_string()];
        let mut loop_row = vec![degree.to_string()];
        for protocol in ProtocolKind::PAPER {
            let point = f.sweeps.point(protocol, degree, |_| {});
            ttl_row.push(fmt_f64(point.ttl_expirations.mean));
            loop_row.push(fmt_f64(point.looped_packets.mean));
        }
        ttl.push_row(ttl_row);
        looped.push_row(loop_row);
        eprintln!("  degree {degree} done");
    }
    f.line("TTL expirations (the figure's y-axis):")?;
    f.line(ttl.render())?;
    f.line("packets that entered any forwarding loop (supporting metric):")?;
    f.line(looped.render())?;
    f.line("expected shape: RIP column all zeros; BGP >> BGP-3 (≈ MRAI ratio);")?;
    f.line("all columns ~0 once the mesh is dense.\n")?;
    f.save(&[("fig4_ttl.csv", &ttl)])
}

/// Figure 5: instantaneous throughput (delivered packets per second) vs.
/// time around the failure, at node degrees 3, 4 and 6.
///
/// Paper shape to reproduce: in sparse meshes every protocol dips at the
/// failure; RIP climbs back on the 30 s periodic-update timescale, BGP on
/// the ~30 s MRAI, DBF and BGP-3 within seconds. At degree 6 only RIP
/// still shows a visible dip.
pub fn fig5_throughput(f: &mut Frame<'_>) -> io::Result<()> {
    let runs = f.sweeps.runs();
    f.line(format_args!(
        "Figure 5 — instantaneous throughput vs time, {runs} runs/point"
    ))?;
    f.line(format_args!(
        "window: {FROM_S}..{TO_S} s relative to the failure; rate = 20 pkt/s\n"
    ))?;

    for degree in [MeshDegree::D3, MeshDegree::D4, MeshDegree::D6] {
        let mut table = per_protocol("t(s)");
        let mut columns = Vec::new();
        for protocol in ProtocolKind::PAPER {
            let through = f.sweeps.sweep(
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
        f.line(format_args!("--- degree {degree} ---"))?;
        for (protocol, col) in ProtocolKind::PAPER.iter().zip(&columns) {
            let values: Vec<f64> = col.iter().map(|&(_, v)| v).collect();
            f.line(format_args!(
                "{:>5} {}",
                protocol.label(),
                sparkline(&values, Some(20.0))
            ))?;
        }
        f.line("")?;
        f.save(&[(&format!("fig5_throughput_d{degree}.csv"), &table)])?;
        f.line("")?;
    }
    Ok(())
}

/// Figure 6: (a) forwarding-path convergence time and (b) network routing
/// convergence time vs. node degree.
///
/// Paper shape to reproduce: BGP-3 converges far faster than BGP at every
/// degree (the MRAI dominates); forwarding-path convergence is much
/// shorter than network-wide routing convergence; yet at degree ≥ 6 the
/// packet-drop difference between BGP and BGP-3 is negligible — fast
/// convergence is not the same thing as good packet delivery.
pub fn fig6_convergence(f: &mut Frame<'_>) -> io::Result<()> {
    let runs = f.sweeps.runs();
    f.line(format_args!(
        "Figure 6 — convergence times vs node degree, {runs} runs/point\n"
    ))?;

    let mut fwd = per_protocol("degree");
    let mut rt = per_protocol("degree");
    for degree in MeshDegree::ALL {
        let mut fwd_row = vec![degree.to_string()];
        let mut rt_row = vec![degree.to_string()];
        for protocol in ProtocolKind::PAPER {
            let point = f.sweeps.point(protocol, degree, |_| {});
            fwd_row.push(fmt_f64(point.forwarding_convergence_s.mean));
            rt_row.push(fmt_f64(point.routing_convergence_s.mean));
        }
        fwd.push_row(fwd_row);
        rt.push_row(rt_row);
        eprintln!("  degree {degree} done");
    }
    f.line("(a) forwarding-path convergence time (s):")?;
    f.line(fwd.render())?;
    f.line("(b) network routing convergence time (s):")?;
    f.line(rt.render())?;
    f.line("expected shape: BGP >> BGP-3 in both; (a) falls to ~0 faster than (b);")?;
    f.line("RIP's (b) stays on the periodic-update timescale.\n")?;
    f.save(&[
        ("fig6a_forwarding_convergence.csv", &fwd),
        ("fig6b_routing_convergence.csv", &rt),
    ])
}

/// Figure 7: instantaneous end-to-end delay of delivered packets vs. time
/// around the failure, at node degrees 4, 5 and 6.
///
/// Paper shape to reproduce: packets delivered during convergence traverse
/// longer-than-final paths, so the delay spikes just after the failure and
/// settles back; packets that escape a forwarding loop show much larger
/// spikes (visible at the loop-prone sparse degrees).
pub fn fig7_delay(f: &mut Frame<'_>) -> io::Result<()> {
    let runs = f.sweeps.runs();
    f.line(format_args!(
        "Figure 7 — instantaneous packet delay vs time, {runs} runs/point"
    ))?;
    f.line(format_args!(
        "window: {FROM_S}..{TO_S} s relative to the failure\n"
    ))?;

    for degree in [MeshDegree::D4, MeshDegree::D5, MeshDegree::D6] {
        let mut table = per_protocol("t(s)");
        let mut columns = Vec::new();
        for protocol in ProtocolKind::PAPER {
            let delays = f.sweeps.sweep(
                &format!("{protocol}/d{degree}"),
                &ExperimentConfig::paper(protocol, degree, 0),
                runs,
                point_seed(degree, 0),
                |r| Ok(delay_series(&r.trace, r.t_fail, FROM_S, TO_S)),
            );
            columns.push(mean_delay_series(&delays.completed));
            eprintln!("  degree {degree} {protocol} done");
        }
        for i in 0..columns[0].len() {
            let mut row = vec![columns[0][i].0.to_string()];
            for col in &columns {
                row.push(match col[i].1 {
                    Some(ms) => format!("{:.3}", ms * 1e3),
                    None => "-".to_string(),
                });
            }
            table.push_row(row);
        }
        f.line(format_args!(
            "--- degree {degree} (mean delivered-packet delay, ms) ---"
        ))?;
        f.line(table.render())?;
        f.save(&[(&format!("fig7_delay_d{degree}.csv"), &table)])?;
        f.line("")?;
    }
    f.line("expected shape: flat baseline before the failure; a post-failure")?;
    f.line("bump (longer transient paths); larger spikes where loops occur.")
}
