//! A tcpdump-style viewer for simulation traces: run one experiment and
//! print the annotated event log around the failure — the raw material of
//! the paper's §5.2 "study of the routing and forwarding trace files".
//!
//! ```text
//! cargo run --release --example trace_dump [seed] [window-secs]
//! ```

use convergence::prelude::*;
use netsim::trace::TraceEvent;
use topology::mesh::MeshDegree;

fn main() -> Result<(), RunError> {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("seed must be a number"))
        .unwrap_or(7);
    let window: f64 = std::env::args()
        .nth(2)
        .map(|a| a.parse().expect("window must be seconds"))
        .unwrap_or(0.5);

    let cfg = ExperimentConfig::paper(ProtocolKind::Dbf, MeshDegree::D4, seed);
    let (result, trace) = run_traced(&cfg)?;
    let t_fail = result.t_fail.as_secs_f64();
    let flow = result.flows[0];
    println!(
        "DBF, degree 4, seed {seed}; flow {} -> {}; link {} -- {} fails at {:.3}s",
        flow.sender, flow.receiver, result.failure.edges[0].a, result.failure.edges[0].b, t_fail
    );
    println!("events within ±{window}s of the failure:\n");

    let mut shown = 0usize;
    for event in &trace {
        let t = event.time().as_secs_f64();
        if (t - t_fail).abs() > window {
            continue;
        }
        let rel = t - t_fail;
        let line = match event {
            TraceEvent::PacketInjected { id, src, dst, .. } => {
                format!("inject   {id} {src} -> {dst}")
            }
            TraceEvent::PacketForwarded {
                id, node, next_hop, ..
            } => {
                format!("forward  {id} at {node} -> {next_hop}")
            }
            TraceEvent::PacketDelivered { id, node, hops, .. } => {
                format!("DELIVER  {id} at {node} after {hops} hops")
            }
            TraceEvent::PacketDropped {
                id, node, reason, ..
            } => {
                format!("DROP     {id} at {node} ({reason})")
            }
            TraceEvent::RouteChanged {
                node,
                dest,
                old,
                new,
                ..
            } => {
                let fmt =
                    |h: Option<netsim::ident::NodeId>| h.map_or("-".to_string(), |n| n.to_string());
                format!("route    {node}: dest {dest} {} => {}", fmt(old), fmt(new))
            }
            TraceEvent::ControlSent {
                from, to, bytes, ..
            } => {
                format!("control  {from} -> {to} ({bytes} B)")
            }
            TraceEvent::LinkFailed { a, b, .. } => format!("FAIL     link {a} -- {b}"),
            TraceEvent::LinkRecovered { a, b, .. } => format!("RECOVER  link {a} -- {b}"),
            TraceEvent::LinkStateDetected {
                node, neighbor, up, ..
            } => {
                format!(
                    "detect   {node} sees link to {neighbor} {}",
                    if up { "UP" } else { "DOWN" }
                )
            }
            TraceEvent::ImpairmentChanged { link, loss_ppm, .. } => {
                format!("impair   link {link} loss {loss_ppm} ppm")
            }
            TraceEvent::NodeRestarted { node, .. } => format!("REBOOT   {node} (cold state)"),
        };
        println!("{rel:+10.6}s  {line}");
        shown += 1;
        if shown >= 200 {
            println!("... (truncated; widen/narrow with the window argument)");
            break;
        }
    }
    println!("\n{shown} events shown of {} total in the run", trace.len());
    Ok(())
}
