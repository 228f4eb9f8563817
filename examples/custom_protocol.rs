//! Plugging a user-defined routing protocol into the harness.
//!
//! Implements "hot-standby" — a deliberately naive distance vector that
//! keeps one precomputed backup next hop per destination and switches to
//! it blindly on failure, without any poisoned-reverse validity checking —
//! then runs it through the same experiment as the paper's protocols.
//!
//! ```text
//! cargo run --release --example custom_protocol
//! ```

use convergence::experiment::ProtocolFactory;
use convergence::prelude::*;
use netsim::ident::NodeId;
use netsim::protocol::{Payload, RoutingProtocol, TimerToken};
use netsim::simulator::ProtocolContext;
use netsim::time::SimDuration;
use routing_core::message::{send_packed, DvEntry, DvMessage};
use routing_core::metric::Metric;
use std::collections::BTreeMap;
use topology::mesh::MeshDegree;

/// Per-destination primary and backup next hops.
#[derive(Debug, Default, Clone, Copy)]
struct Pair {
    primary: Option<(NodeId, Metric)>,
    backup: Option<(NodeId, Metric)>,
}

/// A toy protocol: periodic full-table exchange, no split horizon, no
/// triggered updates; remembers the two best offers per destination and
/// fails over blindly.
#[derive(Debug, Default)]
struct HotStandby {
    table: BTreeMap<NodeId, Pair>,
}

const PERIODIC: u64 = 1;

impl HotStandby {
    fn reinstall(&self, ctx: &mut ProtocolContext<'_>, dest: NodeId) {
        let pair = self.table.get(&dest).copied().unwrap_or_default();
        let choice = [pair.primary, pair.backup]
            .into_iter()
            .flatten()
            .find(|&(nh, _)| ctx.peers().iter().any(|p| p.neighbor == nh && p.up));
        match choice {
            Some((nh, _)) => ctx.install_route(dest, nh),
            None => ctx.remove_route(dest),
        }
    }
}

impl RoutingProtocol for HotStandby {
    fn name(&self) -> &'static str {
        "hot-standby"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut ProtocolContext<'_>) {
        let first = ctx
            .rng()
            .gen_duration(SimDuration::ZERO, SimDuration::from_secs(5));
        ctx.set_timer(first, TimerToken::compose(PERIODIC, 0));
    }

    fn on_timer(&mut self, ctx: &mut ProtocolContext<'_>, _token: TimerToken) {
        // Advertise our own distance vector (self = 0, learned = stored).
        let mut entries = vec![DvEntry {
            dest: ctx.node(),
            metric: Metric::ZERO,
        }];
        entries.extend(
            self.table
                .iter()
                .filter_map(|(&dest, pair)| pair.primary.map(|(_, m)| DvEntry { dest, metric: m })),
        );
        for slot in 0..ctx.peers().len() {
            let peer = ctx.peers()[slot];
            if peer.up {
                send_packed(entries.iter().copied(), |message| {
                    ctx.send(peer.neighbor, std::rc::Rc::new(message));
                });
            }
        }
        ctx.set_timer(SimDuration::from_secs(5), TimerToken::compose(PERIODIC, 0));
    }

    fn on_message(&mut self, ctx: &mut ProtocolContext<'_>, from: NodeId, payload: &dyn Payload) {
        let Some(message) = payload.as_any().downcast_ref::<DvMessage>() else {
            return;
        };
        let Some(cost) = ctx
            .peers()
            .iter()
            .find(|p| p.neighbor == from)
            .map(|p| p.cost)
        else {
            return;
        };
        for entry in &message.entries {
            if entry.dest == ctx.node() || !entry.metric.is_finite() {
                continue;
            }
            let offered = entry.metric + cost;
            let pair = self.table.entry(entry.dest).or_default();
            // Keep the best two distinct next hops.
            match pair.primary {
                Some((nh, m)) if nh == from => {
                    pair.primary = Some((from, offered));
                    let _ = m;
                }
                Some((nh, m)) if offered < m => {
                    pair.backup = Some((nh, m));
                    pair.primary = Some((from, offered));
                }
                Some(_) => match pair.backup {
                    Some((bh, bm)) if bh != from && offered >= bm => {}
                    _ => pair.backup = Some((from, offered)),
                },
                None => pair.primary = Some((from, offered)),
            }
            self.reinstall(ctx, entry.dest);
        }
    }

    fn on_link_down(&mut self, ctx: &mut ProtocolContext<'_>, _neighbor: NodeId) {
        let dests: Vec<NodeId> = self.table.keys().copied().collect();
        for dest in dests {
            self.reinstall(ctx, dest);
        }
    }
}

fn main() -> Result<(), RunError> {
    println!("custom protocol vs the paper's family, degree 4, 10 runs\n");
    let mut rows = Vec::new();
    for (label, protocol, factory) in [
        ("DBF", ProtocolKind::Dbf, None),
        ("RIP", ProtocolKind::Rip, None),
        (
            "hot-standby",
            ProtocolKind::Dbf, // placeholder kind; override supplies instances
            Some(ProtocolFactory::new(|| {
                Box::new(HotStandby::default()) as Box<dyn RoutingProtocol>
            })),
        ),
    ] {
        let mut delivered = 0u64;
        let mut injected = 0u64;
        let mut loops = 0u64;
        for seed in 0..10u64 {
            let mut cfg = ExperimentConfig::paper(protocol, MeshDegree::D4, 900 + seed);
            cfg.protocol_override = factory.clone();
            let result = run(&cfg)?;
            let s = summarize(&result)?;
            delivered += s.delivered;
            injected += s.injected;
            loops += s.looped_packets;
        }
        rows.push((label, delivered as f64 / injected as f64, loops));
    }
    for (label, ratio, loops) in rows {
        println!(
            "{label:>12}: delivery {:.2}%  looped packets {loops}",
            ratio * 100.0
        );
    }
    println!();
    println!("Blind failover without validity checking can forward into stale");
    println!("or looping paths — exactly the trade-off the paper's §4.2 warns");
    println!("about when alternate paths are used without a valid-path check.");
    Ok(())
}
