//! The SPF (link-state) protocol engine.

use std::rc::Rc;

use netsim::ident::NodeId;
use netsim::protocol::{Payload, RoutingProtocol, SharedPayload, TimerToken};
use netsim::simulator::ProtocolContext;
use netsim::time::SimDuration;
use serde::{Deserialize, Serialize};

use crate::lsdb::{LinkStateDb, Lsa};

mod timer {
    pub const SPF_CALC: u64 = 1;
    pub const REFRESH: u64 = 2;
}

/// Tunable SPF parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpfConfig {
    /// Hold-down between an LSDB change and the (batched) SPF run,
    /// modeling router SPF throttling.
    pub spf_delay: SimDuration,
    /// Periodic LSA refresh interval (OSPF default is 30 minutes; far
    /// beyond the study's run lengths, present for completeness).
    pub refresh_interval: SimDuration,
}

impl Default for SpfConfig {
    fn default() -> Self {
        SpfConfig {
            spf_delay: SimDuration::from_millis(50),
            refresh_interval: SimDuration::from_secs(1800),
        }
    }
}

/// A flooded link-state advertisement.
#[derive(Debug, Clone)]
pub struct LsaMessage(pub Lsa);

impl Payload for LsaMessage {
    /// 20-byte OSPF-ish header + 8 bytes per advertised adjacency.
    fn size_bytes(&self) -> usize {
        20 + 8 * self.0.neighbors.len()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// A link-state shortest-path-first instance for one router.
///
/// This is the paper's §6 "future work" comparison point: global topology
/// knowledge via flooding, Dijkstra on the LSDB, no distance-vector
/// counting dynamics at all.
#[derive(Debug, Default)]
pub struct Spf {
    config: SpfConfig,
    db: LinkStateDb,
    seq: u64,
    spf_scheduled: bool,
}

impl Spf {
    /// Creates an instance with default parameters.
    #[must_use]
    pub fn new() -> Self {
        Spf::with_config(SpfConfig::default())
    }

    /// Creates an instance with explicit parameters.
    #[must_use]
    pub fn with_config(config: SpfConfig) -> Self {
        Spf {
            config,
            db: LinkStateDb::default(),
            seq: 0,
            spf_scheduled: false,
        }
    }

    /// Read access to the link-state database.
    #[must_use]
    pub fn database(&self) -> &LinkStateDb {
        &self.db
    }

    /// Re-originates this router's own LSA from its current perceived
    /// adjacencies and floods it.
    fn originate(&mut self, ctx: &mut ProtocolContext<'_>) {
        self.seq += 1;
        let neighbors: Vec<(NodeId, u32)> = ctx
            .peers()
            .iter()
            .filter(|p| p.up)
            .map(|p| (p.neighbor, p.cost))
            .collect();
        let lsa = Lsa {
            origin: ctx.node(),
            seq: self.seq,
            neighbors,
        };
        self.flood(ctx, &lsa, None);
        self.db.install(lsa);
        self.schedule_spf(ctx);
    }

    /// Floods `lsa` to all up neighbors except `except`.
    ///
    /// The LSA is wrapped once; every neighbor's frame shares the same
    /// payload allocation instead of deep-cloning the adjacency list per
    /// link.
    fn flood(&self, ctx: &mut ProtocolContext<'_>, lsa: &Lsa, except: Option<NodeId>) {
        let message: SharedPayload = Rc::new(LsaMessage(lsa.clone()));
        for slot in 0..ctx.peers().len() {
            let peer = ctx.peers()[slot];
            if Some(peer.neighbor) != except && peer.up {
                ctx.send(peer.neighbor, Rc::clone(&message));
            }
        }
    }

    fn schedule_spf(&mut self, ctx: &mut ProtocolContext<'_>) {
        if !self.spf_scheduled {
            self.spf_scheduled = true;
            ctx.set_timer(
                self.config.spf_delay,
                TimerToken::compose(timer::SPF_CALC, 0),
            );
        }
    }

    fn run_spf(&mut self, ctx: &mut ProtocolContext<'_>) {
        let hops = self.db.shortest_path_first(ctx.node());
        for (i, hop) in hops.iter().enumerate() {
            let dest = NodeId::new(i as u32);
            if dest == ctx.node() {
                continue;
            }
            match hop {
                Some(next) => ctx.install_route(dest, *next),
                None => ctx.remove_route(dest),
            }
        }
    }
}

impl RoutingProtocol for Spf {
    fn name(&self) -> &'static str {
        "spf"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut ProtocolContext<'_>) {
        self.db = LinkStateDb::new(ctx.num_nodes());
        self.originate(ctx);
        let refresh = self.config.refresh_interval;
        ctx.set_timer(refresh, TimerToken::compose(timer::REFRESH, 0));
    }

    fn on_message(&mut self, ctx: &mut ProtocolContext<'_>, from: NodeId, payload: &dyn Payload) {
        let Some(LsaMessage(lsa)) = payload.as_any().downcast_ref::<LsaMessage>() else {
            debug_assert!(false, "SPF received a non-LSA payload");
            return;
        };
        if self.db.install_if_newer(lsa) {
            self.flood(ctx, lsa, Some(from));
            self.schedule_spf(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut ProtocolContext<'_>, token: TimerToken) {
        match token.kind() {
            timer::SPF_CALC => {
                self.spf_scheduled = false;
                self.run_spf(ctx);
            }
            timer::REFRESH => {
                self.originate(ctx);
                let refresh = self.config.refresh_interval;
                ctx.set_timer(refresh, TimerToken::compose(timer::REFRESH, 0));
            }
            other => debug_assert!(false, "unknown SPF timer kind {other}"),
        }
    }

    fn on_link_down(&mut self, ctx: &mut ProtocolContext<'_>, _neighbor: NodeId) {
        self.originate(ctx);
    }

    fn on_link_up(&mut self, ctx: &mut ProtocolContext<'_>, _neighbor: NodeId) {
        self.originate(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsa_message_size_tracks_adjacency_count() {
        let small = LsaMessage(Lsa {
            origin: NodeId::new(0),
            seq: 1,
            neighbors: vec![(NodeId::new(1), 1)],
        });
        let large = LsaMessage(Lsa {
            origin: NodeId::new(0),
            seq: 1,
            neighbors: (1..9).map(|i| (NodeId::new(i), 1)).collect(),
        });
        assert_eq!(small.size_bytes(), 28);
        assert_eq!(large.size_bytes(), 84);
    }

    #[test]
    fn default_config_matches_ospf_practice() {
        let cfg = SpfConfig::default();
        assert_eq!(cfg.spf_delay, SimDuration::from_millis(50));
        assert_eq!(cfg.refresh_interval, SimDuration::from_secs(1800));
        assert_eq!(Spf::new().name(), "spf");
    }
}
