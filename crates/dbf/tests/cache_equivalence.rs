//! The slot-indexed [`NeighborCache`] selects exactly what a per-neighbor
//! table keyed by neighbor id selects.
//!
//! The reference below is the cache's previous shape: one vector per
//! neighbor, visited in ascending neighbor id, with up-state and link cost
//! looked up per candidate. Random sequences of updates, withdrawals
//! (infinite metrics), invalidations and peer up/down flips drive both; after
//! every step both must select the same `(neighbor, metric)` for every
//! destination, and every update must agree on whether it changed the
//! stored entry.

use std::collections::BTreeMap;

use dbf::NeighborCache;
use netsim::ident::NodeId;
use netsim::simulator::Peer;
use proptest::prelude::*;
use routing_core::{select_best, Metric};

const DESTS: usize = 8;

/// Per-neighbor vectors keyed by neighbor id.
#[derive(Default)]
struct Reference {
    vectors: BTreeMap<NodeId, Vec<Option<Metric>>>,
}

impl Reference {
    /// Stores `metric`, returning whether the stored entry changed.
    fn update(&mut self, neighbor: NodeId, dest: NodeId, metric: Metric) -> bool {
        let vector = self
            .vectors
            .entry(neighbor)
            .or_insert_with(|| vec![None; DESTS]);
        vector[dest.index()].replace(metric) != Some(metric)
    }

    fn invalidate(&mut self, neighbor: NodeId) {
        self.vectors.remove(&neighbor);
    }

    fn best(&self, dest: NodeId, peers: &[Peer]) -> Option<(NodeId, Metric)> {
        let peer = |n: NodeId| peers.iter().find(|p| p.neighbor == n);
        select_best(self.vectors.iter().filter_map(|(&n, vector)| {
            let p = peer(n)?;
            let advertised = vector[dest.index()]?;
            p.up.then(|| (n, advertised + p.cost))
        }))
    }
}

/// Peers with distinct neighbor ids, in the (arbitrary) generated order.
fn peers_from(raw: &[(u32, u32)]) -> Vec<Peer> {
    let mut peers: Vec<Peer> = Vec::new();
    for &(neighbor, cost) in raw {
        let neighbor = NodeId::new(neighbor);
        if peers.iter().all(|p| p.neighbor != neighbor) {
            peers.push(Peer {
                neighbor,
                cost,
                up: true,
            });
        }
    }
    peers
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn slot_rows_select_like_per_neighbor_vectors(
        raw_peers in prop::collection::vec((0u32..12, 1u32..4), 1..7),
        ops in prop::collection::vec(((0u8..5, 0usize..7), (0u32..8, 0u32..18)), 1..120),
    ) {
        let mut peers = peers_from(&raw_peers);
        let mut cache = NeighborCache::new(DESTS, peers.len());
        let mut reference = Reference::default();
        for &((kind, slot), (dest, metric)) in &ops {
            let slot = slot % peers.len();
            let neighbor = peers[slot].neighbor;
            let dest = NodeId::new(dest);
            match kind {
                // Announcements; metrics from 16 up are withdrawals.
                0 | 1 => {
                    prop_assert_eq!(
                        cache.update(slot, dest, Metric::new(metric)),
                        reference.update(neighbor, dest, Metric::new(metric))
                    );
                }
                2 => {
                    cache.invalidate(slot);
                    reference.invalidate(neighbor);
                }
                _ => peers[slot].up = !peers[slot].up,
            }
            for d in 0..DESTS as u32 {
                let d = NodeId::new(d);
                prop_assert_eq!(cache.best(d, &peers), reference.best(d, &peers));
            }
        }
    }
}
