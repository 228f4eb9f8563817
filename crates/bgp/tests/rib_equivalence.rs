//! The slot-indexed [`AdjRibIn`] selects exactly what a per-neighbor
//! Adj-RIB-In keyed by neighbor id selects.
//!
//! The reference below is the table's previous shape: one path vector per
//! neighbor, visited in ascending neighbor id, with up-state looked up per
//! candidate. Random sequences of announcements, withdrawals, session
//! resets (`clear_neighbor`), peer up/down flips and flap-suppressed
//! `(neighbor, destination)` pairs drive both; after every step both must
//! select the same `(neighbor, path)` for every destination. Every
//! generated path gets a fresh handle in one [`PathTable`], and the table
//! keeps the stored handle when an equal path arrives, so selections and
//! stored paths are compared by their resolved hops.

use std::collections::{BTreeMap, BTreeSet};

use bgp::rib::select;
use bgp::AdjRibIn;
use netsim::ident::NodeId;
use netsim::simulator::Peer;
use proptest::prelude::*;
use routing_core::path::{AsPath, PathTable};

const DESTS: usize = 8;

/// Per-neighbor path vectors keyed by neighbor id.
#[derive(Default)]
struct Reference {
    paths: BTreeMap<NodeId, Vec<Option<AsPath>>>,
}

impl Reference {
    fn set(&mut self, neighbor: NodeId, dest: NodeId, path: Option<AsPath>) {
        self.paths
            .entry(neighbor)
            .or_insert_with(|| vec![None; DESTS])[dest.index()] = path;
    }

    fn clear_neighbor(&mut self, neighbor: NodeId) {
        self.paths.remove(&neighbor);
    }

    fn best(
        &self,
        dest: NodeId,
        peers: &[Peer],
        suppressed: &BTreeSet<(NodeId, NodeId)>,
    ) -> Option<(NodeId, AsPath)> {
        let up = |n: NodeId| peers.iter().any(|p| p.neighbor == n && p.up);
        select(self.paths.iter().filter_map(|(&n, table)| {
            let path = table[dest.index()]?;
            (up(n) && !suppressed.contains(&(n, dest))).then_some((n, path))
        }))
    }
}

/// Peers with distinct neighbor ids, in the (arbitrary) generated order.
fn peers_from(raw: &[u32]) -> Vec<Peer> {
    let mut peers: Vec<Peer> = Vec::new();
    for &neighbor in raw {
        let neighbor = NodeId::new(neighbor);
        if peers.iter().all(|p| p.neighbor != neighbor) {
            peers.push(Peer {
                neighbor,
                cost: 1,
                up: true,
            });
        }
    }
    peers
}

/// An announced path: starts at the announcing neighbor, `len` ASes long,
/// with `variant` telling apart equal-length paths.
fn path(table: &mut PathTable, neighbor: NodeId, len: u32, variant: u32) -> AsPath {
    let mut hops = vec![neighbor];
    hops.extend((1..len).map(|i| NodeId::new(100 + variant * 10 + i)));
    table.from_hops(&hops).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn slot_rows_select_like_per_neighbor_tables(
        raw_peers in prop::collection::vec(0u32..12, 1..7),
        ops in prop::collection::vec(((0u8..7, 0usize..7), (0u32..8, 1u32..5, 0u32..3)), 1..120),
    ) {
        let mut peers = peers_from(&raw_peers);
        let mut table = PathTable::new();
        let mut rib = AdjRibIn::new(DESTS, peers.len());
        let mut reference = Reference::default();
        let mut suppressed = BTreeSet::new();
        for &((kind, slot), (dest, len, variant)) in &ops {
            let slot = slot % peers.len();
            let neighbor = peers[slot].neighbor;
            let dest = NodeId::new(dest);
            match kind {
                0 | 1 => {
                    let p = path(&mut table, neighbor, len, variant);
                    rib.set(&table, slot, dest, Some(p));
                    reference.set(neighbor, dest, Some(p));
                }
                2 => {
                    rib.set(&table, slot, dest, None);
                    reference.set(neighbor, dest, None);
                }
                3 => {
                    rib.clear_neighbor(slot);
                    reference.clear_neighbor(neighbor);
                }
                4 => peers[slot].up = !peers[slot].up,
                _ => {
                    if !suppressed.remove(&(neighbor, dest)) {
                        suppressed.insert((neighbor, dest));
                    }
                }
            }
            let hops = |path: AsPath| table.hops(path).to_vec();
            for d in 0..DESTS as u32 {
                let d = NodeId::new(d);
                prop_assert_eq!(
                    rib.best(d, &peers, |n| !suppressed.contains(&(n, d)))
                        .map(|(n, p)| (n, hops(p))),
                    reference.best(d, &peers, &suppressed).map(|(n, p)| (n, hops(p)))
                );
            }
            for (s, peer) in peers.iter().enumerate() {
                let stored = rib.get(s, dest);
                let expected = reference
                    .paths
                    .get(&peer.neighbor)
                    .and_then(|t| t[dest.index()]);
                prop_assert_eq!(stored.map(hops), expected.map(hops));
            }
        }
    }
}
