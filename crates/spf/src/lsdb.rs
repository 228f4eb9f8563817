//! The link-state database and shortest-path-first computation.

use std::collections::BinaryHeap;

use netsim::ident::NodeId;
use serde::{Deserialize, Serialize};

/// A link-state advertisement: one router's view of its adjacencies.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Lsa {
    /// The originating router.
    pub origin: NodeId,
    /// Monotonic sequence number; higher replaces lower.
    pub seq: u64,
    /// The origin's live adjacencies and link costs.
    pub neighbors: Vec<(NodeId, u32)>,
}

/// The collected LSAs of every known router.
#[derive(Debug, Clone, Default)]
pub struct LinkStateDb {
    entries: Vec<Option<Lsa>>,
}

impl LinkStateDb {
    /// Creates a database for `num_nodes` routers.
    #[must_use]
    pub fn new(num_nodes: usize) -> Self {
        LinkStateDb {
            entries: vec![None; num_nodes],
        }
    }

    /// Installs `lsa` if it is newer than the stored instance.
    ///
    /// Returns `true` if the database changed (the LSA must be flooded on).
    ///
    /// # Panics
    ///
    /// Panics if the origin is out of range.
    pub fn install(&mut self, lsa: Lsa) -> bool {
        let slot = &mut self.entries[lsa.origin.index()];
        match slot {
            Some(existing) if existing.seq >= lsa.seq => false,
            _ => {
                *slot = Some(lsa);
                true
            }
        }
    }

    /// Installs a borrowed LSA if it is newer than the stored instance,
    /// cloning it only when accepted — a stale flood costs nothing.
    ///
    /// Returns `true` if the database changed (the LSA must be flooded on).
    ///
    /// # Panics
    ///
    /// Panics if the origin is out of range.
    pub fn install_if_newer(&mut self, lsa: &Lsa) -> bool {
        let slot = &mut self.entries[lsa.origin.index()];
        match slot {
            Some(existing) if existing.seq >= lsa.seq => false,
            _ => {
                *slot = Some(lsa.clone());
                true
            }
        }
    }

    /// The stored LSA for `origin`.
    #[must_use]
    pub fn get(&self, origin: NodeId) -> Option<&Lsa> {
        self.entries.get(origin.index())?.as_ref()
    }

    /// Returns `true` if the database records a *bidirectional* link
    /// `a <-> b` (both LSAs list each other), the standard two-way check
    /// that keeps half-dead links out of SPF.
    #[must_use]
    pub fn has_bidirectional(&self, a: NodeId, b: NodeId) -> bool {
        let lists = |x: NodeId, y: NodeId| {
            self.get(x)
                .is_some_and(|lsa| lsa.neighbors.iter().any(|&(n, _)| n == y))
        };
        lists(a, b) && lists(b, a)
    }

    /// Dijkstra from `source` over bidirectional links, returning
    /// `next_hop[dest]` (ties toward the lowest next-hop id, then lowest
    /// intermediate ids, deterministically).
    #[must_use]
    pub fn shortest_path_first(&self, source: NodeId) -> Vec<Option<NodeId>> {
        let n = self.entries.len();
        let mut dist = vec![u64::MAX; n];
        let mut first_hop: Vec<Option<NodeId>> = vec![None; n];
        let mut done = vec![false; n];
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u32, u32)>> = BinaryHeap::new();
        dist[source.index()] = 0;
        // Entries: (distance, tie-break id, node). The first hop is carried
        // implicitly through `first_hop`.
        heap.push(std::cmp::Reverse((
            0,
            source.index() as u32,
            source.index() as u32,
        )));
        while let Some(std::cmp::Reverse((d, _, at_ix))) = heap.pop() {
            let at = NodeId::new(at_ix);
            if done[at.index()] {
                continue;
            }
            done[at.index()] = true;
            let Some(lsa) = self.get(at) else { continue };
            let mut neighbors = lsa.neighbors.clone();
            neighbors.sort_unstable();
            for (next, cost) in neighbors {
                if next.index() >= n || !self.has_bidirectional(at, next) {
                    continue;
                }
                let nd = d + u64::from(cost);
                if nd < dist[next.index()] {
                    dist[next.index()] = nd;
                    first_hop[next.index()] = if at == source {
                        Some(next)
                    } else {
                        first_hop[at.index()]
                    };
                    heap.push(std::cmp::Reverse((
                        nd,
                        next.index() as u32,
                        next.index() as u32,
                    )));
                }
            }
        }
        first_hop[source.index()] = None;
        first_hop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn lsa(origin: u32, seq: u64, neighbors: &[u32]) -> Lsa {
        Lsa {
            origin: n(origin),
            seq,
            neighbors: neighbors.iter().map(|&x| (n(x), 1)).collect(),
        }
    }

    fn line_db() -> LinkStateDb {
        // 0 - 1 - 2 - 3
        let mut db = LinkStateDb::new(4);
        db.install(lsa(0, 1, &[1]));
        db.install(lsa(1, 1, &[0, 2]));
        db.install(lsa(2, 1, &[1, 3]));
        db.install(lsa(3, 1, &[2]));
        db
    }

    #[test]
    fn install_honors_sequence_numbers() {
        let mut db = LinkStateDb::new(2);
        assert!(db.install(lsa(0, 5, &[1])));
        assert!(!db.install(lsa(0, 5, &[1])));
        assert!(!db.install(lsa(0, 4, &[])));
        assert!(db.install(lsa(0, 6, &[])));
        assert_eq!(db.get(n(0)).unwrap().neighbors.len(), 0);
    }

    #[test]
    fn bidirectional_check_requires_both_sides() {
        let mut db = LinkStateDb::new(3);
        db.install(lsa(0, 1, &[1]));
        assert!(!db.has_bidirectional(n(0), n(1)));
        db.install(lsa(1, 1, &[0]));
        assert!(db.has_bidirectional(n(0), n(1)));
        assert!(db.has_bidirectional(n(1), n(0)));
    }

    #[test]
    fn spf_on_line_routes_through_the_chain() {
        let db = line_db();
        let hops = db.shortest_path_first(n(0));
        assert_eq!(hops[1], Some(n(1)));
        assert_eq!(hops[2], Some(n(1)));
        assert_eq!(hops[3], Some(n(1)));
        assert_eq!(hops[0], None);
    }

    #[test]
    fn spf_ignores_half_dead_links() {
        let mut db = line_db();
        // Node 2 stops listing 3 (e.g. 2 detected the failure first).
        db.install(lsa(2, 2, &[1]));
        let hops = db.shortest_path_first(n(0));
        assert_eq!(hops[3], None, "dest 3 must be unreachable");
    }

    #[test]
    fn spf_picks_shortest_of_two_branches() {
        // Square 0-1-3 / 0-2-3 plus direct 0-3 long way is equal; with unit
        // costs both branches tie at 2, lowest first-hop wins.
        let mut db = LinkStateDb::new(4);
        db.install(lsa(0, 1, &[1, 2]));
        db.install(lsa(1, 1, &[0, 3]));
        db.install(lsa(2, 1, &[0, 3]));
        db.install(lsa(3, 1, &[1, 2]));
        let hops = db.shortest_path_first(n(0));
        assert_eq!(hops[3], Some(n(1)), "tie must break to the lower id");
    }
}
