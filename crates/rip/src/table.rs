//! The RIP routing table.
//!
//! Plain RIP keeps *only the best route* per destination — the design choice
//! the paper blames for RIP's long path switch-over period (§4.1): when the
//! next hop dies, nothing else is remembered, so reachability returns only
//! with a neighbor's next periodic update.
//!
//! The table also keeps the set of destinations whose route changed since
//! the last update went out (the route-change flags of RFC 2453 §3.10.1),
//! as one bitset beside the routes rather than a flag in each. Checking
//! for pending changes after a message is then one comparison, and a
//! triggered update walks only the changed destinations, in ascending
//! order, instead of the whole table. Only a destination with a route is
//! ever marked: [`RipTable::mark_changed`] ignores a missing route and
//! [`RipTable::remove`] drops the mark with the route.

use netsim::dense::DenseSet;
use netsim::ident::NodeId;
use netsim::protocol::TimerId;
use netsim::time::SimTime;
use routing_core::Metric;

/// One routing-table entry. Whether it changed since the last update is
/// kept by the [`RipTable`], not here.
#[derive(Debug, Clone)]
pub struct Route {
    /// Current distance to the destination (16 = unreachable, kept around
    /// for poisoned advertisement until garbage collection).
    pub metric: Metric,
    /// The neighbor packets are forwarded to (`None` only for the self
    /// route).
    pub next_hop: Option<NodeId>,
    /// Pending timeout timer, if the route is live.
    pub timeout_timer: Option<TimerId>,
    /// Pending garbage-collection timer, if the route is dying.
    pub gc_timer: Option<TimerId>,
    /// Hold-down deadline: until then, updates about this destination are
    /// ignored (classic loop mitigation by delaying reconvergence;
    /// disabled unless [`RipConfig::hold_down`](crate::RipConfig) is set).
    pub hold_until: Option<SimTime>,
}

/// A destination-indexed table of best routes and the set of
/// destinations whose route changed since the last update.
#[derive(Debug, Clone, Default)]
pub struct RipTable {
    routes: Vec<Option<Route>>,
    /// Destinations with a route whose change is not yet advertised.
    changed: DenseSet,
}

impl RipTable {
    /// Creates a table able to hold `num_nodes` destinations.
    #[must_use]
    pub fn new(num_nodes: usize) -> Self {
        RipTable {
            routes: (0..num_nodes).map(|_| None).collect(),
            changed: DenseSet::new(),
        }
    }

    /// The route for `dest`, if any.
    #[must_use]
    pub fn get(&self, dest: NodeId) -> Option<&Route> {
        self.routes.get(dest.index())?.as_ref()
    }

    /// Mutable access to the route for `dest`.
    pub fn get_mut(&mut self, dest: NodeId) -> Option<&mut Route> {
        self.routes.get_mut(dest.index())?.as_mut()
    }

    /// Inserts or replaces the route for `dest`. The change set is left
    /// as it is: a new route that must be advertised is marked with
    /// [`RipTable::mark_changed`].
    ///
    /// # Panics
    ///
    /// Panics if `dest` is out of range.
    pub fn insert(&mut self, dest: NodeId, route: Route) {
        self.routes[dest.index()] = Some(route);
    }

    /// Marks the route for `dest` as changed, so the next triggered update
    /// carries it; does nothing if `dest` has no route.
    pub fn mark_changed(&mut self, dest: NodeId) {
        if self.get(dest).is_some() {
            self.changed.insert(dest);
        }
    }

    /// Removes the route for `dest` entirely (garbage collection), and
    /// its change mark with it.
    pub fn remove(&mut self, dest: NodeId) -> Option<Route> {
        self.changed.remove(dest);
        self.routes.get_mut(dest.index())?.take()
    }

    /// Iterates over `(dest, route)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Route)> {
        self.routes
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|route| (NodeId::new(i as u32), route)))
    }

    /// Whether any route changed since the change set was last cleared.
    #[must_use]
    pub fn has_changes(&self) -> bool {
        !self.changed.is_empty()
    }

    /// The destinations whose route changed, in ascending order.
    pub fn changed_dests(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.changed.iter()
    }

    /// Empties the change set (after an update has been sent).
    pub fn clear_changed(&mut self) {
        self.changed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live_route(metric: u32, next_hop: u32) -> Route {
        Route {
            metric: Metric::new(metric),
            next_hop: Some(NodeId::new(next_hop)),
            timeout_timer: None,
            gc_timer: None,
            hold_until: None,
        }
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut t = RipTable::new(4);
        t.insert(NodeId::new(2), live_route(3, 1));
        assert_eq!(t.get(NodeId::new(2)).unwrap().metric, Metric::new(3));
        assert!(t.remove(NodeId::new(2)).is_some());
        assert!(t.get(NodeId::new(2)).is_none());
    }

    fn changed(t: &RipTable) -> Vec<NodeId> {
        t.changed_dests().collect()
    }

    #[test]
    fn marks_are_listed_in_ascending_order() {
        let mut t = RipTable::new(70);
        for dest in [66, 3, 0, 64] {
            t.insert(NodeId::new(dest), live_route(1, 1));
        }
        assert!(!t.has_changes(), "inserting marks nothing");
        for dest in [64, 3, 66, 0, 3] {
            t.mark_changed(NodeId::new(dest));
        }
        assert!(t.has_changes());
        let expected: Vec<NodeId> = [0, 3, 64, 66].into_iter().map(NodeId::new).collect();
        assert_eq!(changed(&t), expected);
    }

    #[test]
    fn only_destinations_with_a_route_are_marked() {
        let mut t = RipTable::new(4);
        t.mark_changed(NodeId::new(2));
        assert!(!t.has_changes());
    }

    #[test]
    fn reinserting_without_a_change_keeps_the_set() {
        let mut t = RipTable::new(4);
        t.insert(NodeId::new(1), live_route(1, 0));
        t.insert(NodeId::new(2), live_route(1, 0));
        t.mark_changed(NodeId::new(1));
        t.insert(NodeId::new(1), live_route(2, 3));
        t.insert(NodeId::new(2), live_route(2, 3));
        assert_eq!(changed(&t), vec![NodeId::new(1)]);
    }

    #[test]
    fn garbage_collection_drops_the_mark() {
        let mut t = RipTable::new(4);
        t.insert(NodeId::new(3), live_route(2, 1));
        t.mark_changed(NodeId::new(3));
        assert!(t.remove(NodeId::new(3)).is_some());
        assert!(!t.has_changes());
        assert!(changed(&t).is_empty());
        t.insert(NodeId::new(3), live_route(2, 1));
        assert!(!t.has_changes(), "a route installed again starts unmarked");
    }

    #[test]
    fn clearing_empties_the_set() {
        let mut t = RipTable::new(4);
        t.insert(NodeId::new(0), live_route(1, 1));
        t.insert(NodeId::new(3), live_route(2, 1));
        t.mark_changed(NodeId::new(3));
        assert_eq!(changed(&t), vec![NodeId::new(3)]);
        t.clear_changed();
        assert!(!t.has_changes());
        assert!(changed(&t).is_empty());
    }

    #[test]
    fn iter_skips_missing_destinations() {
        let mut t = RipTable::new(5);
        t.insert(NodeId::new(1), live_route(1, 0));
        t.insert(NodeId::new(4), live_route(1, 0));
        let dests: Vec<NodeId> = t.iter().map(|(d, _)| d).collect();
        assert_eq!(dests, vec![NodeId::new(1), NodeId::new(4)]);
    }

    #[test]
    fn out_of_range_lookups_are_none() {
        let t = RipTable::new(2);
        assert!(t.get(NodeId::new(7)).is_none());
    }
}
