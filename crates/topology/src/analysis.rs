//! Structural analysis used by the experiments and the property-test suite.
//!
//! §4.4 of the paper argues that rich connectivity (a) multiplies alternate
//! paths and (b) shrinks path lengths. The helpers here quantify both claims
//! for any topology, and provide the survivability check the failure planner
//! relies on (never partition the network with the injected failure).

use netsim::ident::NodeId;

use crate::graph::{Edge, Graph};
use crate::shortest_path::{all_pairs_distances, bfs};

/// Summary statistics of a node-degree distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Smallest degree.
    pub min: usize,
    /// Largest degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
}

/// Computes degree statistics, or `None` for a graph with no nodes.
#[must_use]
pub fn degree_stats(graph: &Graph) -> Option<DegreeStats> {
    let degrees: Vec<usize> = graph.nodes().map(|n| graph.degree(n)).collect();
    Some(DegreeStats {
        min: *degrees.iter().min()?,
        max: *degrees.iter().max()?,
        mean: degrees.iter().sum::<usize>() as f64 / degrees.len() as f64,
    })
}

/// Mean hop distance over all ordered reachable pairs, or `None` if the
/// graph is disconnected or has fewer than two nodes.
#[must_use]
pub fn mean_path_length(graph: &Graph) -> Option<f64> {
    if graph.num_nodes() < 2 {
        return None;
    }
    let mut total = 0u64;
    let mut pairs = 0u64;
    for (i, row) in all_pairs_distances(graph).iter().enumerate() {
        for (j, d) in row.iter().enumerate() {
            if i == j {
                continue;
            }
            total += u64::from((*d)?);
            pairs += 1;
        }
    }
    Some(total as f64 / pairs as f64)
}

/// Returns `true` if removing `edge` leaves the graph connected, i.e. the
/// edge is not a bridge.
///
/// # Panics
///
/// Panics if the edge does not exist.
#[must_use]
pub fn survives_failure(graph: &Graph, edge: Edge) -> bool {
    graph.without_edge(edge).is_connected()
}

/// Returns `true` if after removing `edge`, node `from` still reaches `to`
/// — the "valid alternate path exists" condition of §4.2.
///
/// # Panics
///
/// Panics if the edge does not exist or nodes are out of range.
#[must_use]
pub fn has_valid_alternate(graph: &Graph, edge: Edge, from: NodeId, to: NodeId) -> bool {
    bfs(&graph.without_edge(edge), from).distance(to).is_some()
}

/// For every node adjacent to a failed edge's upstream endpoint, counts how
/// many neighbors still reach `dst` without the failed edge. This is the
/// quantity Observation 1 of the paper attributes the degree-6 threshold to.
///
/// # Panics
///
/// Panics if the edge does not exist.
#[must_use]
pub fn alternate_next_hops(graph: &Graph, edge: Edge, at: NodeId, dst: NodeId) -> usize {
    let without = graph.without_edge(edge);
    without
        .neighbors(at)
        .iter()
        .filter(|&&nh| bfs(&without, nh).distance(dst).is_some())
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::{Mesh, MeshDegree};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn degree_stats_on_grid() {
        let mesh = Mesh::regular(7, 7, MeshDegree::D4);
        let stats = degree_stats(mesh.graph()).unwrap();
        assert_eq!(stats.min, 2); // corners
        assert_eq!(stats.max, 4); // interior
        assert!(stats.mean > 2.0 && stats.mean < 4.0);
    }

    #[test]
    fn mean_path_length_shrinks_with_degree() {
        let mpl = |d: MeshDegree| mean_path_length(Mesh::regular(7, 7, d).graph()).unwrap();
        assert!(mpl(MeshDegree::D3) > mpl(MeshDegree::D4));
        assert!(mpl(MeshDegree::D4) > mpl(MeshDegree::D6));
        assert!(mpl(MeshDegree::D6) > mpl(MeshDegree::D8));
    }

    #[test]
    fn mean_path_length_none_for_disconnected() {
        let mut g = Graph::new(3);
        g.add_edge(n(0), n(1));
        assert_eq!(mean_path_length(&g), None);
    }

    #[test]
    fn bridge_detection() {
        // 0-1-2 line: every edge is a bridge.
        let mut g = Graph::new(3);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        assert!(!survives_failure(&g, Edge::new(n(0), n(1))));
        // Add the closing edge: now a cycle, no bridges.
        g.add_edge(n(0), n(2));
        assert!(survives_failure(&g, Edge::new(n(0), n(1))));
    }

    #[test]
    fn regular_meshes_survive_any_single_failure() {
        for degree in MeshDegree::ALL {
            let mesh = Mesh::regular(7, 7, degree);
            for edge in mesh.graph().edges() {
                assert!(
                    survives_failure(mesh.graph(), edge),
                    "{degree}: removing {edge:?} partitioned the mesh"
                );
            }
        }
    }

    #[test]
    fn alternate_next_hops_counts_surviving_neighbors() {
        // Square 0-1-2-3-0: after edge (0,1) fails, node 0 keeps one
        // neighbor (3) and it still reaches node 1 the long way.
        let mut g = Graph::new(4);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        g.add_edge(n(2), n(3));
        g.add_edge(n(3), n(0));
        let edge = Edge::new(n(0), n(1));
        assert_eq!(alternate_next_hops(&g, edge, n(0), n(1)), 1);

        // On a line 0-1-2, losing (0,1) strands node 0 entirely.
        let mut line = Graph::new(3);
        line.add_edge(n(0), n(1));
        line.add_edge(n(1), n(2));
        let edge = Edge::new(n(0), n(1));
        assert_eq!(alternate_next_hops(&line, edge, n(0), n(2)), 0);
    }

    #[test]
    fn alternate_next_hops_grows_with_degree() {
        // Observation 1's mechanism: the failure-adjacent node has more
        // surviving next hops toward the receiver in denser meshes.
        let count_at = |degree: MeshDegree| {
            let mesh = Mesh::regular(7, 7, degree);
            let at = mesh.node_at(3, 3);
            let edge = Edge::new(at, mesh.node_at(4, 3));
            alternate_next_hops(mesh.graph(), edge, at, mesh.node_at(6, 3))
        };
        assert!(count_at(MeshDegree::D4) < count_at(MeshDegree::D6));
        assert!(count_at(MeshDegree::D6) < count_at(MeshDegree::D8));
    }

    #[test]
    fn valid_alternate_exists_in_dense_mesh() {
        let mesh = Mesh::regular(7, 7, MeshDegree::D6);
        let edge = mesh.graph().edges().next().expect("mesh has edges");
        assert!(has_valid_alternate(
            mesh.graph(),
            edge,
            edge.a,
            mesh.node_at(6, 6)
        ));
    }
}
