//! Turning an abstract [`Graph`] into a simulated network.

use std::collections::BTreeMap;

use netsim::error::BuildError;
use netsim::ident::LinkId;
use netsim::link::LinkConfig;
use netsim::simulator::SimulatorBuilder;

use crate::graph::{Edge, Graph};

/// Adds every node and edge of `graph` to a fresh [`SimulatorBuilder`],
/// returning the builder and the edge-to-link mapping (needed to schedule
/// failures of specific topology edges).
///
/// # Errors
///
/// Propagates [`BuildError`]s from the builder (cannot occur for a valid
/// [`Graph`], which already excludes self-loops and duplicates).
///
/// # Examples
///
/// ```
/// use topology::mesh::{Mesh, MeshDegree};
/// use topology::instantiate::to_simulator_builder;
/// use netsim::link::LinkConfig;
///
/// let mesh = Mesh::regular(7, 7, MeshDegree::D4);
/// let (builder, links) = to_simulator_builder(mesh.graph(), LinkConfig::default())?;
/// let sim = builder.build()?;
/// assert_eq!(sim.num_nodes(), 49);
/// assert_eq!(links.len(), mesh.graph().num_edges());
/// # Ok::<(), netsim::error::BuildError>(())
/// ```
pub fn to_simulator_builder(
    graph: &Graph,
    config: LinkConfig,
) -> Result<(SimulatorBuilder, BTreeMap<Edge, LinkId>), BuildError> {
    let mut builder = SimulatorBuilder::new();
    builder.add_nodes(graph.num_nodes());
    let mut mapping = BTreeMap::new();
    for edge in graph.edges() {
        let link = builder.add_link(edge.a, edge.b, config)?;
        mapping.insert(edge, link);
    }
    Ok((builder, mapping))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::{Mesh, MeshDegree};
    use netsim::ident::NodeId;

    #[test]
    fn every_edge_becomes_a_link() {
        let mesh = Mesh::regular(5, 5, MeshDegree::D6);
        let (builder, links) = to_simulator_builder(mesh.graph(), LinkConfig::default()).unwrap();
        let sim = builder.build().unwrap();
        assert_eq!(sim.num_links(), mesh.graph().num_edges());
        for (edge, link) in &links {
            let (a, b) = sim.link_endpoints(*link);
            assert_eq!(Edge::new(a, b), *edge);
        }
    }

    #[test]
    fn adjacency_matches_graph() {
        let mesh = Mesh::regular(4, 4, MeshDegree::D4);
        let (builder, _) = to_simulator_builder(mesh.graph(), LinkConfig::default()).unwrap();
        let sim = builder.build().unwrap();
        for node in mesh.graph().nodes() {
            let mut sim_neighbors = sim.neighbors(node);
            let mut graph_neighbors = mesh.graph().neighbors(node).to_vec();
            sim_neighbors.sort_unstable();
            graph_neighbors.sort_unstable();
            assert_eq!(sim_neighbors, graph_neighbors, "mismatch at {node}");
        }
        assert_eq!(sim.neighbors(NodeId::new(0)).len(), 2);
    }
}
