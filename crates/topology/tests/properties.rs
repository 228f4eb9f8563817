//! Property-based tests over the topology crate.

use netsim::ident::NodeId;
use netsim::rng::SimRng;
use proptest::prelude::*;
use topology::analysis::survives_failure;
use topology::graph::Graph;
use topology::mesh::{Mesh, MeshDegree};
use topology::random::gilbert;
use topology::shortest_path::{all_pairs_distances, bfs};

fn degree_strategy() -> impl Strategy<Value = MeshDegree> {
    prop::sample::select(MeshDegree::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every interior node of every mesh size has exactly the nominal degree.
    #[test]
    fn mesh_interior_regularity(rows in 3usize..9, cols in 3usize..9, degree in degree_strategy()) {
        let mesh = Mesh::regular(rows, cols, degree);
        for node in mesh.graph().nodes() {
            if mesh.is_interior(node) {
                prop_assert_eq!(mesh.graph().degree(node) as u32, degree.as_u32());
            } else {
                prop_assert!(mesh.graph().degree(node) as u32 <= degree.as_u32());
            }
        }
    }

    /// All regular meshes are connected and survive any single link failure.
    #[test]
    fn mesh_single_failure_survivability(rows in 3usize..8, cols in 3usize..8, degree in degree_strategy()) {
        let mesh = Mesh::regular(rows, cols, degree);
        prop_assert!(mesh.graph().is_connected());
        for edge in mesh.graph().edges() {
            prop_assert!(survives_failure(mesh.graph(), edge));
        }
    }

    /// BFS distances satisfy the triangle inequality over one hop:
    /// |d(u) - d(v)| <= 1 for every edge {u, v}.
    #[test]
    fn bfs_distances_are_lipschitz(rows in 3usize..8, cols in 3usize..8, degree in degree_strategy(), src_ix in 0usize..64) {
        let mesh = Mesh::regular(rows, cols, degree);
        let n = mesh.graph().num_nodes();
        let src = NodeId::new((src_ix % n) as u32);
        let sp = bfs(mesh.graph(), src);
        for edge in mesh.graph().edges() {
            let du = sp.distance(edge.a).unwrap() as i64;
            let dv = sp.distance(edge.b).unwrap() as i64;
            prop_assert!((du - dv).abs() <= 1, "edge {:?}: {} vs {}", edge, du, dv);
        }
    }

    /// Every BFS path is a real path in the graph and has length == distance.
    #[test]
    fn bfs_paths_are_consistent(rows in 3usize..7, cols in 3usize..7, degree in degree_strategy()) {
        let mesh = Mesh::regular(rows, cols, degree);
        let src = mesh.node_at(0, 0);
        let sp = bfs(mesh.graph(), src);
        for dst in mesh.graph().nodes() {
            let path = sp.path_to(dst).unwrap();
            prop_assert_eq!(path.len() as u32 - 1, sp.distance(dst).unwrap());
            prop_assert_eq!(*path.first().unwrap(), src);
            prop_assert_eq!(*path.last().unwrap(), dst);
            for w in path.windows(2) {
                prop_assert!(mesh.graph().has_edge(w[0], w[1]));
            }
        }
    }

    /// Random graphs from the same seed are identical; all are connected.
    #[test]
    fn gilbert_determinism_and_connectivity(seed in 0u64..500, n in 5usize..40) {
        let a = gilbert(n, 0.1, &mut SimRng::seed_from(seed));
        let b = gilbert(n, 0.1, &mut SimRng::seed_from(seed));
        prop_assert_eq!(&a, &b);
        prop_assert!(a.is_connected());
    }

    /// Mesh shortest-path distances are symmetric, zero exactly on the
    /// diagonal, and bounded by the grid's worst-case diameter — for
    /// arbitrary grid sizes and every nominal degree.
    #[test]
    fn mesh_distances_symmetric_and_bounded(
        rows in 3usize..9,
        cols in 3usize..9,
        degree in degree_strategy(),
    ) {
        let mesh = Mesh::regular(rows, cols, degree);
        let d = all_pairs_distances(mesh.graph());
        // Degree 3 omits some lattice links, but never disconnects the
        // grid or worse than doubles the degree-4 Manhattan diameter.
        let diameter_bound = 2 * (rows + cols) as u32;
        for (i, row) in d.iter().enumerate() {
            for (j, value) in row.iter().enumerate() {
                prop_assert_eq!(*value, d[j][i], "asymmetry at ({}, {})", i, j);
                if i == j {
                    prop_assert_eq!(*value, Some(0));
                } else {
                    let dist = value.expect("regular meshes are connected");
                    prop_assert!(dist >= 1);
                    prop_assert!(dist <= diameter_bound,
                        "distance {} exceeds bound {}", dist, diameter_bound);
                }
            }
        }
    }

    /// Distance matrices are symmetric and zero on the diagonal.
    #[test]
    fn distances_symmetric(seed in 0u64..100) {
        let g = gilbert(15, 0.25, &mut SimRng::seed_from(seed));
        let d = all_pairs_distances(&g);
        for (i, row) in d.iter().enumerate() {
            prop_assert_eq!(row[i], Some(0));
            for (j, value) in row.iter().enumerate() {
                prop_assert_eq!(*value, d[j][i]);
            }
        }
    }
}

#[test]
fn handshake_lemma_holds_for_all_meshes() {
    for degree in MeshDegree::ALL {
        let mesh = Mesh::regular(7, 7, degree);
        let degree_sum: usize = mesh.graph().nodes().map(|n| mesh.graph().degree(n)).sum();
        assert_eq!(degree_sum, 2 * mesh.graph().num_edges());
    }
}

#[test]
fn graph_equality_is_structural() {
    let mut a = Graph::new(3);
    a.add_edge(NodeId::new(0), NodeId::new(1));
    a.add_edge(NodeId::new(1), NodeId::new(2));
    let mut b = Graph::new(3);
    b.add_edge(NodeId::new(1), NodeId::new(2));
    b.add_edge(NodeId::new(1), NodeId::new(0));
    // Same edge set but different insertion order: adjacency lists differ,
    // which is observable (deterministic iteration), so equality is strict.
    assert_ne!(a, b);
}
