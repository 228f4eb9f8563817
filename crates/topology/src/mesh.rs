//! Baran-style regular mesh topologies.
//!
//! The paper evaluates protocols on an *n × n* mesh in which every node off
//! the border has the same degree, "constructed with a deterministic method
//! similar to the one used by Baran" (§5). This module provides one such
//! deterministic family for interior degrees 3 through 8:
//!
//! * **3** — brick wall: all horizontal links, vertical links only where
//!   `(row + col)` is even;
//! * **4** — the full rectangular grid;
//! * **5** — grid plus `\` diagonals on even rows (each interior node gains
//!   exactly one diagonal);
//! * **6** — grid plus all `\` diagonals;
//! * **7** — degree 6 plus `/` diagonals on even rows;
//! * **8** — grid plus all `\` and `/` diagonals.
//!
//! The sender attaches to a first-row router and the receiver to a last-row
//! router, so [`Mesh::first_row`] and [`Mesh::last_row`] expose those sets.

use std::fmt;

use netsim::ident::NodeId;
use serde::{Deserialize, Serialize};

use crate::graph::Graph;

/// The interior node degree of a regular mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MeshDegree {
    /// Brick wall, interior degree 3.
    D3,
    /// Rectangular grid, interior degree 4.
    D4,
    /// Grid + matched `\` diagonals, interior degree 5.
    D5,
    /// Grid + all `\` diagonals, interior degree 6.
    D6,
    /// Degree 6 + matched `/` diagonals, interior degree 7.
    D7,
    /// Grid + all diagonals, interior degree 8.
    D8,
}

impl MeshDegree {
    /// All degrees in ascending order (the paper's x-axis).
    pub const ALL: [MeshDegree; 6] = [
        MeshDegree::D3,
        MeshDegree::D4,
        MeshDegree::D5,
        MeshDegree::D6,
        MeshDegree::D7,
        MeshDegree::D8,
    ];

    /// The numeric interior degree.
    #[must_use]
    pub fn as_u32(self) -> u32 {
        match self {
            MeshDegree::D3 => 3,
            MeshDegree::D4 => 4,
            MeshDegree::D5 => 5,
            MeshDegree::D6 => 6,
            MeshDegree::D7 => 7,
            MeshDegree::D8 => 8,
        }
    }

    /// Parses a numeric degree.
    ///
    /// # Errors
    ///
    /// Returns the offending value if it is outside `3..=8`.
    pub fn try_from_u32(d: u32) -> Result<Self, u32> {
        match d {
            3 => Ok(MeshDegree::D3),
            4 => Ok(MeshDegree::D4),
            5 => Ok(MeshDegree::D5),
            6 => Ok(MeshDegree::D6),
            7 => Ok(MeshDegree::D7),
            8 => Ok(MeshDegree::D8),
            other => Err(other),
        }
    }
}

impl fmt::Display for MeshDegree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_u32())
    }
}

/// A regular mesh: the graph plus its coordinate system.
///
/// # Examples
///
/// ```
/// use topology::mesh::{Mesh, MeshDegree};
///
/// // The paper's 7x7, 49-router topology at degree 6.
/// let mesh = Mesh::regular(7, 7, MeshDegree::D6);
/// assert_eq!(mesh.graph().num_nodes(), 49);
/// let center = mesh.node_at(3, 3);
/// assert_eq!(mesh.graph().degree(center), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mesh {
    rows: usize,
    cols: usize,
    degree: MeshDegree,
    graph: Graph,
}

impl Mesh {
    /// Builds the deterministic regular mesh of the requested interior
    /// degree.
    ///
    /// # Panics
    ///
    /// Panics if `rows < 3` or `cols < 3` (smaller meshes have no interior).
    #[must_use]
    pub fn regular(rows: usize, cols: usize, degree: MeshDegree) -> Self {
        assert!(rows >= 3 && cols >= 3, "mesh must be at least 3x3");
        let mut graph = Graph::new(rows * cols);
        let id = |r: usize, c: usize| NodeId::new((r * cols + c) as u32);

        // Horizontal links: in every construction.
        for r in 0..rows {
            for c in 0..cols - 1 {
                graph.add_edge(id(r, c), id(r, c + 1));
            }
        }
        // Vertical links: all, except the brick wall keeps only the
        // alternating half (but the border columns keep every vertical so no
        // corner dangles on a single bridge link).
        for r in 0..rows - 1 {
            for c in 0..cols {
                let border_col = c == 0 || c == cols - 1;
                if degree == MeshDegree::D3 && (r + c) % 2 != 0 && !border_col {
                    continue;
                }
                graph.add_edge(id(r, c), id(r + 1, c));
            }
        }
        // `\` diagonals.
        let backslash = |r: usize| match degree {
            MeshDegree::D3 | MeshDegree::D4 => false,
            MeshDegree::D5 => r.is_multiple_of(2),
            MeshDegree::D6 | MeshDegree::D7 | MeshDegree::D8 => true,
        };
        for r in 0..rows - 1 {
            if !backslash(r) {
                continue;
            }
            for c in 0..cols - 1 {
                graph.add_edge(id(r, c), id(r + 1, c + 1));
            }
        }
        // `/` diagonals.
        let slash = |r: usize| match degree {
            MeshDegree::D7 => r.is_multiple_of(2),
            MeshDegree::D8 => true,
            _ => false,
        };
        for r in 0..rows - 1 {
            if !slash(r) {
                continue;
            }
            for c in 1..cols {
                graph.add_edge(id(r, c), id(r + 1, c - 1));
            }
        }
        Mesh {
            rows,
            cols,
            degree,
            graph,
        }
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Consumes the mesh, returning the graph.
    #[must_use]
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The configured interior degree.
    #[must_use]
    pub fn degree(&self) -> MeshDegree {
        self.degree
    }

    /// The node at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    #[must_use]
    pub fn node_at(&self, row: usize, col: usize) -> NodeId {
        assert!(
            row < self.rows && col < self.cols,
            "({row},{col}) out of range"
        );
        NodeId::new((row * self.cols + col) as u32)
    }

    /// The `(row, col)` coordinates of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn coords(&self, node: NodeId) -> (usize, usize) {
        assert!(node.index() < self.rows * self.cols, "{node} out of range");
        (node.index() / self.cols, node.index() % self.cols)
    }

    /// Returns `true` if `node` is not on the border (and therefore has the
    /// full configured degree).
    #[must_use]
    pub fn is_interior(&self, node: NodeId) -> bool {
        let (r, c) = self.coords(node);
        r > 0 && r < self.rows - 1 && c > 0 && c < self.cols - 1
    }

    /// Nodes on the first row (sender attachment candidates).
    #[must_use]
    pub fn first_row(&self) -> Vec<NodeId> {
        (0..self.cols).map(|c| self.node_at(0, c)).collect()
    }

    /// Nodes on the last row (receiver attachment candidates).
    #[must_use]
    pub fn last_row(&self) -> Vec<NodeId> {
        (0..self.cols)
            .map(|c| self.node_at(self.rows - 1, c))
            .collect()
    }

    /// An ASCII rendering of the mesh (Figure 2 of the paper).
    #[must_use]
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        for r in 0..self.rows {
            // Node row with horizontal links.
            for c in 0..self.cols {
                out.push_str(&format!("{:>3}", self.node_at(r, c).index()));
                if c + 1 < self.cols {
                    out.push_str("---");
                }
            }
            out.push('\n');
            if r + 1 == self.rows {
                break;
            }
            // Connector row: vertical and diagonal links.
            for c in 0..self.cols {
                let down = self
                    .graph
                    .has_edge(self.node_at(r, c), self.node_at(r + 1, c));
                let diag_right = c + 1 < self.cols
                    && self
                        .graph
                        .has_edge(self.node_at(r, c), self.node_at(r + 1, c + 1));
                let diag_left_from_right = c + 1 < self.cols
                    && self
                        .graph
                        .has_edge(self.node_at(r, c + 1), self.node_at(r + 1, c));
                out.push_str(if down { "  | " } else { "    " });
                if c + 1 < self.cols {
                    out.push_str(match (diag_right, diag_left_from_right) {
                        (true, true) => " X",
                        (true, false) => " \\",
                        (false, true) => " /",
                        (false, false) => "  ",
                    });
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interior_degree_matches_spec_for_all_degrees() {
        for degree in MeshDegree::ALL {
            let mesh = Mesh::regular(7, 7, degree);
            for node in mesh.graph().nodes() {
                if mesh.is_interior(node) {
                    assert_eq!(
                        mesh.graph().degree(node) as u32,
                        degree.as_u32(),
                        "degree mismatch at {node} for {degree}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_meshes_are_connected() {
        for degree in MeshDegree::ALL {
            assert!(Mesh::regular(7, 7, degree).graph().is_connected());
            assert!(Mesh::regular(5, 9, degree).graph().is_connected());
        }
    }

    #[test]
    fn border_degrees_never_exceed_interior() {
        for degree in MeshDegree::ALL {
            let mesh = Mesh::regular(7, 7, degree);
            for node in mesh.graph().nodes() {
                assert!(mesh.graph().degree(node) as u32 <= degree.as_u32());
            }
        }
    }

    #[test]
    fn edge_counts_increase_with_degree() {
        let counts: Vec<usize> = MeshDegree::ALL
            .iter()
            .map(|&d| Mesh::regular(7, 7, d).graph().num_edges())
            .collect();
        for w in counts.windows(2) {
            assert!(
                w[0] < w[1],
                "edge counts not strictly increasing: {counts:?}"
            );
        }
    }

    #[test]
    fn coordinates_round_trip() {
        let mesh = Mesh::regular(7, 7, MeshDegree::D4);
        for r in 0..7 {
            for c in 0..7 {
                assert_eq!(mesh.coords(mesh.node_at(r, c)), (r, c));
            }
        }
    }

    #[test]
    fn paper_topology_has_49_nodes() {
        let mesh = Mesh::regular(7, 7, MeshDegree::D4);
        assert_eq!(mesh.graph().num_nodes(), 49);
        assert_eq!(mesh.first_row().len(), 7);
        assert_eq!(mesh.last_row().len(), 7);
        assert!(mesh.first_row().iter().all(|&n| n.index() < 7));
        assert!(mesh.last_row().iter().all(|&n| n.index() >= 42));
    }

    #[test]
    fn degree_parsing_round_trips() {
        for d in 3..=8 {
            assert_eq!(MeshDegree::try_from_u32(d).unwrap().as_u32(), d);
        }
        assert_eq!(MeshDegree::try_from_u32(2), Err(2));
        assert_eq!(MeshDegree::try_from_u32(9), Err(9));
    }

    #[test]
    fn ascii_render_contains_all_nodes() {
        let mesh = Mesh::regular(3, 3, MeshDegree::D6);
        let art = mesh.render_ascii();
        for i in 0..9 {
            assert!(art.contains(&format!("{i}")), "missing node {i} in:\n{art}");
        }
        assert!(art.contains('\\'), "degree 6 should draw diagonals:\n{art}");
    }

    #[test]
    #[should_panic(expected = "at least 3x3")]
    fn tiny_meshes_are_rejected() {
        let _ = Mesh::regular(2, 7, MeshDegree::D4);
    }
}
