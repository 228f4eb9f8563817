//! # topology — network topologies for the routing-convergence study
//!
//! Provides the paper's family of Baran-style regular meshes with interior
//! degree 3 through 8 ([`mesh`]), random generators for extensions
//! ([`random`]), shortest-path ground truth ([`shortest_path`]), structural
//! analysis ([`analysis`]) and instantiation into `netsim` networks
//! ([`instantiate`]).
//!
//! ```
//! use topology::mesh::{Mesh, MeshDegree};
//! use topology::shortest_path::bfs;
//!
//! let mesh = Mesh::regular(7, 7, MeshDegree::D5);
//! let sp = bfs(mesh.graph(), mesh.node_at(0, 3));
//! assert!(sp.distance(mesh.node_at(6, 3)).unwrap() <= 6);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::allow_attributes_without_reason
    )
)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod analysis;
pub mod graph;
pub mod instantiate;
pub mod mesh;
pub mod random;
pub mod shortest_path;

pub use graph::{Edge, Graph};
pub use mesh::{Mesh, MeshDegree};
pub use shortest_path::{bfs, ShortestPaths};
