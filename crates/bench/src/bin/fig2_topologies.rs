//! Figure 2: the regular mesh construction at degrees 4, 5 and 6 (plus the
//! rest of the family), rendered as ASCII and summarized structurally.

use convergence::report::Table;
use topology::analysis::{degree_stats, mean_path_length};
use topology::mesh::{Mesh, MeshDegree};
use topology::shortest_path::diameter;

fn main() {
    println!("Figure 2 — link failures in networks with node degree 4, 5 and 6");
    println!("(paper shows 4/5/6; the full family 3..8 is summarized below)\n");

    for degree in [MeshDegree::D4, MeshDegree::D5, MeshDegree::D6] {
        let mesh = Mesh::regular(7, 7, degree);
        println!(
            "--- degree {degree} ({} links) ---",
            mesh.graph().num_edges()
        );
        println!("{}", mesh.render_ascii());
    }

    let mut table = Table::new(
        [
            "degree",
            "links",
            "interior deg",
            "mean deg",
            "diameter",
            "mean path len",
        ]
        .map(String::from)
        .to_vec(),
    );
    for degree in MeshDegree::ALL {
        let mesh = Mesh::regular(7, 7, degree);
        let stats = degree_stats(mesh.graph()).expect("mesh is nonempty");
        table.push_row(vec![
            degree.to_string(),
            mesh.graph().num_edges().to_string(),
            degree.as_u32().to_string(),
            format!("{:.2}", stats.mean),
            diameter(mesh.graph()).unwrap().to_string(),
            format!("{:.2}", mean_path_length(mesh.graph()).unwrap()),
        ]);
    }
    println!("{}", table.render());
    let path = bench::results_dir().join("fig2_topologies.csv");
    table.write_csv(&path).expect("write CSV");
    println!("wrote {}", path.display());
}
