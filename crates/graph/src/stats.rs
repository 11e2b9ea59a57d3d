//! Label-level graph statistics: cardinalities and average degrees — the
//! low-order graph inputs (`|V|`, `|E|`, `d̄`) of the paper's cost model.

use crate::index::Direction;
use crate::view::GraphView;
use relgo_common::LabelId;

/// Statistics of a [`GraphView`].
#[derive(Debug, Clone, Default)]
pub struct GraphStats {
    vertex_counts: Vec<usize>,
    edge_counts: Vec<usize>,
    /// Average out-degree per edge label (over the *source* label's
    /// vertices), and in-degree (over the target label's).
    avg_out_degree: Vec<f64>,
    avg_in_degree: Vec<f64>,
}

impl GraphStats {
    /// Compute from a view (index not required — degrees are |E| / |V|).
    pub fn compute(view: &GraphView) -> GraphStats {
        let nv = view.schema().vertex_label_count();
        let ne = view.schema().edge_label_count();
        let vertex_counts: Vec<usize> = (0..nv as u16)
            .map(|l| view.vertex_count(LabelId(l)))
            .collect();
        let mut edge_counts = Vec::with_capacity(ne);
        let mut avg_out_degree = Vec::with_capacity(ne);
        let mut avg_in_degree = Vec::with_capacity(ne);
        for l in 0..ne as u16 {
            let el = LabelId(l);
            let m = view.edge_count(el);
            let (src, dst) = view.schema().edge_endpoints(el);
            let ns = vertex_counts[src.0 as usize].max(1);
            let nt = vertex_counts[dst.0 as usize].max(1);
            edge_counts.push(m);
            avg_out_degree.push(m as f64 / ns as f64);
            avg_in_degree.push(m as f64 / nt as f64);
        }
        GraphStats {
            vertex_counts,
            edge_counts,
            avg_out_degree,
            avg_in_degree,
        }
    }

    /// Number of vertices of label `l`.
    pub fn vertex_count(&self, l: LabelId) -> usize {
        self.vertex_counts[l.0 as usize]
    }

    /// Number of edges of label `l`.
    pub fn edge_count(&self, l: LabelId) -> usize {
        self.edge_counts[l.0 as usize]
    }

    /// Average degree of `(edge label, direction)` — the `d̄` used by the
    /// EXPAND cost `|M(P'l)| × d̄` (§4.2.1).
    pub fn avg_degree(&self, l: LabelId, dir: Direction) -> f64 {
        match dir {
            Direction::Out => self.avg_out_degree[l.0 as usize],
            Direction::In => self.avg_in_degree[l.0 as usize],
        }
    }

    /// Total vertices across all labels.
    pub fn total_vertices(&self) -> usize {
        self.vertex_counts.iter().sum()
    }

    /// Total edges across all labels.
    pub fn total_edges(&self) -> usize {
        self.edge_counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::RGMapping;
    use relgo_common::DataType;
    use relgo_storage::table::table_of;
    use relgo_storage::Database;

    fn view() -> GraphView {
        let mut db = Database::new();
        db.add_table(table_of(
            "V",
            &[("id", DataType::Int)],
            vec![
                vec![1.into()],
                vec![2.into()],
                vec![3.into()],
                vec![4.into()],
            ],
        ));
        db.add_table(table_of(
            "E",
            &[
                ("eid", DataType::Int),
                ("s", DataType::Int),
                ("t", DataType::Int),
            ],
            vec![
                vec![1.into(), 1.into(), 2.into()],
                vec![2.into(), 1.into(), 3.into()],
                vec![3.into(), 2.into(), 3.into()],
            ],
        ));
        db.set_primary_key("V", "id").unwrap();
        db.set_primary_key("E", "eid").unwrap();
        let mapping = RGMapping::new().vertex("V").edge("E", "s", "V", "t", "V");
        GraphView::build(&mut db, mapping).unwrap()
    }

    #[test]
    fn counts_and_degrees() {
        let s = view().stats();
        assert_eq!(s.vertex_count(LabelId(0)), 4);
        assert_eq!(s.edge_count(LabelId(0)), 3);
        assert!((s.avg_degree(LabelId(0), Direction::Out) - 0.75).abs() < 1e-12);
        assert!((s.avg_degree(LabelId(0), Direction::In) - 0.75).abs() < 1e-12);
        assert_eq!(s.total_vertices(), 4);
        assert_eq!(s.total_edges(), 3);
    }
}
