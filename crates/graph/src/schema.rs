//! The graph schema derived from an RGMapping: label identity and endpoint
//! typing for pattern validation and planning.

use crate::mapping::RGMapping;
use relgo_common::{FxHashMap, LabelId, RelGoError, Result};

/// Compact label metadata: names ↔ ids, plus the (source, target) vertex
/// labels of every edge label.
#[derive(Debug, Clone, Default)]
pub struct GraphSchema {
    vertex_labels: Vec<String>,
    edge_labels: Vec<String>,
    vertex_by_name: FxHashMap<String, LabelId>,
    edge_by_name: FxHashMap<String, LabelId>,
    /// `endpoints[edge_label] = (src_vertex_label, dst_vertex_label)`.
    endpoints: Vec<(LabelId, LabelId)>,
}

impl GraphSchema {
    /// Derive the schema from a validated mapping. Label ids are assigned in
    /// declaration order (vertices and edges in separate id spaces).
    pub fn from_mapping(mapping: &RGMapping) -> Result<Self> {
        let mut s = GraphSchema::default();
        for v in mapping.vertices() {
            let id = LabelId(s.vertex_labels.len() as u16);
            if s.vertex_by_name.insert(v.table.clone(), id).is_some() {
                return Err(RelGoError::schema(format!(
                    "duplicate vertex label '{}'",
                    v.table
                )));
            }
            s.vertex_labels.push(v.table.clone());
        }
        for e in mapping.edges() {
            let id = LabelId(s.edge_labels.len() as u16);
            if s.edge_by_name.insert(e.table.clone(), id).is_some() {
                return Err(RelGoError::schema(format!(
                    "duplicate edge label '{}'",
                    e.table
                )));
            }
            s.edge_labels.push(e.table.clone());
            let src = s.vertex_label_id(&e.src_table)?;
            let dst = s.vertex_label_id(&e.dst_table)?;
            s.endpoints.push((src, dst));
        }
        Ok(s)
    }

    /// Number of vertex labels.
    pub fn vertex_label_count(&self) -> usize {
        self.vertex_labels.len()
    }

    /// Number of edge labels.
    pub fn edge_label_count(&self) -> usize {
        self.edge_labels.len()
    }

    /// Resolve a vertex label name.
    pub fn vertex_label_id(&self, name: &str) -> Result<LabelId> {
        self.vertex_by_name
            .get(name)
            .copied()
            .ok_or_else(|| RelGoError::not_found(format!("vertex label '{name}'")))
    }

    /// Resolve an edge label name.
    pub fn edge_label_id(&self, name: &str) -> Result<LabelId> {
        self.edge_by_name
            .get(name)
            .copied()
            .ok_or_else(|| RelGoError::not_found(format!("edge label '{name}'")))
    }

    /// Vertex label name of `id`.
    pub fn vertex_label_name(&self, id: LabelId) -> &str {
        &self.vertex_labels[id.0 as usize]
    }

    /// Edge label name of `id`.
    pub fn edge_label_name(&self, id: LabelId) -> &str {
        &self.edge_labels[id.0 as usize]
    }

    /// `(source, target)` vertex labels of the edge label `id`.
    pub fn edge_endpoints(&self, id: LabelId) -> (LabelId, LabelId) {
        self.endpoints[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapping() -> RGMapping {
        RGMapping::new()
            .vertex("Person")
            .vertex("Message")
            .edge("Likes", "pid", "Person", "mid", "Message")
            .edge("Knows", "pid1", "Person", "pid2", "Person")
    }

    #[test]
    fn label_ids_in_declaration_order() {
        let s = GraphSchema::from_mapping(&mapping()).unwrap();
        assert_eq!(s.vertex_label_id("Person").unwrap(), LabelId(0));
        assert_eq!(s.vertex_label_id("Message").unwrap(), LabelId(1));
        assert_eq!(s.edge_label_id("Likes").unwrap(), LabelId(0));
        assert_eq!(s.edge_label_id("Knows").unwrap(), LabelId(1));
        assert_eq!(s.vertex_label_name(LabelId(1)), "Message");
        assert_eq!(s.edge_label_name(LabelId(1)), "Knows");
    }

    #[test]
    fn endpoints_resolved() {
        let s = GraphSchema::from_mapping(&mapping()).unwrap();
        assert_eq!(
            s.edge_endpoints(LabelId(0)),
            (LabelId(0), LabelId(1)),
            "Likes: Person → Message"
        );
        assert_eq!(
            s.edge_endpoints(LabelId(1)),
            (LabelId(0), LabelId(0)),
            "Knows: Person → Person"
        );
    }

    #[test]
    fn unknown_labels_error() {
        let s = GraphSchema::from_mapping(&mapping()).unwrap();
        assert!(s.vertex_label_id("Nope").is_err());
        assert!(s.edge_label_id("Nope").is_err());
    }
}
