//! RGMapping: relations → property graph.
//!
//! Mirrors the SQL/PGQ `CREATE PROPERTY GRAPH` statement of the paper's
//! Fig. 2: vertex tables become vertex labels, edge tables become edge
//! labels, and the `SOURCE KEY ... REFERENCE` / `DESTINATION KEY ...
//! REFERENCE` clauses define the λˢ/λᵗ total functions through
//! primary-foreign-key relationships.

use relgo_common::{RelGoError, Result};
use relgo_storage::Database;

/// A vertex mapping: one relation whose tuples become vertices labeled with
/// the relation's name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexMapping {
    /// Backing relation, and the vertex label.
    pub table: String,
}

/// An edge mapping: one relation whose tuples become edges labeled with the
/// relation's name, with source and target resolved through foreign keys
/// into vertex relations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeMapping {
    /// Backing relation, and the edge label.
    pub table: String,
    /// Foreign-key column in the edge relation pointing at the source
    /// vertex relation's primary key (λˢ).
    pub src_key: String,
    /// Source vertex relation.
    pub src_table: String,
    /// Foreign-key column pointing at the target vertex relation (λᵗ).
    pub dst_key: String,
    /// Target vertex relation.
    pub dst_table: String,
}

/// The full relations-to-graph mapping.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RGMapping {
    vertices: Vec<VertexMapping>,
    edges: Vec<EdgeMapping>,
}

impl RGMapping {
    /// Start an empty mapping; populate with [`RGMapping::vertex`] and
    /// [`RGMapping::edge`], then check with [`RGMapping::validate`].
    pub fn new() -> Self {
        RGMapping::default()
    }

    /// Declare a vertex table (label = table name).
    pub fn vertex(mut self, table: &str) -> Self {
        self.vertices.push(VertexMapping {
            table: table.to_string(),
        });
        self
    }

    /// Declare an edge table (label = table name):
    /// `SOURCE KEY (src_key) REFERENCE src_table`,
    /// `DESTINATION KEY (dst_key) REFERENCE dst_table`.
    pub fn edge(
        mut self,
        table: &str,
        src_key: &str,
        src_table: &str,
        dst_key: &str,
        dst_table: &str,
    ) -> Self {
        self.edges.push(EdgeMapping {
            table: table.to_string(),
            src_key: src_key.to_string(),
            src_table: src_table.to_string(),
            dst_key: dst_key.to_string(),
            dst_table: dst_table.to_string(),
        });
        self
    }

    /// Declared vertex mappings.
    pub fn vertices(&self) -> &[VertexMapping] {
        &self.vertices
    }

    /// Declared edge mappings.
    pub fn edges(&self) -> &[EdgeMapping] {
        &self.edges
    }

    /// Validate the mapping against a database:
    ///
    /// * every referenced table exists;
    /// * vertex labels and edge labels are unique (within their own spaces);
    /// * every edge endpoint references a declared *vertex* table;
    /// * endpoint key columns exist, and the vertex tables have primary keys
    ///   (so the λ functions are total and well-defined).
    pub fn validate(&self, db: &Database) -> Result<()> {
        for (i, v) in self.vertices.iter().enumerate() {
            db.table(&v.table)?;
            if self.vertices[..i].iter().any(|w| w.table == v.table) {
                return Err(RelGoError::schema(format!(
                    "duplicate vertex label '{}'",
                    v.table
                )));
            }
            if db.primary_key(&v.table).is_none() {
                return Err(RelGoError::schema(format!(
                    "vertex table '{}' has no primary key",
                    v.table
                )));
            }
        }
        for (i, e) in self.edges.iter().enumerate() {
            let t = db.table(&e.table)?;
            if self.edges[..i].iter().any(|f| f.table == e.table) {
                return Err(RelGoError::schema(format!(
                    "duplicate edge label '{}'",
                    e.table
                )));
            }
            t.schema().index_of(&e.src_key)?;
            t.schema().index_of(&e.dst_key)?;
            for endpoint in [&e.src_table, &e.dst_table] {
                if !self.vertices.iter().any(|v| v.table == *endpoint) {
                    return Err(RelGoError::schema(format!(
                        "edge '{}' references '{}', which is not a declared vertex table",
                        e.table, endpoint
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig2;
    use relgo_common::DataType;
    use relgo_storage::table::table_of;

    #[test]
    fn valid_mapping_passes() {
        fig2::mapping().validate(&fig2::database()).unwrap();
    }

    #[test]
    fn missing_table_rejected() {
        let m = RGMapping::new().vertex("Nope");
        assert!(m.validate(&fig2::database()).is_err());
    }

    #[test]
    fn duplicate_labels_rejected() {
        let m = RGMapping::new().vertex("Person").vertex("Person");
        assert!(m.validate(&fig2::database()).is_err());
    }

    #[test]
    fn edge_must_reference_vertex_tables() {
        let m = RGMapping::new()
            .vertex("Person")
            .edge("Likes", "pid", "Person", "mid", "Message"); // Message not declared
        assert!(m.validate(&fig2::database()).is_err());
    }

    #[test]
    fn edge_key_columns_must_exist() {
        let m = RGMapping::new()
            .vertex("Person")
            .vertex("Message")
            .edge("Likes", "nope", "Person", "mid", "Message");
        assert!(m.validate(&fig2::database()).is_err());
    }

    #[test]
    fn vertex_table_needs_primary_key() {
        let mut d = fig2::database();
        d.add_table(table_of("NoPk", &[("x", DataType::Int)], vec![]));
        let m = RGMapping::new().vertex("NoPk");
        assert!(m.validate(&d).is_err());
    }

    #[test]
    fn self_referencing_edge_is_fine() {
        let m = RGMapping::new()
            .vertex("Person")
            .vertex("Message")
            .edge("Knows", "pid1", "Person", "pid2", "Person");
        m.validate(&fig2::database()).unwrap();
    }
}
