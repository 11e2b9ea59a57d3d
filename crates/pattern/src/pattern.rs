//! Pattern graphs.
//!
//! A [`Pattern`] is the `P(V_P, E_P)` of the paper: a connected property
//! graph without attributes, where every vertex and edge carries a label and
//! (optionally) a predicate contributed by `FilterIntoMatchRule`. Pattern
//! vertices are dense indices `0..n`; edges record explicit source/target,
//! matching the homomorphism semantics of §2.2.

use relgo_common::{LabelId, RelGoError, Result};
use relgo_storage::ScalarExpr;

/// Semantics of pattern matching (§2.2 / §3.1: the *all-distinct* operator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchSemantics {
    /// Plain homomorphism: pattern elements may map to the same data
    /// elements (the default, and the semantics all transformations use).
    #[default]
    Homomorphism,
    /// Homomorphism filtered so that all matched *vertices* are pairwise
    /// distinct (vertex-isomorphism).
    DistinctVertices,
    /// Homomorphism filtered so that all matched *edges* are pairwise
    /// distinct (no-repeated-edge).
    DistinctEdges,
}

/// A pattern vertex: label + optional predicate over the backing vertex
/// relation's columns.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternVertex {
    /// Vertex label (index into the graph schema's vertex labels).
    pub label: LabelId,
    /// Predicate over the vertex relation's columns (pushed down by
    /// `FilterIntoMatchRule`).
    pub predicate: Option<ScalarExpr>,
}

/// A pattern edge: directed, labeled, with optional predicate over the
/// backing edge relation's columns.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternEdge {
    /// Source pattern vertex.
    pub src: usize,
    /// Target pattern vertex.
    pub dst: usize,
    /// Edge label (index into the graph schema's edge labels).
    pub label: LabelId,
    /// Predicate over the edge relation's columns.
    pub predicate: Option<ScalarExpr>,
}

/// A connected, labeled pattern graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Pattern {
    vertices: Vec<PatternVertex>,
    edges: Vec<PatternEdge>,
    semantics: MatchSemantics,
}

impl Pattern {
    /// Maximum number of pattern vertices (vertex subsets are `u16` masks).
    pub const MAX_VERTICES: usize = 16;

    /// Number of pattern vertices `n`.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of pattern edges `m`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All vertices.
    pub fn vertices(&self) -> &[PatternVertex] {
        &self.vertices
    }

    /// All edges.
    pub fn edges(&self) -> &[PatternEdge] {
        &self.edges
    }

    /// Vertex at index `v`.
    pub fn vertex(&self, v: usize) -> &PatternVertex {
        &self.vertices[v]
    }

    /// Edge at index `e`.
    pub fn edge(&self, e: usize) -> &PatternEdge {
        &self.edges[e]
    }

    /// Matching semantics.
    pub fn semantics(&self) -> MatchSemantics {
        self.semantics
    }

    /// Replace the matching semantics.
    pub fn with_semantics(mut self, semantics: MatchSemantics) -> Pattern {
        self.semantics = semantics;
        self
    }

    /// Indices of edges incident to vertex `v`.
    pub fn incident_edges(&self, v: usize) -> Vec<usize> {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.src == v || e.dst == v)
            .map(|(i, _)| i)
            .collect()
    }

    /// The vertex at the other end of edge `e` from `v`.
    pub fn other_endpoint(&self, e: usize, v: usize) -> usize {
        let edge = &self.edges[e];
        if edge.src == v {
            edge.dst
        } else {
            edge.src
        }
    }

    /// Neighbor vertex indices of `v` (deduplicated).
    pub fn neighbors(&self, v: usize) -> Vec<usize> {
        let mut ns: Vec<usize> = self
            .incident_edges(v)
            .into_iter()
            .map(|e| self.other_endpoint(e, v))
            .collect();
        ns.sort_unstable();
        ns.dedup();
        ns
    }

    /// Whether the pattern is connected (required by §2.2).
    pub fn is_connected(&self) -> bool {
        if self.vertices.is_empty() {
            return false;
        }
        let n = self.vertices.len();
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for e in &self.edges {
                for (a, b) in [(e.src, e.dst), (e.dst, e.src)] {
                    if a == v && !seen[b] {
                        seen[b] = true;
                        count += 1;
                        stack.push(b);
                    }
                }
            }
        }
        count == n
    }

    /// Attach (conjoin) a predicate to vertex `v`.
    pub fn add_vertex_predicate(&mut self, v: usize, pred: ScalarExpr) {
        let slot = &mut self.vertices[v].predicate;
        *slot = Some(ScalarExpr::conjoin(slot.take(), pred));
    }

    /// Attach (conjoin) a predicate to edge `e`.
    pub fn add_edge_predicate(&mut self, e: usize, pred: ScalarExpr) {
        let slot = &mut self.edges[e].predicate;
        *slot = Some(ScalarExpr::conjoin(slot.take(), pred));
    }

    /// The predicate of vertex `v`, for in-place rewriting (plan-cache
    /// rebinding substitutes fresh parameter literals this way).
    pub fn vertex_predicate_mut(&mut self, v: usize) -> Option<&mut ScalarExpr> {
        self.vertices[v].predicate.as_mut()
    }

    /// The predicate of edge `e`, for in-place rewriting.
    pub fn edge_predicate_mut(&mut self, e: usize) -> Option<&mut ScalarExpr> {
        self.edges[e].predicate.as_mut()
    }

    /// Whether any pattern element carries a predicate.
    pub fn has_predicates(&self) -> bool {
        self.vertices.iter().any(|v| v.predicate.is_some())
            || self.edges.iter().any(|e| e.predicate.is_some())
    }

    /// Strip all predicates (the structural skeleton used for canonical
    /// codes and statistics lookups).
    pub fn skeleton(&self) -> Pattern {
        Pattern {
            vertices: self
                .vertices
                .iter()
                .map(|v| PatternVertex {
                    label: v.label,
                    predicate: None,
                })
                .collect(),
            edges: self
                .edges
                .iter()
                .map(|e| PatternEdge {
                    src: e.src,
                    dst: e.dst,
                    label: e.label,
                    predicate: None,
                })
                .collect(),
            semantics: self.semantics,
        }
    }
}

/// Ergonomic builder for [`Pattern`]s with named vertices.
#[derive(Debug, Default)]
pub struct PatternBuilder {
    names: Vec<String>,
    vertices: Vec<PatternVertex>,
    edges: Vec<PatternEdge>,
    semantics: MatchSemantics,
}

impl PatternBuilder {
    /// Start an empty builder.
    pub fn new() -> Self {
        PatternBuilder::default()
    }

    /// Add a vertex named `name` with the given label; returns its index.
    pub fn vertex(&mut self, name: &str, label: LabelId) -> usize {
        debug_assert!(
            !self.names.iter().any(|n| n == name),
            "duplicate pattern vertex name '{name}'"
        );
        self.names.push(name.to_string());
        self.vertices.push(PatternVertex {
            label,
            predicate: None,
        });
        self.vertices.len() - 1
    }

    /// Index of the vertex named `name`.
    pub fn vertex_index(&self, name: &str) -> Result<usize> {
        self.names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| RelGoError::query(format!("unknown pattern vertex '{name}'")))
    }

    /// Add a directed edge `src → dst` with the given edge label; returns
    /// its index.
    pub fn edge(&mut self, src: usize, dst: usize, label: LabelId) -> Result<usize> {
        if src >= self.vertices.len() || dst >= self.vertices.len() {
            return Err(RelGoError::query("edge endpoint out of bounds"));
        }
        if src == dst {
            return Err(RelGoError::query(
                "self-loop pattern edges are not supported",
            ));
        }
        self.edges.push(PatternEdge {
            src,
            dst,
            label,
            predicate: None,
        });
        Ok(self.edges.len() - 1)
    }

    /// Attach a predicate to a vertex.
    pub fn vertex_predicate(&mut self, v: usize, pred: ScalarExpr) {
        let slot = &mut self.vertices[v].predicate;
        *slot = Some(ScalarExpr::conjoin(slot.take(), pred));
    }

    /// Attach a predicate to an edge.
    pub fn edge_predicate(&mut self, e: usize, pred: ScalarExpr) {
        let slot = &mut self.edges[e].predicate;
        *slot = Some(ScalarExpr::conjoin(slot.take(), pred));
    }

    /// Set the matching semantics.
    pub fn semantics(&mut self, s: MatchSemantics) {
        self.semantics = s;
    }

    /// Vertex names in index order (consumed by the query layer to map
    /// pattern aliases to COLUMNS-clause projections).
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Finish, validating connectivity and size limits.
    pub fn build(self) -> Result<Pattern> {
        if self.vertices.is_empty() {
            return Err(RelGoError::query("pattern must have at least one vertex"));
        }
        if self.vertices.len() > Pattern::MAX_VERTICES {
            return Err(RelGoError::query(format!(
                "pattern exceeds {} vertices",
                Pattern::MAX_VERTICES
            )));
        }
        let p = Pattern {
            vertices: self.vertices,
            edges: self.edges,
            semantics: self.semantics,
        };
        if !p.is_connected() {
            return Err(RelGoError::query("pattern must be connected"));
        }
        Ok(p)
    }
}

#[cfg(test)]
pub(crate) mod fixtures {
    use super::*;

    /// The triangle of the paper's Fig. 2(b): (p1)-[Knows]->(p2),
    /// (p1)-[Likes]->(m), (p2)-[Likes]->(m). Labels: Person=0, Message=1
    /// (vertices); Likes=0, Knows=1 (edges).
    pub fn fig2_triangle() -> Pattern {
        let mut b = PatternBuilder::new();
        let p1 = b.vertex("p1", LabelId(0));
        let p2 = b.vertex("p2", LabelId(0));
        let m = b.vertex("m", LabelId(1));
        b.edge(p1, p2, LabelId(1)).unwrap();
        b.edge(p1, m, LabelId(0)).unwrap();
        b.edge(p2, m, LabelId(0)).unwrap();
        b.build().unwrap()
    }

    /// A labeled path v0 -e-> v1 -e-> ... of `m` edges over a single vertex
    /// label 0 and edge label 0.
    pub fn path(m: usize) -> Pattern {
        let mut b = PatternBuilder::new();
        let mut prev = b.vertex("v0", LabelId(0));
        for i in 1..=m {
            let v = b.vertex(&format!("v{i}"), LabelId(0));
            b.edge(prev, v, LabelId(0)).unwrap();
            prev = v;
        }
        b.build().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::*;
    use super::*;
    use relgo_storage::ScalarExpr;

    #[test]
    fn builder_assigns_indices_and_names() {
        let mut b = PatternBuilder::new();
        let a = b.vertex("a", LabelId(0));
        let c = b.vertex("c", LabelId(1));
        assert_eq!(a, 0);
        assert_eq!(c, 1);
        assert_eq!(b.vertex_index("c").unwrap(), 1);
        assert!(b.vertex_index("z").is_err());
    }

    #[test]
    fn disconnected_pattern_rejected() {
        let mut b = PatternBuilder::new();
        b.vertex("a", LabelId(0));
        b.vertex("b", LabelId(0));
        assert!(matches!(b.build(), Err(RelGoError::Query(_))));
    }

    #[test]
    fn single_vertex_is_connected() {
        let mut b = PatternBuilder::new();
        b.vertex("a", LabelId(0));
        let p = b.build().unwrap();
        assert!(p.is_connected());
        assert_eq!(p.vertex_count(), 1);
        assert_eq!(p.edge_count(), 0);
    }

    #[test]
    fn self_loops_rejected() {
        let mut b = PatternBuilder::new();
        let a = b.vertex("a", LabelId(0));
        assert!(b.edge(a, a, LabelId(0)).is_err());
    }

    #[test]
    fn triangle_adjacency() {
        let p = fig2_triangle();
        assert_eq!(p.vertex_count(), 3);
        assert_eq!(p.edge_count(), 3);
        assert_eq!(p.incident_edges(0), vec![0, 1]);
        assert_eq!(p.neighbors(0), vec![1, 2]);
        assert_eq!(p.other_endpoint(0, 0), 1);
        assert_eq!(p.other_endpoint(0, 1), 0);
    }

    #[test]
    fn predicates_conjoin() {
        let mut p = fig2_triangle();
        assert!(!p.has_predicates());
        p.add_vertex_predicate(0, ScalarExpr::col_eq(1, "Tom"));
        p.add_vertex_predicate(0, ScalarExpr::col_eq(2, 10));
        assert!(p.has_predicates());
        let pred = p.vertex(0).predicate.as_ref().unwrap();
        assert!(matches!(pred, ScalarExpr::And(..)));
        assert!(!p.skeleton().has_predicates());
    }

    #[test]
    fn path_fixture_shape() {
        let p = path(4);
        assert_eq!(p.vertex_count(), 5);
        assert_eq!(p.edge_count(), 4);
        assert!(p.is_connected());
        assert_eq!(p.neighbors(2), vec![1, 3]);
    }

    #[test]
    fn semantics_default_and_override() {
        let p = fig2_triangle();
        assert_eq!(p.semantics(), MatchSemantics::Homomorphism);
        let p = p.with_semantics(MatchSemantics::DistinctVertices);
        assert_eq!(p.semantics(), MatchSemantics::DistinctVertices);
    }

    #[test]
    fn size_limit_enforced() {
        let mut b = PatternBuilder::new();
        let mut prev = b.vertex("v0", LabelId(0));
        for i in 1..=Pattern::MAX_VERTICES {
            let v = b.vertex(&format!("v{i}"), LabelId(0));
            b.edge(prev, v, LabelId(0)).unwrap();
            prev = v;
        }
        assert!(b.build().is_err());
    }
}
