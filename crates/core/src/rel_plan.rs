//! The relational physical-plan IR surrounding `SCAN_GRAPH_TABLE`.
//!
//! From the relational optimizer's perspective, `SCAN_GRAPH_TABLE` behaves
//! like an ordinary scan (paper §4.2.2): it exposes the graph component's
//! `COLUMNS` clause as a relational schema and hides the graph plan inside.

use crate::graph_plan::{GraphOp, PatternElem};
use crate::spjm::{AggSpec, AttrRef, GraphColumn, PatternElemRef};
use relgo_common::{DataType, Field, RelGoError, Result, Schema};
use relgo_graph::GraphView;
use relgo_pattern::Pattern;
use relgo_storage::{Database, ScalarExpr};
use std::fmt::Write as _;

/// A relational physical operator.
#[derive(Debug, Clone)]
pub enum RelOp {
    /// The encapsulated graph component: execute `graph`, project matched
    /// elements through `columns` into a relational table.
    ScanGraphTable {
        /// The optimized graph plan.
        graph: GraphOp,
        /// π̂ — which element attributes are materialized.
        columns: Vec<GraphColumn>,
    },
    /// Scan a catalog table, optionally with a pushed-down predicate.
    ScanTable {
        /// Catalog table name.
        table: String,
        /// Pushed-down predicate over the table's own columns.
        predicate: Option<ScalarExpr>,
    },
    /// Equi hash join (build = left).
    HashJoin {
        /// Build side.
        left: Box<RelOp>,
        /// Probe side.
        right: Box<RelOp>,
        /// Join keys: (left column, right column), right indices local to
        /// the right input.
        keys: Vec<(usize, usize)>,
    },
    /// σ over the input's schema.
    Filter {
        /// Input operator.
        input: Box<RelOp>,
        /// Predicate over the input's columns.
        predicate: ScalarExpr,
    },
    /// π over the input's schema.
    Project {
        /// Input operator.
        input: Box<RelOp>,
        /// Retained columns, in order.
        cols: Vec<usize>,
    },
    /// Ungrouped aggregation.
    Aggregate {
        /// Input operator.
        input: Box<RelOp>,
        /// Aggregate outputs.
        aggs: Vec<AggSpec>,
    },
    /// DISTINCT.
    Distinct {
        /// Input operator.
        input: Box<RelOp>,
    },
    /// ORDER BY over the input's columns.
    Sort {
        /// Input operator.
        input: Box<RelOp>,
        /// Sort keys in priority order.
        keys: Vec<relgo_storage::ops::SortKey>,
    },
    /// LIMIT.
    Limit {
        /// Input operator.
        input: Box<RelOp>,
        /// Maximum rows to emit.
        n: usize,
    },
}

impl RelOp {
    /// Compute the operator's output schema.
    pub fn schema(&self, pattern: &Pattern, view: &GraphView, db: &Database) -> Result<Schema> {
        match self {
            RelOp::ScanGraphTable { columns, .. } => {
                let mut fields = Vec::with_capacity(columns.len());
                for c in columns {
                    fields.push(Field::new(
                        c.alias.clone(),
                        graph_column_dtype(pattern, view, c)?,
                    ));
                }
                Schema::new(fields)
            }
            RelOp::ScanTable { table, .. } => Ok(db.table(table)?.schema().clone()),
            RelOp::HashJoin { left, right, .. } => Ok(left
                .schema(pattern, view, db)?
                .join(&right.schema(pattern, view, db)?)),
            RelOp::Filter { input, .. }
            | RelOp::Distinct { input }
            | RelOp::Sort { input, .. }
            | RelOp::Limit { input, .. } => input.schema(pattern, view, db),
            RelOp::Project { input, cols } => Ok(input.schema(pattern, view, db)?.project(cols)),
            RelOp::Aggregate { input, aggs } => {
                let in_schema = input.schema(pattern, view, db)?;
                let mut fields = Vec::with_capacity(aggs.len());
                for (i, a) in aggs.iter().enumerate() {
                    let (name, dtype) = match a.func {
                        relgo_storage::ops::AggFunc::Count => (format!("count_{i}"), DataType::Int),
                        relgo_storage::ops::AggFunc::Min => (
                            format!("min_{}", in_schema.field(a.column).name),
                            in_schema.field(a.column).dtype,
                        ),
                        relgo_storage::ops::AggFunc::Max => (
                            format!("max_{}", in_schema.field(a.column).name),
                            in_schema.field(a.column).dtype,
                        ),
                    };
                    fields.push(Field::new(name, dtype));
                }
                Schema::new(fields)
            }
        }
    }

    /// The direct inputs, left before right — the order of EXPLAIN lines
    /// and operator ids. `SCAN_GRAPH_TABLE`'s graph plan is not a
    /// relational input.
    pub(crate) fn inputs(&self) -> impl Iterator<Item = &RelOp> {
        let (first, second) = match self {
            RelOp::ScanGraphTable { .. } | RelOp::ScanTable { .. } => (None, None),
            RelOp::HashJoin { left, right, .. } => (Some(&**left), Some(&**right)),
            RelOp::Filter { input, .. }
            | RelOp::Project { input, .. }
            | RelOp::Aggregate { input, .. }
            | RelOp::Distinct { input }
            | RelOp::Sort { input, .. }
            | RelOp::Limit { input, .. } => (Some(&**input), None),
        };
        first.into_iter().chain(second)
    }

    /// [`RelOp::inputs`], mutably.
    fn inputs_mut(&mut self) -> impl Iterator<Item = &mut RelOp> {
        let (first, second) = match self {
            RelOp::ScanGraphTable { .. } | RelOp::ScanTable { .. } => (None, None),
            RelOp::HashJoin { left, right, .. } => (Some(&mut **left), Some(&mut **right)),
            RelOp::Filter { input, .. }
            | RelOp::Project { input, .. }
            | RelOp::Aggregate { input, .. }
            | RelOp::Distinct { input }
            | RelOp::Sort { input, .. }
            | RelOp::Limit { input, .. } => (Some(&mut **input), None),
        };
        first.into_iter().chain(second)
    }

    /// This operator's own predicate site, if it has one.
    fn predicate_mut(&mut self) -> Option<&mut ScalarExpr> {
        match self {
            RelOp::ScanTable { predicate, .. } => predicate.as_mut(),
            RelOp::Filter { predicate, .. } => Some(predicate),
            _ => None,
        }
    }

    /// The embedded graph plan, if any (the leftmost one).
    pub fn graph_plan(&self) -> Option<&GraphOp> {
        match self {
            RelOp::ScanGraphTable { graph, .. } => Some(graph),
            _ => self.inputs().find_map(RelOp::graph_plan),
        }
    }

    fn explain_into(&self, out: &mut String, indent: usize, names: &dyn Fn(PatternElem) -> String) {
        let pad = "  ".repeat(indent);
        match self {
            RelOp::ScanGraphTable { graph, columns } => {
                let cols: Vec<&str> = columns.iter().map(|c| c.alias.as_str()).collect();
                let _ = writeln!(out, "{pad}SCAN_GRAPH_TABLE [{}]", cols.join(", "));
                for line in graph.explain(names).lines() {
                    let _ = writeln!(out, "{pad}  | {line}");
                }
            }
            RelOp::ScanTable { table, predicate } => {
                let _ = write!(out, "{pad}SCAN_TABLE {table}");
                if let Some(p) = predicate {
                    let _ = write!(out, " ({p})");
                }
                let _ = writeln!(out);
            }
            RelOp::HashJoin { left, right, keys } => {
                let ks: Vec<String> = keys.iter().map(|(l, r)| format!("${l}=${r}")).collect();
                let _ = writeln!(out, "{pad}HASH_JOIN {}", ks.join(" AND "));
                left.explain_into(out, indent + 1, names);
                right.explain_into(out, indent + 1, names);
            }
            RelOp::Filter { input, predicate } => {
                let _ = writeln!(out, "{pad}SELECTION ({predicate})");
                input.explain_into(out, indent + 1, names);
            }
            RelOp::Project { input, cols } => {
                let cs: Vec<String> = cols.iter().map(|c| format!("${c}")).collect();
                let _ = writeln!(out, "{pad}PROJECTION [{}]", cs.join(", "));
                input.explain_into(out, indent + 1, names);
            }
            RelOp::Aggregate { input, aggs } => {
                let descr: Vec<String> = aggs
                    .iter()
                    .map(|a| format!("{:?}(${})", a.func, a.column))
                    .collect();
                let _ = writeln!(out, "{pad}AGGREGATE [{}]", descr.join(", "));
                input.explain_into(out, indent + 1, names);
            }
            RelOp::Distinct { input } => {
                let _ = writeln!(out, "{pad}DISTINCT");
                input.explain_into(out, indent + 1, names);
            }
            RelOp::Sort { input, keys } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|k| format!("${}{}", k.column, if k.descending { " DESC" } else { "" }))
                    .collect();
                let _ = writeln!(out, "{pad}ORDER_BY [{}]", ks.join(", "));
                input.explain_into(out, indent + 1, names);
            }
            RelOp::Limit { input, n } => {
                let _ = writeln!(out, "{pad}LIMIT {n}");
                input.explain_into(out, indent + 1, names);
            }
        }
    }
}

fn graph_column_dtype(pattern: &Pattern, view: &GraphView, c: &GraphColumn) -> Result<DataType> {
    match (c.element, c.attr) {
        (_, AttrRef::Id) => Ok(DataType::Int),
        (PatternElemRef::Vertex(v), AttrRef::Column(i)) => {
            let t = view.vertex_table(pattern.vertex(v).label);
            if i >= t.num_columns() {
                return Err(RelGoError::query(format!(
                    "graph column out of bounds: {}.{i}",
                    t.name()
                )));
            }
            Ok(t.schema().field(i).dtype)
        }
        (PatternElemRef::Edge(e), AttrRef::Column(i)) => {
            let t = view.edge_table(pattern.edge(e).label);
            if i >= t.num_columns() {
                return Err(RelGoError::query(format!(
                    "graph column out of bounds: {}.{i}",
                    t.name()
                )));
            }
            Ok(t.schema().field(i).dtype)
        }
    }
}

/// A complete optimized plan: the (possibly rule-rewritten) pattern plus the
/// relational operator tree.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// The pattern the graph component executes (after rule rewrites).
    pub pattern: Pattern,
    /// Root relational operator.
    pub root: RelOp,
}

impl PhysicalPlan {
    /// Render the full plan (Fig. 12-style output).
    pub fn explain(&self) -> String {
        let names = |e: PatternElem| match e {
            PatternElem::Vertex(v) => format!("v{v}"),
            PatternElem::Edge(e) => format!("e{e}"),
        };
        let mut out = String::new();
        self.root.explain_into(&mut out, 0, &names);
        out
    }

    /// Visit every predicate site in place: the pattern's element
    /// predicates, then each relational operator's and each graph
    /// operator's.
    pub(crate) fn for_each_predicate_mut(&mut self, f: &mut dyn FnMut(&mut ScalarExpr)) {
        for v in 0..self.pattern.vertex_count() {
            if let Some(p) = self.pattern.vertex_predicate_mut(v) {
                f(p);
            }
        }
        for e in 0..self.pattern.edge_count() {
            if let Some(p) = self.pattern.edge_predicate_mut(e) {
                f(p);
            }
        }
        fn walk(op: &mut RelOp, f: &mut dyn FnMut(&mut ScalarExpr)) {
            if let RelOp::ScanGraphTable { graph, .. } = op {
                graph.rewrite_bottom_up(&mut |g| {
                    g.predicates_mut().into_iter().flatten().for_each(&mut *f)
                });
            }
            if let Some(p) = op.predicate_mut() {
                f(p);
            }
            op.inputs_mut().for_each(|input| walk(input, f));
        }
        walk(&mut self.root, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_plan::PlanAnnotation;

    #[test]
    fn explain_composes_relational_and_graph_parts() {
        let plan = PhysicalPlan {
            pattern: {
                use relgo_common::LabelId;
                use relgo_pattern::PatternBuilder;
                let mut b = PatternBuilder::new();
                b.vertex("a", LabelId(0));
                b.build().unwrap()
            },
            root: RelOp::Filter {
                input: Box::new(RelOp::ScanGraphTable {
                    graph: GraphOp::ScanVertex {
                        v: 0,
                        predicate: None,
                        ann: PlanAnnotation::default(),
                    },
                    columns: vec![GraphColumn {
                        element: PatternElemRef::Vertex(0),
                        attr: AttrRef::Id,
                        alias: "a_id".into(),
                    }],
                }),
                predicate: ScalarExpr::col_eq(0, 1),
            },
        };
        let s = plan.explain();
        assert!(s.contains("SELECTION"));
        assert!(s.contains("SCAN_GRAPH_TABLE [a_id]"));
        assert!(s.contains("| SCAN v0"));
    }
}
