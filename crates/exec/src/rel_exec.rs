//! Interpreter for relational physical plans ([`RelOp`] trees).
//!
//! `SCAN_GRAPH_TABLE` is the bridge: it runs the embedded graph plan, applies
//! the pattern's matching semantics (the *all-distinct* operator of §2.2
//! when isomorphism-like semantics are requested), and flattens bindings
//! through the `COLUMNS` clause into a columnar [`Table`] — the π̂ operator.

use crate::chunk::GraphChunk;
use crate::graph_exec::{execute_graph, GraphExecContext};
use crate::profile::{PlanProfile, ProfileSink};
use relgo_common::morsel::TimeBudget;
use relgo_common::{DataType, ElementId, Field, FxHashMap, Result, Schema};
use relgo_core::rel_plan::{PhysicalPlan, RelOp};
use relgo_core::spjm::{AttrRef, GraphColumn, PatternElemRef};
use relgo_graph::GraphView;
use relgo_pattern::{MatchSemantics, Pattern};
use relgo_storage::ops;
use relgo_storage::{Column, Database, Table};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// Execution configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Whether graph-index-backed operators may be used.
    pub use_index: bool,
    /// Intermediate-size budget (rows) before `ResourceExhausted`.
    pub row_limit: usize,
    /// Intra-query worker threads for morsel-parallel graph operators
    /// (1 = serial; parallel output is bit-identical to serial).
    pub threads: usize,
    /// Optional wall-clock budget checked at morsel boundaries; expiry
    /// aborts with `DeadlineExceeded` (the time analogue of `row_limit`).
    pub deadline: Option<TimeBudget>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            use_index: true,
            row_limit: 50_000_000,
            threads: 1,
            deadline: None,
        }
    }
}

/// Execute a plan into a result table, with `profile` collecting one
/// [`crate::profile::OperatorProfile`] per physical operator (pre-order op
/// ids, shared with `PhysicalPlan::operator_metas` and the EXPLAIN
/// rendering). Profiled results are bit-identical to unprofiled ones — the
/// sink is touched only by the plan-driving thread, outside the morsel
/// workers.
pub fn execute_plan_with(
    plan: &PhysicalPlan,
    view: &GraphView,
    db: &Database,
    cfg: &ExecConfig,
    profile: bool,
) -> Result<(Table, Option<PlanProfile>)> {
    let sink = profile.then(ProfileSink::new);
    let out = exec_rel(&plan.root, &plan.pattern, view, db, cfg, sink.as_ref())?;
    let table = Arc::try_unwrap(out).unwrap_or_else(|arc| (*arc).clone());
    Ok((table, sink.map(|s| s.take())))
}

fn exec_rel(
    op: &RelOp,
    pattern: &Pattern,
    view: &GraphView,
    db: &Database,
    cfg: &ExecConfig,
    sink: Option<&ProfileSink>,
) -> Result<Arc<Table>> {
    // Operator-boundary deadline check for the relational tree; the graph
    // operators below re-check at every morsel boundary.
    if let Some(deadline) = &cfg.deadline {
        deadline.check()?;
    }
    // Reserve the pre-order profile slot before recursing, so run-time op
    // ids line up with plan-time metas and EXPLAIN lines. Each arm records
    // its input rows and an own-work start taken after inputs return — a
    // parent's elapsed excludes its children's execution.
    let op_id = sink.map(|s| s.begin(op.kind()));
    let (rows_in, t0, out) = match op {
        RelOp::ScanGraphTable { graph, columns } => {
            let ctx = GraphExecContext {
                view,
                pattern,
                cfg,
                profile: sink,
            };
            let chunk = execute_graph(graph, &ctx)?;
            let t0 = op_id.map(|_| Instant::now());
            let rows_in = chunk.len();
            let chunk = apply_semantics(&chunk, pattern)?;
            let out = Arc::new(project_graph_table(&chunk, pattern, view, columns)?);
            (rows_in, t0, out)
        }
        RelOp::ScanTable { table, predicate } => {
            let t0 = op_id.map(|_| Instant::now());
            let t = db.table(table)?;
            let out = match predicate {
                None => Arc::clone(t),
                Some(p) => Arc::new(ops::filter(t, p)?),
            };
            (0, t0, out)
        }
        RelOp::HashJoin { left, right, keys } => {
            let l = exec_rel(left, pattern, view, db, cfg, sink)?;
            let r = exec_rel(right, pattern, view, db, cfg, sink)?;
            let t0 = op_id.map(|_| Instant::now());
            let rows_in = l.num_rows() + r.num_rows();
            (rows_in, t0, Arc::new(ops::hash_join(&l, &r, keys)?))
        }
        RelOp::Filter { input, predicate } => {
            let t = exec_rel(input, pattern, view, db, cfg, sink)?;
            let t0 = op_id.map(|_| Instant::now());
            (t.num_rows(), t0, Arc::new(ops::filter(&t, predicate)?))
        }
        RelOp::Project { input, cols } => {
            let t = exec_rel(input, pattern, view, db, cfg, sink)?;
            let t0 = op_id.map(|_| Instant::now());
            // The child's output is usually this operator's alone (the π̂
            // flatten's table): its columns become the result's.
            (t.num_rows(), t0, Arc::new(ops::project_arc(t, cols)?))
        }
        RelOp::Aggregate { input, aggs } => {
            let t = exec_rel(input, pattern, view, db, cfg, sink)?;
            let t0 = op_id.map(|_| Instant::now());
            let spec: Vec<(ops::AggFunc, usize)> =
                aggs.iter().map(|a| (a.func, a.column)).collect();
            (t.num_rows(), t0, Arc::new(ops::aggregate(&t, &spec)?))
        }
        RelOp::Distinct { input } => {
            let t = exec_rel(input, pattern, view, db, cfg, sink)?;
            let t0 = op_id.map(|_| Instant::now());
            (t.num_rows(), t0, Arc::new(ops::distinct(&t)))
        }
        RelOp::Sort { input, keys } => {
            let t = exec_rel(input, pattern, view, db, cfg, sink)?;
            let t0 = op_id.map(|_| Instant::now());
            (t.num_rows(), t0, Arc::new(ops::sort(&t, keys)?))
        }
        RelOp::Limit { input, n } => {
            let t = exec_rel(input, pattern, view, db, cfg, sink)?;
            let t0 = op_id.map(|_| Instant::now());
            (t.num_rows(), t0, Arc::new(ops::limit(&t, *n)))
        }
    };
    if let (Some(sink), Some(id)) = (sink, op_id) {
        let elapsed = t0.map(|t| t.elapsed()).unwrap_or_default();
        sink.finish(id, rows_in as u64, out.num_rows() as u64, 0, elapsed, 0);
    }
    Ok(out)
}

/// Apply the all-distinct operator when the pattern requests isomorphism-
/// like semantics (§2.2 / §3.1); `chunk` itself when no row can collide.
pub fn apply_semantics<'a>(
    chunk: &'a GraphChunk,
    pattern: &Pattern,
) -> Result<Cow<'a, GraphChunk>> {
    match pattern.semantics() {
        MatchSemantics::Homomorphism => Ok(Cow::Borrowed(chunk)),
        MatchSemantics::DistinctVertices => {
            // Only same-label vertices can collide.
            let groups = same_label_groups(pattern);
            if groups.is_empty() {
                return Ok(Cow::Borrowed(chunk));
            }
            let mut keep = Vec::new();
            'row: for row in 0..chunk.len() {
                for group in &groups {
                    for (i, &a) in group.iter().enumerate() {
                        for &b in &group[i + 1..] {
                            if chunk.vertex_at(a, row)? == chunk.vertex_at(b, row)? {
                                continue 'row;
                            }
                        }
                    }
                }
                keep.push(row as u32);
            }
            Ok(Cow::Owned(chunk.take(&keep)))
        }
        MatchSemantics::DistinctEdges => {
            let mut groups: FxHashMap<u16, Vec<usize>> = FxHashMap::default();
            for (e, pe) in pattern.edges().iter().enumerate() {
                groups.entry(pe.label.0).or_default().push(e);
            }
            let groups: Vec<Vec<usize>> = groups.into_values().filter(|g| g.len() > 1).collect();
            if groups.is_empty() {
                return Ok(Cow::Borrowed(chunk));
            }
            let mut keep = Vec::new();
            'row: for row in 0..chunk.len() {
                for group in &groups {
                    for (i, &a) in group.iter().enumerate() {
                        for &b in &group[i + 1..] {
                            if chunk.edge_at(a, row)? == chunk.edge_at(b, row)? {
                                continue 'row;
                            }
                        }
                    }
                }
                keep.push(row as u32);
            }
            Ok(Cow::Owned(chunk.take(&keep)))
        }
    }
}

/// Groups of same-label pattern vertices with ≥ 2 members.
fn same_label_groups(pattern: &Pattern) -> Vec<Vec<usize>> {
    let mut groups: FxHashMap<u16, Vec<usize>> = FxHashMap::default();
    for (v, pv) in pattern.vertices().iter().enumerate() {
        groups.entry(pv.label.0).or_default().push(v);
    }
    groups.into_values().filter(|g| g.len() > 1).collect()
}

/// π̂ — flatten bindings into a relational table through the COLUMNS clause.
pub fn project_graph_table(
    chunk: &GraphChunk,
    pattern: &Pattern,
    view: &GraphView,
    columns: &[GraphColumn],
) -> Result<Table> {
    let mut fields = Vec::with_capacity(columns.len());
    let mut cols = Vec::with_capacity(columns.len());
    for gc in columns {
        match (gc.element, gc.attr) {
            (PatternElemRef::Vertex(v), AttrRef::Id) => {
                let label = pattern.vertex(v).label;
                let rids = chunk.vertex_col(v)?;
                let mut data = Vec::with_capacity(rids.len());
                for &r in rids {
                    data.push(ElementId::vertex(label, r).0 as i64);
                }
                fields.push(Field::new(gc.alias.clone(), DataType::Int));
                cols.push(Column::Int(data, None));
            }
            (PatternElemRef::Edge(e), AttrRef::Id) => {
                let label = pattern.edge(e).label;
                let rids = chunk.edge_col(e)?;
                let mut data = Vec::with_capacity(rids.len());
                for &r in rids {
                    data.push(ElementId::edge(label, r).0 as i64);
                }
                fields.push(Field::new(gc.alias.clone(), DataType::Int));
                cols.push(Column::Int(data, None));
            }
            (PatternElemRef::Vertex(v), AttrRef::Column(c)) => {
                let table = view.vertex_table(pattern.vertex(v).label);
                let rids = chunk.vertex_col(v)?;
                fields.push(Field::new(gc.alias.clone(), table.schema().field(c).dtype));
                cols.push(table.column(c).take(rids));
            }
            (PatternElemRef::Edge(e), AttrRef::Column(c)) => {
                let table = view.edge_table(pattern.edge(e).label);
                let rids = chunk.edge_col(e)?;
                fields.push(Field::new(gc.alias.clone(), table.schema().field(c).dtype));
                cols.push(table.column(c).take(rids));
            }
        }
    }
    Table::from_columns("graph_table", Schema::new(fields)?, cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgo_common::{LabelId, Value};
    use relgo_core::graph_plan::{GraphOp, PlanAnnotation};
    use relgo_graph::{fig2, Direction};
    use relgo_pattern::PatternBuilder;

    fn like_pattern() -> Pattern {
        let mut b = PatternBuilder::new();
        let p = b.vertex("p", LabelId(0));
        let m = b.vertex("m", LabelId(1));
        b.edge(p, m, LabelId(0)).unwrap();
        b.build().unwrap()
    }

    fn like_plan() -> GraphOp {
        GraphOp::Expand {
            input: Box::new(GraphOp::ScanVertex {
                v: 0,
                predicate: None,
                ann: PlanAnnotation::default(),
            }),
            from: 0,
            edge: 0,
            to: 1,
            dir: Direction::Out,
            emit_edge: true,
            edge_predicate: None,
            vertex_predicate: None,
            ann: PlanAnnotation::default(),
        }
    }

    /// Runs `plan` unprofiled, checking that the profiled run returns the
    /// same table bit for bit plus one profile per plan-time operator meta.
    fn run(plan: &PhysicalPlan, view: &GraphView, db: &Database) -> Table {
        let cfg = ExecConfig::default();
        let (out, unprofiled) = execute_plan_with(plan, view, db, &cfg, false).unwrap();
        assert!(unprofiled.is_none());
        let (profiled, profile) = execute_plan_with(plan, view, db, &cfg, true).unwrap();
        assert!(profiled.bit_identical(&out));
        assert_eq!(profile.unwrap().ops.len(), plan.operator_metas(db).len());
        out
    }

    #[test]
    fn scan_graph_table_projects_attributes_and_ids() {
        let (view, db) = fig2::view();
        let pattern = like_pattern();
        let plan = PhysicalPlan {
            pattern: pattern.clone(),
            root: RelOp::ScanGraphTable {
                graph: like_plan(),
                columns: vec![
                    GraphColumn {
                        element: PatternElemRef::Vertex(0),
                        attr: AttrRef::Column(1),
                        alias: "p_name".into(),
                    },
                    GraphColumn {
                        element: PatternElemRef::Vertex(1),
                        attr: AttrRef::Id,
                        alias: "m_id".into(),
                    },
                    GraphColumn {
                        element: PatternElemRef::Edge(0),
                        attr: AttrRef::Id,
                        alias: "e_id".into(),
                    },
                ],
            },
        };
        let out = run(&plan, &view, &db);
        assert_eq!(out.num_rows(), 4);
        assert_eq!(out.schema().field(0).name, "p_name");
        let names: Vec<Value> = (0..4).map(|r| out.value(r, 0)).collect();
        assert!(names.contains(&Value::str("Tom")));
        // Ids are vertex-encoded ints (label 1 = Message).
        let id = out.value(0, 1).as_int().unwrap() as u64;
        assert!(!ElementId(id).is_edge());
        assert_eq!(ElementId(id).label(), LabelId(1));
        let eid = out.value(0, 2).as_int().unwrap() as u64;
        assert!(ElementId(eid).is_edge());
    }

    #[test]
    fn full_pipeline_with_filter_and_join() {
        let (view, db) = fig2::view();
        let pattern = like_pattern();
        // σ(p_name = 'Bob') over the graph table, then join Person table on
        // message-id? Keep it simple: filter + project.
        let plan = PhysicalPlan {
            pattern: pattern.clone(),
            root: RelOp::Project {
                input: Box::new(RelOp::Filter {
                    input: Box::new(RelOp::ScanGraphTable {
                        graph: like_plan(),
                        columns: vec![
                            GraphColumn {
                                element: PatternElemRef::Vertex(0),
                                attr: AttrRef::Column(1),
                                alias: "p_name".into(),
                            },
                            GraphColumn {
                                element: PatternElemRef::Vertex(1),
                                attr: AttrRef::Column(0),
                                alias: "m_key".into(),
                            },
                        ],
                    }),
                    predicate: relgo_storage::ScalarExpr::col_eq(0, "Bob"),
                }),
                cols: vec![1],
            },
        };
        let out = run(&plan, &view, &db);
        assert_eq!(out.num_rows(), 2);
        let mut keys: Vec<i64> = (0..2).map(|r| out.value(r, 0).as_int().unwrap()).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![100, 200]);
    }

    #[test]
    fn distinct_vertices_semantics_filters_same_label_collisions() {
        let (view, _) = fig2::view();
        // Wedge (p1)-likes->(m)<-likes-(p2), homomorphic count 8; with
        // distinct-vertex semantics p1 ≠ p2 removes the 4 diagonal rows.
        let mut b = PatternBuilder::new();
        let p1 = b.vertex("p1", LabelId(0));
        let p2 = b.vertex("p2", LabelId(0));
        let m = b.vertex("m", LabelId(1));
        b.edge(p1, m, LabelId(0)).unwrap();
        b.edge(p2, m, LabelId(0)).unwrap();
        let pattern = b
            .build()
            .unwrap()
            .with_semantics(MatchSemantics::DistinctVertices);
        let plan = GraphOp::Expand {
            input: Box::new(GraphOp::Expand {
                input: Box::new(GraphOp::ScanVertex {
                    v: 0,
                    predicate: None,
                    ann: PlanAnnotation::default(),
                }),
                from: 0,
                edge: 0,
                to: 2,
                dir: Direction::Out,
                emit_edge: false,
                edge_predicate: None,
                vertex_predicate: None,
                ann: PlanAnnotation::default(),
            }),
            from: 2,
            edge: 1,
            to: 1,
            dir: Direction::In,
            emit_edge: false,
            edge_predicate: None,
            vertex_predicate: None,
            ann: PlanAnnotation::default(),
        };
        let ctx = GraphExecContext {
            view: &view,
            pattern: &pattern,
            cfg: &ExecConfig::default(),
            profile: None,
        };
        let chunk = execute_graph(&plan, &ctx).unwrap();
        assert_eq!(chunk.len(), 8);
        let filtered = apply_semantics(&chunk, &pattern).unwrap();
        assert_eq!(filtered.len(), 4);
    }
}
