//! Interpreter for physical graph plans ([`GraphOp`] trees).
//!
//! Two execution regimes, selected by [`GraphExecContext::use_index`]:
//!
//! * **indexed** — `EXPAND`/`EXPAND_INTERSECT` traverse the VE-index;
//!   `SCAN_EDGE` reads endpoints from the EV-index (GRainDB's predefined
//!   join);
//! * **unindexed** — `EXPAND` builds a transient adjacency over the edge
//!   relation per query (the join build that DuckDB-like and RelGoHash
//!   executions pay); endpoint resolution goes through the λ key indexes,
//!   a column at a time.
//!
//! Bag semantics are preserved exactly: expansions iterate *adjacency
//! entries* (one output row per data edge), so trimming the edge column
//! never changes multiplicities.
//!
//! ## Intra-operator parallelism
//!
//! `EXPAND`, `EXPAND_INTERSECT` and `FILTER_VERTEX` are morsel-driven when
//! [`GraphExecContext::threads`] > 1: input rows are partitioned into
//! morsels ([`relgo_common::morsel`]), each worker produces local output
//! columns, and per-morsel outputs are concatenated **in morsel order** —
//! parallel results are bit-identical to serial execution. The row-limit
//! guard is a shared [`RowBudget`] charged with each row's projected output
//! size *before* the rows are materialized.
//!
//! ## Allocation-free expansion
//!
//! The per-row hot path borrows adjacency lists as slices (both regimes
//! read a CSR), and per-element predicates are precomputed into
//! per-table-row boolean masks whenever the expansion touches enough
//! entries to amortize one evaluation per table row. Scans, masks and
//! `FILTER_VERTEX` evaluate predicates through the batch driver
//! [`ScalarExpr::select`]; `JOIN_SUB` is build → probe → gather over packed
//! row-id keys ([`JoinTable`]).

use crate::chunk::GraphChunk;
use crate::profile::ProfileSink;
use relgo_common::morsel::{self, RowBudget, TimeBudget};
use relgo_common::{FxHashMap, LabelId, RelGoError, Result, RowId};
use relgo_core::graph_plan::{GraphOp, StarLeg};
use relgo_graph::index::Csr;
use relgo_graph::{Direction, GraphIndex, GraphView};
use relgo_pattern::Pattern;
use relgo_storage::ops::JoinTable;
use relgo_storage::{ScalarExpr, Table};
use std::borrow::Cow;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-batch shared operator state (the batched-serving seam): when N
/// rebound instances of one plan skeleton execute as a batch, the per-query
/// setup that does not depend on the instance's literals is built once here
/// and reused — the hash-fallback adjacencies (an `O(E log E)`
/// build per `EXPAND` in unindexed regimes) and the per-table-row predicate
/// pass masks of *structural* (literal-identical) predicates. Adjacencies
/// are keyed by `(edge label, direction)`; masks by `(table name,
/// predicate)` compared *structurally* (a rendered-string key could be
/// forged by string literals containing operator text), so
/// instance-specific predicates simply miss.
type MaskCache = Vec<(String, ScalarExpr, Arc<Vec<bool>>)>;

#[derive(Default)]
pub struct BatchState {
    hashed: Mutex<FxHashMap<(LabelId, Direction), Arc<Csr>>>,
    masks: Mutex<MaskCache>,
}

impl BatchState {
    /// Fresh shared state for one batch.
    pub fn new() -> BatchState {
        BatchState::default()
    }
}

/// Execution context for the graph component.
pub struct GraphExecContext<'a> {
    /// The graph view (tables + λ resolution).
    pub view: &'a GraphView,
    /// The pattern being matched (for edge endpoint metadata).
    pub pattern: &'a Pattern,
    /// Whether VE/EV indexes may be used.
    pub use_index: bool,
    /// Maximum rows any intermediate may reach before aborting with
    /// `ResourceExhausted` (models the paper's OOM runs).
    pub row_limit: usize,
    /// Intra-operator worker threads (1 = serial).
    pub threads: usize,
    /// Optional wall-clock budget: every morsel boundary (and the serial
    /// row guard) checks it, so expiry aborts within one morsel's work.
    pub deadline: Option<TimeBudget>,
    /// Shared per-batch state (`None` outside batched execution).
    pub batch: Option<&'a BatchState>,
    /// Profile collection target (`None` = profiling off; the hot path
    /// pays one branch per operator). Only the plan-driving thread touches
    /// it — morsel workers never see the sink.
    pub profile: Option<&'a ProfileSink>,
}

impl<'a> GraphExecContext<'a> {
    fn index(&self) -> Result<&'a GraphIndex> {
        self.view
            .index()
            .map(|a| a.as_ref())
            .ok_or_else(|| RelGoError::execution("graph index required but not built"))
    }

    /// Post-materialization row-limit check for the serial operators
    /// (scans, joins). The morsel-parallel operators use a shared
    /// [`RowBudget`] instead, which charges projected sizes *before*
    /// materializing; both trip at the same cumulative boundary. Also the
    /// serial operators' deadline checkpoint.
    fn guard(&self, rows: usize) -> Result<()> {
        self.check_deadline()?;
        self.check_rows(rows)
    }

    /// The row-limit half of [`GraphExecContext::guard`].
    fn check_rows(&self, rows: usize) -> Result<()> {
        if rows > self.row_limit {
            return Err(RelGoError::ResourceExhausted(format!(
                "intermediate graph relation of {rows} rows exceeds the {} row budget",
                self.row_limit
            )));
        }
        Ok(())
    }

    /// Morsel-boundary deadline check: called once per morsel by the
    /// parallel operators (cheap relative to a morsel's work), erroring
    /// with `DeadlineExceeded` once the budget expires.
    #[inline]
    fn check_deadline(&self) -> Result<()> {
        match &self.deadline {
            Some(deadline) => deadline.check(),
            None => Ok(()),
        }
    }
}

/// Execute a graph plan into a chunk of bindings.
pub fn execute_graph(op: &GraphOp, ctx: &GraphExecContext<'_>) -> Result<GraphChunk> {
    let nv = ctx.pattern.vertex_count();
    let ne = ctx.pattern.edge_count();
    // Reserve the pre-order profile slot before recursing into inputs, so
    // run-time op ids line up with plan-time metas and EXPLAIN lines. Each
    // arm records (rows in, morsels dispatched, own-work start): the timer
    // starts after inputs return, so a parent's elapsed excludes children.
    let op_id = ctx.profile.map(|sink| sink.begin(op.kind()));
    let (rows_in, morsels, t0, out) = match op {
        GraphOp::ScanVertex { v, predicate, .. } => {
            let t0 = op_id.map(|_| Instant::now());
            let label = ctx.pattern.vertex(*v).label;
            let table = ctx.view.vertex_table(label);
            let rows: Vec<RowId> = match predicate {
                Some(p) => p.filter(table)?,
                None => (0..table.num_rows() as RowId).collect(),
            };
            ctx.guard(rows.len())?;
            (0, 0, t0, GraphChunk::from_vertex(nv, ne, *v, rows))
        }
        GraphOp::ScanEdge { e, predicate, .. } => {
            let t0 = op_id.map(|_| Instant::now());
            (0, 0, t0, scan_edge(*e, predicate.as_ref(), ctx)?)
        }
        GraphOp::Expand {
            input,
            from,
            edge,
            to,
            dir,
            emit_edge,
            edge_predicate,
            vertex_predicate,
            ..
        } => {
            let inp = execute_graph(input, ctx)?;
            let t0 = op_id.map(|_| Instant::now());
            let out = expand(
                &inp,
                *from,
                *edge,
                *to,
                *dir,
                *emit_edge,
                edge_predicate.as_ref(),
                vertex_predicate.as_ref(),
                ctx,
            )?;
            (inp.len(), morsel_count(inp.len(), ctx), t0, out)
        }
        GraphOp::ExpandIntersect {
            input,
            legs,
            to,
            emit_edges,
            vertex_predicate,
            ..
        } => {
            let inp = execute_graph(input, ctx)?;
            let t0 = op_id.map(|_| Instant::now());
            let out =
                expand_intersect(&inp, legs, *to, *emit_edges, vertex_predicate.as_ref(), ctx)?;
            (inp.len(), morsel_count(inp.len(), ctx), t0, out)
        }
        GraphOp::JoinSub {
            left,
            right,
            on_vertices,
            on_edges,
            ..
        } => {
            let l = execute_graph(left, ctx)?;
            let r = execute_graph(right, ctx)?;
            let t0 = op_id.map(|_| Instant::now());
            let out = join_chunks(&l, &r, on_vertices, on_edges, ctx)?;
            (l.len() + r.len(), 0, t0, out)
        }
        GraphOp::FilterVertex {
            input,
            v,
            predicate,
            ..
        } => {
            let inp = execute_graph(input, ctx)?;
            let t0 = op_id.map(|_| Instant::now());
            let out = filter_vertex(&inp, *v, predicate, ctx)?;
            (inp.len(), morsel_count(inp.len(), ctx), t0, out)
        }
    };
    if let (Some(sink), Some(id)) = (ctx.profile, op_id) {
        // Expand and intersect charge exactly their materialized rows
        // against the shared row budget; the other operators guard after
        // the fact and charge nothing.
        let charged = match op {
            GraphOp::Expand { .. } | GraphOp::ExpandIntersect { .. } => out.len() as u64,
            _ => 0,
        };
        let elapsed = t0.map(|t| t.elapsed()).unwrap_or_default();
        sink.finish(
            id,
            rows_in as u64,
            out.len() as u64,
            morsels,
            elapsed,
            charged,
        );
    }
    Ok(out)
}

/// Morsels a morsel-parallel operator dispatches for `rows` input rows.
fn morsel_count(rows: usize, ctx: &GraphExecContext<'_>) -> u64 {
    if ctx.profile.is_none() {
        return 0;
    }
    morsel::morsel_count(rows, morsel::DEFAULT_MORSEL_ROWS) as u64
}

/// `SCAN_EDGE`: bind the edge and both endpoints.
fn scan_edge(
    e: usize,
    predicate: Option<&ScalarExpr>,
    ctx: &GraphExecContext<'_>,
) -> Result<GraphChunk> {
    let pe = ctx.pattern.edge(e);
    let table = ctx.view.edge_table(pe.label);
    let rows: Vec<RowId> = match predicate {
        Some(p) => p.filter(table)?,
        None => (0..table.num_rows() as RowId).collect(),
    };
    ctx.guard(rows.len())?;
    let (srcs, dsts) = if ctx.use_index {
        let idx = ctx.index()?;
        (
            rows.iter().map(|&r| idx.edge_src(pe.label, r)).collect(),
            rows.iter().map(|&r| idx.edge_dst(pe.label, r)).collect(),
        )
    } else {
        ctx.view.resolve_endpoints(pe.label, Some(&rows))?
    };
    GraphChunk::from_edge(
        (ctx.pattern.vertex_count(), ctx.pattern.edge_count()),
        (e, rows),
        (pe.src, srcs),
        (pe.dst, dsts),
    )
}

/// Adjacency provider for one `(edge label, direction)`: the VE-index, or a
/// transient [`Csr`] built over the edge relation per query (the hash-join
/// fallback; `Arc`-shared so a batch builds it once) — the same structure
/// in the same entry order, so both regimes enumerate identically.
enum Adjacency<'a> {
    Indexed {
        index: &'a GraphIndex,
        label: LabelId,
        dir: Direction,
    },
    Hashed(Arc<Csr>),
}

impl<'a> Adjacency<'a> {
    fn build(edge: usize, dir: Direction, ctx: &'a GraphExecContext<'_>) -> Result<Adjacency<'a>> {
        let pe = ctx.pattern.edge(edge);
        if ctx.use_index {
            return Ok(Adjacency::Indexed {
                index: ctx.index()?,
                label: pe.label,
                dir,
            });
        }
        // Batched execution: every instance of the skeleton expands the
        // same (label, dir), and the adjacency is literal-independent — the
        // first query in the batch builds it, the rest reuse it.
        if let Some(batch) = ctx.batch {
            if let Some(adj) = batch.hashed.lock().unwrap().get(&(pe.label, dir)) {
                return Ok(Adjacency::Hashed(Arc::clone(adj)));
            }
        }
        // Hash fallback: resolve both endpoints of every edge row through
        // the λ key indexes and group them by from-vertex.
        let (srcs, dsts) = ctx.view.resolve_endpoints(pe.label, None)?;
        let (src_label, dst_label) = ctx.view.schema().edge_endpoints(pe.label);
        let (from_label, from, to) = match dir {
            Direction::Out => (src_label, srcs, dsts),
            Direction::In => (dst_label, dsts, srcs),
        };
        let triples = (0..from.len())
            .map(|r| (from[r], r as RowId, to[r]))
            .collect();
        let adj = Arc::new(Csr::build(ctx.view.vertex_count(from_label), triples));
        if let Some(batch) = ctx.batch {
            batch
                .hashed
                .lock()
                .unwrap()
                .insert((pe.label, dir), Arc::clone(&adj));
        }
        Ok(Adjacency::Hashed(adj))
    }

    /// `(edges, neighbors)` adjacent to `v`, sorted by neighbor — borrowed,
    /// not copied.
    #[inline]
    fn neighbors(&self, v: RowId) -> (&[RowId], &[RowId]) {
        match self {
            Adjacency::Indexed { index, label, dir } => index.neighbors(*label, *dir, v),
            Adjacency::Hashed(adj) => adj.neighbors(v),
        }
    }

    /// Number of adjacency entries of `v`.
    #[inline]
    fn degree(&self, v: RowId) -> usize {
        match self {
            Adjacency::Indexed { index, label, dir } => index.degree(*label, *dir, v),
            Adjacency::Hashed(adj) => adj.degree(v),
        }
    }
}

/// Precompute a per-table-row pass mask for `pred` when the expansion will
/// touch enough entries (`entries`, with repeats) to amortize evaluating
/// the predicate once per table row instead of once per adjacency entry.
/// Under batched execution, masks are shared through [`BatchState`] keyed
/// by `(table, rendered predicate)`: structural predicates (identical
/// across the batch's rebound instances) are computed once, and a cached
/// mask is used even below the volume threshold — it is already paid for.
fn predicate_mask(
    pred: Option<&ScalarExpr>,
    table: &Table,
    entries: usize,
    batch: Option<&BatchState>,
) -> Result<Option<Arc<Vec<bool>>>> {
    let Some(p) = pred else { return Ok(None) };
    if let Some(batch) = batch {
        // A batch caches a handful of masks; linear scan with structural
        // predicate equality (never aliasable, unlike a rendered string).
        let masks = batch.masks.lock().unwrap();
        if let Some((_, _, mask)) = masks
            .iter()
            .find(|(t, cached, _)| t == table.name() && cached == p)
        {
            return Ok(Some(Arc::clone(mask)));
        }
    }
    let n = table.num_rows();
    if entries < n / 4 {
        return Ok(None);
    }
    let mut mask = vec![false; n];
    for r in p.filter(table)? {
        mask[r as usize] = true;
    }
    let mask = Arc::new(mask);
    if let Some(batch) = batch {
        batch
            .masks
            .lock()
            .unwrap()
            .push((table.name().to_string(), p.clone(), Arc::clone(&mask)));
    }
    Ok(Some(mask))
}

/// Whether `row` passes `pred`, through the precomputed `mask` when present.
#[inline]
fn passes(
    mask: &Option<Arc<Vec<bool>>>,
    pred: Option<&ScalarExpr>,
    table: &Table,
    row: RowId,
) -> Result<bool> {
    if let Some(m) = mask {
        return Ok(m[row as usize]);
    }
    match pred {
        None => Ok(true),
        Some(p) => p.matches(table, row),
    }
}

/// `EXPAND` (fused or edge-materializing), morsel-parallel over input rows.
#[allow(clippy::too_many_arguments)]
fn expand(
    input: &GraphChunk,
    from: usize,
    edge: usize,
    to: usize,
    dir: Direction,
    emit_edge: bool,
    edge_predicate: Option<&ScalarExpr>,
    vertex_predicate: Option<&ScalarExpr>,
    ctx: &GraphExecContext<'_>,
) -> Result<GraphChunk> {
    let pe = ctx.pattern.edge(edge);
    let adj = Adjacency::build(edge, dir, ctx)?;
    let etable = ctx.view.edge_table(pe.label);
    let vtable = ctx.view.vertex_table(ctx.pattern.vertex(to).label);
    let from_col = input.vertex_col(from)?;

    // Pre-pass: per-row degrees (memoized — the hash-fallback probe is not
    // free) size the output columns and decide whether masks pay off.
    let degs: Vec<usize> = from_col.iter().map(|&v| adj.degree(v)).collect();
    let total: usize = degs.iter().sum();
    let emask = predicate_mask(edge_predicate, etable, total, ctx.batch)?;
    let vmask = predicate_mask(vertex_predicate, vtable, total, ctx.batch)?;
    let unfiltered = edge_predicate.is_none() && vertex_predicate.is_none();

    let budget = RowBudget::new(ctx.row_limit);
    type ExpandPart = (Vec<usize>, Vec<RowId>, Vec<RowId>);
    let parts: Vec<ExpandPart> = morsel::run_morsels(
        from_col.len(),
        ctx.threads,
        morsel::DEFAULT_MORSEL_ROWS,
        |_, range| {
            ctx.check_deadline()?;
            let cap: usize = degs[range.clone()].iter().sum();
            let mut gather = Vec::with_capacity(cap);
            let mut to_col = Vec::with_capacity(cap);
            let mut edge_col = Vec::with_capacity(if emit_edge { cap } else { 0 });
            // Reusable per-row buffer of predicate survivors.
            let mut hits: Vec<(RowId, RowId)> = Vec::new();
            for i in range {
                let (es, ns) = adj.neighbors(from_col[i]);
                if unfiltered {
                    // Projected output size is exact: charge before
                    // materializing anything.
                    budget.charge(es.len())?;
                    gather.resize(gather.len() + es.len(), i);
                    to_col.extend_from_slice(ns);
                    if emit_edge {
                        edge_col.extend_from_slice(es);
                    }
                } else {
                    hits.clear();
                    for (&erow, &nrow) in es.iter().zip(ns.iter()) {
                        if passes(&emask, edge_predicate, etable, erow)?
                            && passes(&vmask, vertex_predicate, vtable, nrow)?
                        {
                            hits.push((erow, nrow));
                        }
                    }
                    budget.charge(hits.len())?;
                    for &(erow, nrow) in &hits {
                        gather.push(i);
                        to_col.push(nrow);
                        if emit_edge {
                            edge_col.push(erow);
                        }
                    }
                }
            }
            Ok((gather, to_col, edge_col))
        },
    )?;

    let out_rows: usize = parts.iter().map(|p| p.0.len()).sum();
    let mut gather = Vec::with_capacity(out_rows);
    let mut to_col = Vec::with_capacity(out_rows);
    let mut edge_col = Vec::with_capacity(if emit_edge { out_rows } else { 0 });
    for (g, t, e) in parts {
        gather.extend_from_slice(&g);
        to_col.extend_from_slice(&t);
        edge_col.extend_from_slice(&e);
    }
    let new_edges = if emit_edge {
        vec![(edge, edge_col)]
    } else {
        Vec::new()
    };
    input.extend(&gather, Some((to, to_col)), new_edges)
}

/// `EXPAND_INTERSECT`: per input row, intersect the (sorted) adjacency
/// lists of every leg; parallel data edges multiply matches, preserving
/// homomorphism bag semantics. Morsel-parallel over input rows.
fn expand_intersect(
    input: &GraphChunk,
    legs: &[StarLeg],
    to: usize,
    emit_edges: bool,
    vertex_predicate: Option<&ScalarExpr>,
    ctx: &GraphExecContext<'_>,
) -> Result<GraphChunk> {
    if legs.len() < 2 {
        return Err(RelGoError::execution(
            "EXPAND_INTERSECT requires at least two legs",
        ));
    }
    let adjs: Vec<Adjacency<'_>> = legs
        .iter()
        .map(|l| Adjacency::build(l.edge, l.dir, ctx))
        .collect::<Result<_>>()?;
    let etables: Vec<_> = legs
        .iter()
        .map(|l| ctx.view.edge_table(ctx.pattern.edge(l.edge).label))
        .collect();
    let epreds: Vec<Option<&ScalarExpr>> = legs
        .iter()
        .map(|l| ctx.pattern.edge(l.edge).predicate.as_ref())
        .collect();
    let vtable = ctx.view.vertex_table(ctx.pattern.vertex(to).label);
    // Hoisted binding columns: one slice per leg, no per-row Result lookup.
    let from_cols: Vec<&[RowId]> = legs
        .iter()
        .map(|l| input.vertex_col(l.from))
        .collect::<Result<_>>()?;
    // Candidate volume estimate for the mask heuristic: the intersection
    // only touches entries of the shortest list, so sum the per-row
    // *minimum* leg degree (leg 0's full degree would overestimate and
    // trigger full-table predicate evaluation for tiny intersections).
    let entries: usize = (0..input.len())
        .map(|row| {
            adjs.iter()
                .enumerate()
                .map(|(leg_i, adj)| adj.degree(from_cols[leg_i][row]))
                .min()
                .unwrap_or(0)
        })
        .sum();
    let emasks: Vec<Option<Arc<Vec<bool>>>> = (0..legs.len())
        .map(|i| predicate_mask(epreds[i], etables[i], entries, ctx.batch))
        .collect::<Result<_>>()?;
    let vmask = predicate_mask(vertex_predicate, vtable, entries, ctx.batch)?;

    let budget = RowBudget::new(ctx.row_limit);
    type EiPart = (Vec<usize>, Vec<RowId>, Vec<Vec<RowId>>);
    let parts: Vec<EiPart> = morsel::run_morsels(
        input.len(),
        ctx.threads,
        morsel::DEFAULT_MORSEL_ROWS,
        |_, range| {
            ctx.check_deadline()?;
            let mut gather = Vec::new();
            let mut to_col: Vec<RowId> = Vec::new();
            let mut edge_cols: Vec<Vec<RowId>> = vec![Vec::new(); legs.len()];
            // Reusable per-row buffers (performance-guide workhorse pattern).
            let mut lists: Vec<(&[RowId], &[RowId])> = Vec::with_capacity(legs.len());
            let mut order: Vec<usize> = Vec::with_capacity(legs.len());
            let mut per_leg: Vec<Vec<RowId>> = vec![Vec::new(); legs.len()];
            let mut idx: Vec<usize> = Vec::with_capacity(legs.len());
            for row in range {
                lists.clear();
                for (leg_i, adj) in adjs.iter().enumerate() {
                    lists.push(adj.neighbors(from_cols[leg_i][row]));
                }
                // Intersect candidate neighbor sets, shortest first.
                order.clear();
                order.extend(0..legs.len());
                order.sort_by_key(|&i| lists[i].1.len());
                let (first, rest) = order.split_first().expect("≥2 legs");
                'candidate: for (pos, &w) in lists[*first].1.iter().enumerate() {
                    // Skip duplicate runs in the first list; multiplicity is
                    // handled by enumerating edge combinations below.
                    if pos > 0 && lists[*first].1[pos - 1] == w {
                        continue;
                    }
                    for &i in rest {
                        if lists[i].1.binary_search(&w).is_err() {
                            continue 'candidate;
                        }
                    }
                    if !passes(&vmask, vertex_predicate, vtable, w)? {
                        continue;
                    }
                    // Edge candidates per leg pointing at w (predicate-
                    // filtered); the projected row count is the product.
                    let mut combos = 1usize;
                    for (i, &(es, ns)) in lists.iter().enumerate() {
                        let lo = ns.partition_point(|&x| x < w);
                        let hi = ns.partition_point(|&x| x <= w);
                        let cands = &mut per_leg[i];
                        cands.clear();
                        for &erow in &es[lo..hi] {
                            if passes(&emasks[i], epreds[i], etables[i], erow)? {
                                cands.push(erow);
                            }
                        }
                        if cands.is_empty() {
                            continue 'candidate;
                        }
                        // Saturate: a wrapped product would undercharge the
                        // budget — the guard must trip, not overflow.
                        combos = combos.saturating_mul(cands.len());
                    }
                    // Charge the projected combination count before
                    // materializing it.
                    budget.charge(combos)?;
                    // Cartesian product over per-leg edge candidates
                    // (usually 1×1).
                    idx.clear();
                    idx.resize(per_leg.len(), 0);
                    loop {
                        gather.push(row);
                        to_col.push(w);
                        if emit_edges {
                            for (i, &j) in idx.iter().enumerate() {
                                edge_cols[i].push(per_leg[i][j]);
                            }
                        }
                        // Advance the mixed-radix counter.
                        let mut k = 0;
                        loop {
                            if k == idx.len() {
                                break;
                            }
                            idx[k] += 1;
                            if idx[k] < per_leg[k].len() {
                                break;
                            }
                            idx[k] = 0;
                            k += 1;
                        }
                        if k == idx.len() {
                            break;
                        }
                    }
                }
            }
            Ok((gather, to_col, edge_cols))
        },
    )?;

    let out_rows: usize = parts.iter().map(|p| p.0.len()).sum();
    let mut gather = Vec::with_capacity(out_rows);
    let mut to_col = Vec::with_capacity(out_rows);
    // (`vec![..; n]` would clone away the capacity hint.)
    let mut edge_cols: Vec<Vec<RowId>> = (0..legs.len())
        .map(|_| Vec::with_capacity(out_rows))
        .collect();
    for (g, t, ecols) in parts {
        gather.extend_from_slice(&g);
        to_col.extend_from_slice(&t);
        for (i, col) in ecols.into_iter().enumerate() {
            edge_cols[i].extend_from_slice(&col);
        }
    }
    let new_edges = if emit_edges {
        legs.iter()
            .map(|l| l.edge)
            .zip(edge_cols)
            .collect::<Vec<_>>()
    } else {
        Vec::new()
    };
    input.extend(&gather, Some((to, to_col)), new_edges)
}

/// `FILTER_VERTEX`: prune rows whose binding of `v` fails the predicate,
/// morsel-parallel with a precomputed pass mask when worthwhile.
fn filter_vertex(
    input: &GraphChunk,
    v: usize,
    predicate: &ScalarExpr,
    ctx: &GraphExecContext<'_>,
) -> Result<GraphChunk> {
    let label = ctx.pattern.vertex(v).label;
    let table = ctx.view.vertex_table(label);
    let col = input.vertex_col(v)?;
    let mask = predicate_mask(Some(predicate), table, col.len(), ctx.batch)?;
    let parts: Vec<Vec<usize>> = morsel::run_morsels(
        col.len(),
        ctx.threads,
        morsel::DEFAULT_MORSEL_ROWS,
        |_, range| {
            ctx.check_deadline()?;
            if let Some(mask) = &mask {
                return Ok(range.filter(|&i| mask[col[i] as usize]).collect());
            }
            let pass = predicate.select_positions(table, Some(&col[range.clone()]))?;
            Ok(pass.iter().map(|&p| range.start + p as usize).collect())
        },
    )?;
    let keep: Vec<usize> = parts.concat();
    Ok(input.take(&keep))
}

/// Hash join of two chunks on common element bindings: build a
/// [`JoinTable`] on the smaller side, probe with the larger in row order,
/// gather the matched pairs column-wise. Output is probe-major, the build
/// rows of one probe row in input order.
fn join_chunks(
    left: &GraphChunk,
    right: &GraphChunk,
    on_vertices: &[usize],
    on_edges: &[usize],
    ctx: &GraphExecContext<'_>,
) -> Result<GraphChunk> {
    let (build, probe, swapped) = if left.len() <= right.len() {
        (left, right, false)
    } else {
        (right, left, true)
    };
    if u32::try_from(probe.len()).is_err() {
        return Err(RelGoError::ResourceExhausted(format!(
            "join probe side of {} rows exceeds the row id range",
            probe.len()
        )));
    }
    fn key_cols<'a>(
        chunk: &'a GraphChunk,
        on_vertices: &[usize],
        on_edges: &[usize],
    ) -> Result<Vec<Cow<'a, [RowId]>>> {
        let vertices = on_vertices.iter().map(|&v| chunk.vertex_col(v));
        let edges = on_edges.iter().map(|&e| chunk.edge_col(e));
        vertices
            .chain(edges)
            .map(|c| c.map(Cow::Borrowed))
            .collect()
    }
    let mut bcols = key_cols(build, on_vertices, on_edges)?;
    let mut pcols = key_cols(probe, on_vertices, on_edges)?;
    // A key is one `i64`: no column is 0 (a cross product), one is the row
    // id, two pack into its halves. A wider key first folds its leading
    // pair into one column by numbering the build side's distinct pairs; a
    // probe pair the build side never saw gets `RowId::MAX`, which is
    // never a row id or a number, so it matches nothing.
    let pack = |cols: &[Cow<'_, [RowId]>], row: usize| {
        cols.iter()
            .fold(0i64, |key, col| (key << 32) | col[row] as i64)
    };
    while bcols.len() > 2 {
        let mut ids: FxHashMap<i64, RowId> = FxHashMap::default();
        let folded: Vec<RowId> = (0..build.len())
            .map(|row| {
                let next = ids.len() as RowId;
                *ids.entry(pack(&bcols[..2], row)).or_insert(next)
            })
            .collect();
        bcols.splice(..2, [Cow::Owned(folded)]);
        let folded = (0..probe.len())
            .map(|row| *ids.get(&pack(&pcols[..2], row)).unwrap_or(&RowId::MAX))
            .collect();
        pcols.splice(..2, [Cow::Owned(folded)]);
    }
    let table = JoinTable::build(build.len(), |row| Some(pack(&bcols, row)))?;
    let (mut bidx, mut pidx): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
    for morsel in 0..morsel::morsel_count(probe.len(), morsel::DEFAULT_MORSEL_ROWS) {
        // Once per morsel whether or not anything matched: a long probe
        // that finds nothing must still notice its deadline.
        ctx.check_deadline()?;
        for prow in morsel::morsel_range(morsel, probe.len(), morsel::DEFAULT_MORSEL_ROWS) {
            let matches = table.probe(pack(&pcols, prow));
            if !matches.is_empty() {
                bidx.extend_from_slice(matches);
                pidx.resize(bidx.len(), prow as u32);
                // Joins are where blow-ups happen: trip on the pair count,
                // before anything is gathered.
                ctx.check_rows(bidx.len())?;
            }
        }
    }
    let (lidx, ridx) = if swapped { (pidx, bidx) } else { (bidx, pidx) };
    Ok(GraphChunk::join(left, &lidx, right, &ridx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgo_common::{DataType, LabelId, Value};
    use relgo_core::graph_plan::PlanAnnotation;
    use relgo_graph::RGMapping;
    use relgo_pattern::PatternBuilder;
    use relgo_storage::table::table_of;
    use relgo_storage::Database;

    fn fig2_view() -> GraphView {
        let mut db = Database::new();
        db.add_table(table_of(
            "Person",
            &[("person_id", DataType::Int), ("name", DataType::Str)],
            vec![
                vec![1.into(), "Tom".into()],
                vec![2.into(), "Bob".into()],
                vec![3.into(), "David".into()],
            ],
        ));
        db.add_table(table_of(
            "Message",
            &[("message_id", DataType::Int)],
            vec![vec![100.into()], vec![200.into()]],
        ));
        db.add_table(table_of(
            "Likes",
            &[
                ("likes_id", DataType::Int),
                ("pid", DataType::Int),
                ("mid", DataType::Int),
                ("date", DataType::Date),
            ],
            vec![
                vec![1.into(), 1.into(), 100.into(), Value::Date(31)],
                vec![2.into(), 2.into(), 100.into(), Value::Date(28)],
                vec![3.into(), 2.into(), 200.into(), Value::Date(20)],
                vec![4.into(), 3.into(), 200.into(), Value::Date(21)],
            ],
        ));
        db.add_table(table_of(
            "Knows",
            &[
                ("knows_id", DataType::Int),
                ("pid1", DataType::Int),
                ("pid2", DataType::Int),
            ],
            vec![
                vec![1.into(), 1.into(), 2.into()],
                vec![2.into(), 2.into(), 1.into()],
                vec![3.into(), 2.into(), 3.into()],
                vec![4.into(), 3.into(), 2.into()],
            ],
        ));
        db.set_primary_key("Person", "person_id").unwrap();
        db.set_primary_key("Message", "message_id").unwrap();
        db.set_primary_key("Likes", "likes_id").unwrap();
        db.set_primary_key("Knows", "knows_id").unwrap();
        let mapping = RGMapping::new()
            .vertex("Person")
            .vertex("Message")
            .edge("Likes", "pid", "Person", "mid", "Message")
            .edge("Knows", "pid1", "Person", "pid2", "Person");
        let mut g = GraphView::build(&mut db, mapping).unwrap();
        g.build_index().unwrap();
        g
    }

    fn wedge_pattern() -> relgo_pattern::Pattern {
        // (p1)-[Likes]->(m)<-[Likes]-(p2)
        let mut b = PatternBuilder::new();
        let p1 = b.vertex("p1", LabelId(0));
        let p2 = b.vertex("p2", LabelId(0));
        let m = b.vertex("m", LabelId(1));
        b.edge(p1, m, LabelId(0)).unwrap();
        b.edge(p2, m, LabelId(0)).unwrap();
        b.build().unwrap()
    }

    fn ctx<'a>(
        view: &'a GraphView,
        pattern: &'a relgo_pattern::Pattern,
        idx: bool,
    ) -> GraphExecContext<'a> {
        GraphExecContext {
            view,
            pattern,
            use_index: idx,
            row_limit: 1_000_000,
            threads: 1,
            deadline: None,
            batch: None,
            profile: None,
        }
    }

    fn ann() -> PlanAnnotation {
        PlanAnnotation::default()
    }

    #[test]
    fn scan_and_expand_indexed_vs_hashed_agree() {
        let view = fig2_view();
        let pat = wedge_pattern();
        let plan = GraphOp::Expand {
            input: Box::new(GraphOp::ScanVertex {
                v: 0,
                predicate: None,
                ann: ann(),
            }),
            from: 0,
            edge: 0,
            to: 2,
            dir: Direction::Out,
            emit_edge: true,
            edge_predicate: None,
            vertex_predicate: None,
            ann: ann(),
        };
        let with = execute_graph(&plan, &ctx(&view, &pat, true)).unwrap();
        let without = execute_graph(&plan, &ctx(&view, &pat, false)).unwrap();
        assert_eq!(with.len(), 4);
        assert_eq!(without.len(), 4);
        let mut a: Vec<(RowId, RowId)> = (0..4)
            .map(|i| (with.vertex_at(0, i).unwrap(), with.edge_at(0, i).unwrap()))
            .collect();
        let mut b: Vec<(RowId, RowId)> = (0..4)
            .map(|i| {
                (
                    without.vertex_at(0, i).unwrap(),
                    without.edge_at(0, i).unwrap(),
                )
            })
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn hashed_adjacency_slices_are_neighbor_sorted() {
        let view = fig2_view();
        let pat = wedge_pattern();
        let c = ctx(&view, &pat, false);
        let adj = Adjacency::build(0, Direction::Out, &c).unwrap();
        for v in 0..3 {
            let (es, ns) = adj.neighbors(v);
            assert_eq!(es.len(), ns.len());
            assert_eq!(adj.degree(v), ns.len());
            assert!(ns.windows(2).all(|w| w[0] <= w[1]), "sorted bucket");
        }
        // Bob (row 1) likes both messages.
        assert_eq!(adj.neighbors(1).1, &[0, 1]);
        // The indexed and hashed providers agree entry-for-entry.
        let idx_ctx = ctx(&view, &pat, true);
        let idx_adj = Adjacency::build(0, Direction::Out, &idx_ctx).unwrap();
        for v in 0..3 {
            assert_eq!(adj.neighbors(v), idx_adj.neighbors(v));
        }
    }

    #[test]
    fn batch_state_shares_hashed_adjacency_and_masks() {
        let view = fig2_view();
        let pat = wedge_pattern();
        let batch = BatchState::new();
        let mut c = ctx(&view, &pat, false);
        c.batch = Some(&batch);
        let a = Adjacency::build(0, Direction::Out, &c).unwrap();
        let b = Adjacency::build(0, Direction::Out, &c).unwrap();
        match (&a, &b) {
            (Adjacency::Hashed(x), Adjacency::Hashed(y)) => {
                assert!(
                    Arc::ptr_eq(x, y),
                    "second build reuses the batch's adjacency"
                );
            }
            _ => panic!("hash fallback expected"),
        }
        // Distinct (label, dir) keys stay distinct.
        let rev = Adjacency::build(0, Direction::In, &c).unwrap();
        match (&a, &rev) {
            (Adjacency::Hashed(x), Adjacency::Hashed(y)) => assert!(!Arc::ptr_eq(x, y)),
            _ => panic!("hash fallback expected"),
        }
        // Identical predicates share one mask; even below the volume
        // threshold the cached mask is reused.
        let table = view.vertex_table(LabelId(0));
        let pred = ScalarExpr::col_eq(1, "Bob");
        let m1 = predicate_mask(Some(&pred), table, usize::MAX, Some(&batch))
            .unwrap()
            .expect("mask built");
        let m2 = predicate_mask(Some(&pred), table, 0, Some(&batch))
            .unwrap()
            .expect("cached mask served below threshold");
        assert!(Arc::ptr_eq(&m1, &m2));
        assert_eq!(m1.as_slice(), &[false, true, false]);
        // Without a batch, the volume threshold still gates mask
        // construction (the 4-row Likes table has a nonzero threshold).
        let likes = view.edge_table(LabelId(0));
        let epred = ScalarExpr::col_cmp(3, relgo_storage::BinaryOp::Ge, Value::Date(28));
        assert!(predicate_mask(Some(&epred), likes, 0, None)
            .unwrap()
            .is_none());
    }

    #[test]
    fn parallel_expand_is_bit_identical_to_serial() {
        let view = fig2_view();
        let pat = wedge_pattern();
        let plan = GraphOp::Expand {
            input: Box::new(GraphOp::Expand {
                input: Box::new(GraphOp::ScanVertex {
                    v: 0,
                    predicate: None,
                    ann: ann(),
                }),
                from: 0,
                edge: 0,
                to: 2,
                dir: Direction::Out,
                emit_edge: true,
                edge_predicate: None,
                vertex_predicate: None,
                ann: ann(),
            }),
            from: 2,
            edge: 1,
            to: 1,
            dir: Direction::In,
            emit_edge: true,
            edge_predicate: None,
            vertex_predicate: None,
            ann: ann(),
        };
        let serial = execute_graph(&plan, &ctx(&view, &pat, true)).unwrap();
        for threads in [2usize, 8] {
            let mut c = ctx(&view, &pat, true);
            c.threads = threads;
            let par = execute_graph(&plan, &c).unwrap();
            assert_eq!(par.len(), serial.len());
            for row in 0..serial.len() {
                for v in 0..3 {
                    assert_eq!(
                        par.vertex_at(v, row).unwrap(),
                        serial.vertex_at(v, row).unwrap()
                    );
                }
                for e in 0..2 {
                    assert_eq!(
                        par.edge_at(e, row).unwrap(),
                        serial.edge_at(e, row).unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn scan_edge_binds_endpoints() {
        let view = fig2_view();
        let pat = wedge_pattern();
        let plan = GraphOp::ScanEdge {
            e: 0,
            predicate: None,
            ann: ann(),
        };
        let out = execute_graph(&plan, &ctx(&view, &pat, true)).unwrap();
        assert_eq!(out.len(), 4);
        assert!(out.binds_vertex(0));
        assert!(out.binds_vertex(2));
        assert!(out.binds_edge(0));
        // Edge row 1 (l2): Bob (row 1) likes m1 (row 0).
        let row = (0..4).find(|&i| out.edge_at(0, i).unwrap() == 1).unwrap();
        assert_eq!(out.vertex_at(0, row).unwrap(), 1);
        assert_eq!(out.vertex_at(2, row).unwrap(), 0);
    }

    #[test]
    fn wedge_via_intersect_matches_count() {
        let view = fig2_view();
        let pat = wedge_pattern();
        // Bind p1 and p2 with a cross product (join on no keys), then
        // intersect their Likes adjacencies to find m.
        let cross = GraphOp::JoinSub {
            left: Box::new(GraphOp::ScanVertex {
                v: 0,
                predicate: None,
                ann: ann(),
            }),
            right: Box::new(GraphOp::ScanVertex {
                v: 1,
                predicate: None,
                ann: ann(),
            }),
            on_vertices: vec![],
            on_edges: vec![],
            ann: ann(),
        };
        let plan = GraphOp::ExpandIntersect {
            input: Box::new(cross),
            legs: vec![
                StarLeg {
                    from: 0,
                    edge: 0,
                    dir: Direction::Out,
                },
                StarLeg {
                    from: 1,
                    edge: 1,
                    dir: Direction::Out,
                },
            ],
            to: 2,
            emit_edges: true,
            vertex_predicate: None,
            ann: ann(),
        };
        let out = execute_graph(&plan, &ctx(&view, &pat, true)).unwrap();
        // Homomorphic wedges: 8 (m1: {T,B}², m2: {B,D}²).
        assert_eq!(out.len(), 8);
        // Parallel intersection merges morsels in order: bit-identical.
        let mut c = ctx(&view, &pat, true);
        c.threads = 4;
        let par = execute_graph(&plan, &c).unwrap();
        assert_eq!(par.len(), 8);
        for row in 0..8 {
            for v in 0..3 {
                assert_eq!(
                    par.vertex_at(v, row).unwrap(),
                    out.vertex_at(v, row).unwrap()
                );
            }
        }
        // Fused EI preserves multiplicity.
        let fused = match plan {
            GraphOp::ExpandIntersect {
                input, legs, to, ..
            } => GraphOp::ExpandIntersect {
                input,
                legs,
                to,
                emit_edges: false,
                vertex_predicate: None,
                ann: ann(),
            },
            _ => unreachable!(),
        };
        let out2 = execute_graph(&fused, &ctx(&view, &pat, true)).unwrap();
        assert_eq!(out2.len(), 8);
        assert!(!out2.binds_edge(0));
    }

    #[test]
    fn join_on_shared_vertex() {
        let view = fig2_view();
        let pat = wedge_pattern();
        let left = GraphOp::ScanEdge {
            e: 0,
            predicate: None,
            ann: ann(),
        };
        let right = GraphOp::ScanEdge {
            e: 1,
            predicate: None,
            ann: ann(),
        };
        let plan = GraphOp::JoinSub {
            left: Box::new(left),
            right: Box::new(right),
            on_vertices: vec![2],
            on_edges: vec![],
            ann: ann(),
        };
        let out = execute_graph(&plan, &ctx(&view, &pat, true)).unwrap();
        assert_eq!(out.len(), 8, "wedges again, via join");
    }

    /// The `join_chunks` this one replaced: a heap-allocated key and a
    /// `Result` lookup per row and column.
    fn join_chunks_reference(
        left: &GraphChunk,
        right: &GraphChunk,
        on_vertices: &[usize],
        on_edges: &[usize],
    ) -> GraphChunk {
        let (build, probe, swapped) = if left.len() <= right.len() {
            (left, right, false)
        } else {
            (right, left, true)
        };
        let key_of = |chunk: &GraphChunk, row: usize| -> Vec<RowId> {
            let vs = on_vertices
                .iter()
                .map(|&v| chunk.vertex_at(v, row).unwrap());
            let es = on_edges.iter().map(|&e| chunk.edge_at(e, row).unwrap());
            vs.chain(es).collect()
        };
        let mut table: FxHashMap<Vec<RowId>, Vec<usize>> = FxHashMap::default();
        for row in 0..build.len() {
            table.entry(key_of(build, row)).or_default().push(row);
        }
        let mut out = GraphChunk::join_layout(left, right);
        for prow in 0..probe.len() {
            for &brow in table.get(&key_of(probe, prow)).into_iter().flatten() {
                let (li, ri) = if swapped { (prow, brow) } else { (brow, prow) };
                out.push_joined(left, li, right, ri).unwrap();
            }
        }
        out
    }

    /// A chunk over a 4-vertex, 2-edge pattern binding `vs` and `es`, its
    /// cells drawn from `domain` by a fixed linear congruence — few values,
    /// so keys repeat on both sides.
    fn chunk_of(
        vs: &[usize],
        es: &[usize],
        rows: usize,
        domain: &[RowId],
        seed: u64,
    ) -> GraphChunk {
        let mut state = seed;
        let mut col = || -> Vec<RowId> {
            (0..rows)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    domain[(state >> 33) as usize % domain.len()]
                })
                .collect()
        };
        let first = GraphChunk::from_vertex(4, 2, vs[0], col());
        let gather: Vec<usize> = (0..rows).collect();
        let mut chunk = first;
        for &v in &vs[1..] {
            chunk = chunk.extend(&gather, Some((v, col())), vec![]).unwrap();
        }
        let edges = es.iter().map(|&e| (e, col())).collect();
        chunk.extend(&gather, None, edges).unwrap()
    }

    #[test]
    fn join_equals_the_row_at_a_time_reference_for_every_key_width() {
        let view = fig2_view();
        let pat = wedge_pattern();
        let c = ctx(&view, &pat, true);
        // Dense ids take the direct-address directory, scattered ones the
        // hashed one.
        for domain in [&[0, 1, 2][..], &[5, 1_000_000, 4_000_000_000][..]] {
            let a = chunk_of(&[0, 1, 2], &[0, 1], 40, domain, 1);
            let b = chunk_of(&[1, 2, 3], &[0], 25, domain, 2);
            let keys: [(&[usize], &[usize]); 4] =
                [(&[], &[]), (&[1], &[]), (&[1, 2], &[]), (&[1, 2], &[0])];
            for (on_v, on_e) in keys {
                // Either argument order: build side on the left, then right.
                for (l, r) in [(&a, &b), (&b, &a)] {
                    let got = join_chunks(l, r, on_v, on_e, &c).unwrap();
                    let want = join_chunks_reference(l, r, on_v, on_e);
                    assert_eq!(got.len(), want.len(), "width {}", on_v.len() + on_e.len());
                    assert!(!want.is_empty(), "vacuous join");
                    for v in 0..4 {
                        assert_eq!(got.vertex_col(v).unwrap(), want.vertex_col(v).unwrap());
                    }
                    for e in 0..2 {
                        assert_eq!(got.edge_col(e).unwrap(), want.edge_col(e).unwrap());
                    }
                }
            }
        }
    }

    #[test]
    fn join_trips_the_row_limit_on_the_probe_row_that_crosses_it() {
        let view = fig2_view();
        let pat = wedge_pattern();
        let mut c = ctx(&view, &pat, true);
        let a = chunk_of(&[0], &[], 40, &[0, 1, 2], 1);
        let b = chunk_of(&[1], &[], 25, &[0, 1, 2], 2);
        // The cross product reaches 1000 rows with the last probe row.
        c.row_limit = 999;
        match join_chunks(&a, &b, &[], &[], &c) {
            Err(RelGoError::ResourceExhausted(m)) => assert!(m.contains("of 1000 rows"), "{m}"),
            other => panic!("expected resource exhaustion, got {other:?}"),
        }
        c.row_limit = 1000;
        assert_eq!(join_chunks(&a, &b, &[], &[], &c).unwrap().len(), 1000);
    }

    #[test]
    fn deadline_is_checked_by_a_join_that_matches_nothing() {
        let view = fig2_view();
        let pat = wedge_pattern();
        let mut c = ctx(&view, &pat, true);
        let a = chunk_of(&[0, 1], &[], 3000, &[0, 1, 2], 1);
        let b = chunk_of(&[1, 2], &[], 10, &[7, 8, 9], 2);
        assert_eq!(join_chunks(&a, &b, &[1], &[], &c).unwrap().len(), 0);
        c.deadline = Some(TimeBudget::new(std::time::Duration::ZERO));
        assert!(matches!(
            join_chunks(&a, &b, &[1], &[], &c),
            Err(RelGoError::DeadlineExceeded(_))
        ));
    }

    #[test]
    fn filter_vertex_prunes_bindings() {
        let view = fig2_view();
        let pat = wedge_pattern();
        let plan = GraphOp::FilterVertex {
            input: Box::new(GraphOp::ScanVertex {
                v: 0,
                predicate: None,
                ann: ann(),
            }),
            v: 0,
            predicate: ScalarExpr::col_eq(1, "Bob"),
            ann: ann(),
        };
        let out = execute_graph(&plan, &ctx(&view, &pat, true)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.vertex_at(0, 0).unwrap(), 1);
    }

    #[test]
    fn filter_vertex_keeps_the_same_rows_with_and_without_a_mask() {
        let mut db = Database::new();
        db.add_table(table_of(
            "P",
            &[("id", DataType::Int), ("score", DataType::Int)],
            (0..16).map(|i| vec![i.into(), (i % 4).into()]).collect(),
        ));
        db.add_table(table_of(
            "K",
            &[
                ("id", DataType::Int),
                ("a", DataType::Int),
                ("b", DataType::Int),
            ],
            vec![vec![0.into(), 0.into(), 1.into()]],
        ));
        db.set_primary_key("P", "id").unwrap();
        db.set_primary_key("K", "id").unwrap();
        let mapping = RGMapping::new().vertex("P").edge("K", "a", "P", "b", "P");
        let view = GraphView::build(&mut db, mapping).unwrap();
        let mut b = PatternBuilder::new();
        b.vertex("p", LabelId(0));
        let pat = b.build().unwrap();
        let c = ctx(&view, &pat, false);
        let pred = ScalarExpr::col_eq(1, 1);
        // Three bindings of a 16-row table stay under the mask threshold
        // and go through `select`; five build the mask. Repeats and
        // disorder in the bindings survive either way.
        for (bindings, keep) in [
            (vec![5, 2, 5], vec![5, 5]),
            (vec![5, 2, 5, 9, 2], vec![5, 5, 9]),
        ] {
            let input = GraphChunk::from_vertex(1, 0, 0, bindings);
            let out = filter_vertex(&input, 0, &pred, &c).unwrap();
            assert_eq!(out.vertex_col(0).unwrap(), keep);
        }
    }

    #[test]
    fn row_limit_aborts_expansion_before_materializing() {
        let view = fig2_view();
        let pat = wedge_pattern();
        let plan = GraphOp::Expand {
            input: Box::new(GraphOp::ScanVertex {
                v: 0,
                predicate: None,
                ann: ann(),
            }),
            from: 0,
            edge: 0,
            to: 2,
            dir: Direction::Out,
            emit_edge: false,
            edge_predicate: None,
            vertex_predicate: None,
            ann: ann(),
        };
        for threads in [1usize, 4] {
            let mut c = ctx(&view, &pat, true);
            c.row_limit = 2;
            c.threads = threads;
            match execute_graph(&plan, &c) {
                Err(RelGoError::ResourceExhausted(_)) => {}
                other => panic!("expected resource exhaustion, got {other:?}"),
            }
        }
    }

    #[test]
    fn edge_predicate_applied_during_expand() {
        let view = fig2_view();
        let pat = wedge_pattern();
        let plan = GraphOp::Expand {
            input: Box::new(GraphOp::ScanVertex {
                v: 0,
                predicate: None,
                ann: ann(),
            }),
            from: 0,
            edge: 0,
            to: 2,
            dir: Direction::Out,
            emit_edge: false,
            edge_predicate: Some(ScalarExpr::col_cmp(
                3,
                relgo_storage::BinaryOp::Ge,
                Value::Date(28),
            )),
            vertex_predicate: None,
            ann: ann(),
        };
        let out = execute_graph(&plan, &ctx(&view, &pat, true)).unwrap();
        assert_eq!(out.len(), 2, "likes with date ≥ 28: l1, l2");
    }
}
