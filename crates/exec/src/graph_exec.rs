//! Interpreter for physical graph plans ([`GraphOp`] trees).
//!
//! Two execution regimes, selected by [`ExecConfig::use_index`]:
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
//! [`ExecConfig::threads`] > 1: input rows are partitioned into
//! morsels ([`relgo_common::morsel`]), each worker produces local output
//! columns, and per-morsel outputs are concatenated **in morsel order** —
//! parallel results are bit-identical to serial execution. The row-limit
//! guard is a shared [`RowBudget`] charged with each row's projected output
//! size *before* the rows are materialized.
//!
//! ## Seek, select, then materialize
//!
//! The operators touch only what they return. A vertex predicate that pins
//! the label's primary key is answered by a seek through the view's key
//! index (`vertex_rows`, which `SCAN_VERTEX` and the mask builder share).
//! Expansion borrows adjacency lists as slices (both regimes read a CSR); a
//! predicated `EXPAND` appends the entries to candidate vectors and, every
//! `CANDIDATE_BATCH` entries, runs the edge then the vertex predicate over
//! them through the batch driver [`ScalarExpr::select_positions`] — or
//! through a whole-table pass mask when the table has no more rows than the
//! expansion has entries (`Test`, shared with `EXPAND_INTERSECT` and
//! `FILTER_VERTEX`). Only the survivors are charged and pushed, and the edge
//! half of an adjacency is read only when an edge column or predicate asks
//! for it. `EXPAND_INTERSECT` intersects the legs' sorted neighbour runs by
//! one forward merge, galloping into the longer lists; `JOIN_SUB` is build →
//! probe → gather over packed row-id keys ([`JoinTable`]).
//!
//! `SCAN_EDGE` binds the edge and resolves nothing: its endpoints are
//! deferred columns of the [`GraphChunk`], λ of the edge column through the
//! regime's source ([`GraphView::edge_end`]), looked up by whichever operator
//! first reads them — a join on them, π̂, an `EXPAND` from them — and only
//! for the rows that reached it. A `FILTER_VERTEX` on an endpoint nobody has
//! read yet does not read it either: it is a semijoin of the edge rows with
//! the passing vertices' keys — and so is the first step of a `JOIN_SUB` on
//! one vertex that its probe side has not read: the probe rows are cut down
//! to the build side's keys before any of them is looked up or hashed.
//! Every selection here — a predicate kernel, a pass mask, a key test — goes
//! through the branch-free loops of [`relgo_common::select`].

use crate::chunk::{GraphChunk, UnreadEndpoint};
use crate::profile::ProfileSink;
use crate::rel_exec::ExecConfig;
use relgo_common::morsel::{self, RowBudget};
use relgo_common::select::select;
use relgo_common::{FxHashMap, LabelId, RelGoError, Result, RowId, Value};
use relgo_core::graph_plan::{GraphOp, StarLeg};
use relgo_graph::index::Csr;
use relgo_graph::{Direction, GraphIndex, GraphView};
use relgo_pattern::Pattern;
use relgo_storage::ops::JoinTable;
use relgo_storage::{BinaryOp, KeySet, ScalarExpr, Table};
use std::borrow::Cow;
use std::ops::Range;
use std::time::Instant;

/// Execution context for the graph component.
pub struct GraphExecContext<'a> {
    /// The graph view (tables + λ resolution).
    pub view: &'a GraphView,
    /// The pattern being matched (for edge endpoint metadata).
    pub pattern: &'a Pattern,
    /// The execution limits: index use, row budget (models the paper's
    /// OOM runs), intra-operator threads and the wall-clock deadline every
    /// morsel boundary (and the serial row guard) checks.
    pub cfg: &'a ExecConfig,
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
        if rows > self.cfg.row_limit {
            return Err(RelGoError::ResourceExhausted(format!(
                "intermediate graph relation of {rows} rows exceeds the {} row budget",
                self.cfg.row_limit
            )));
        }
        Ok(())
    }

    /// Morsel-boundary deadline check: called once per morsel by the
    /// parallel operators (cheap relative to a morsel's work), erroring
    /// with `DeadlineExceeded` once the budget expires.
    #[inline]
    fn check_deadline(&self) -> Result<()> {
        match &self.cfg.deadline {
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
            let rows = vertex_rows(ctx.view, label, predicate.as_ref())?;
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

/// `SCAN_EDGE`: bind the edge — its rows that pass `predicate`, or the whole
/// relation without listing it — and *defer* both endpoints: each is λ of
/// the edge column, read from the EV-index or resolved through the key index
/// as the regime says, by the operator that first reads it and for the rows
/// that have survived until then.
fn scan_edge(
    e: usize,
    predicate: Option<&ScalarExpr>,
    ctx: &GraphExecContext<'_>,
) -> Result<GraphChunk> {
    let pe = ctx.pattern.edge(e);
    let table = ctx.view.edge_table(pe.label);
    let rows = predicate.map(|p| p.filter(table)).transpose()?;
    let len = rows.as_ref().map_or(table.num_rows(), Vec::len);
    ctx.guard(len)?;
    let end = |dir| ctx.view.edge_end(pe.label, dir, ctx.cfg.use_index);
    GraphChunk::from_edge_scan(
        (ctx.pattern.vertex_count(), ctx.pattern.edge_count()),
        (e, len, rows),
        (pe.src, end(Direction::In)?),
        (pe.dst, end(Direction::Out)?),
    )
}

/// Adjacency of pattern edge `edge` in direction `dir`: the VE-index's,
/// borrowed, or a transient [`Csr`] built over the edge relation per query
/// (the hash-join fallback) — the same structure in the same entry order,
/// so both regimes enumerate identically.
fn adjacency<'a>(
    edge: usize,
    dir: Direction,
    ctx: &'a GraphExecContext<'_>,
) -> Result<Cow<'a, Csr>> {
    let pe = ctx.pattern.edge(edge);
    if ctx.cfg.use_index {
        return Ok(Cow::Borrowed(ctx.index()?.adjacency(pe.label, dir)));
    }
    // Hash fallback: resolve both endpoints of every edge row through the
    // λ key indexes and group them by from-vertex.
    let (srcs, dsts) = ctx.view.resolve_endpoints(pe.label, None)?;
    let (src_label, dst_label) = ctx.view.schema().edge_endpoints(pe.label);
    let (from_label, from, to) = match dir {
        Direction::Out => (src_label, srcs, dsts),
        Direction::In => (dst_label, dsts, srcs),
    };
    Ok(Cow::Owned(Csr::build(
        ctx.view.vertex_count(from_label),
        &from,
        &to,
    )))
}

/// Entries a predicated `EXPAND` (candidates an `EXPAND_INTERSECT`) buffers
/// before it runs its predicates over them: the transient memory of the
/// filtered path is of this order, whatever the fan-out.
const CANDIDATE_BATCH: usize = morsel::DEFAULT_MORSEL_ROWS;

/// The rows of vertex label `label` that pass `predicate` (every row without
/// one), ascending. A predicate that is — or has as a top-level `AND`
/// conjunct — `pk = <INT literal>` on the label's primary key can only hold
/// on the row that key resolves to: the view's key index finds it and the
/// whole predicate is evaluated there, instead of on every row. Decided from
/// the predicate as executed, so rebound (cached, prepared) plans seek too.
fn vertex_rows(
    view: &GraphView,
    label: LabelId,
    predicate: Option<&ScalarExpr>,
) -> Result<Vec<RowId>> {
    let table = view.vertex_table(label);
    let Some(p) = predicate else {
        return Ok((0..table.num_rows() as RowId).collect());
    };
    match pinned_key(p, view.vertex_pk_col(label)) {
        // A primary key is never NULL: with no row under the key the
        // conjunct is FALSE everywhere, and nothing else is evaluated.
        Some(key) => match view.vertex_pk_index(label).lookup(key) {
            Some(row) => p.select(table, Some(&[row])),
            None => Ok(Vec::new()),
        },
        None => p.select(table, None),
    }
}

/// The key `pred` pins column `pk` to: `pk = k` / `k = pk` with an INT
/// literal, at the top or under top-level `AND`s.
fn pinned_key(pred: &ScalarExpr, pk: usize) -> Option<i64> {
    use ScalarExpr::{And, Cmp, Col, Lit};
    match pred {
        And(l, r) => pinned_key(l, pk).or_else(|| pinned_key(r, pk)),
        Cmp(BinaryOp::Eq, l, r) => match (&**l, &**r) {
            (Col(c), Lit(Value::Int(k))) | (Lit(Value::Int(k)), Col(c)) if *c == pk => Some(*k),
            _ => None,
        },
        _ => None,
    }
}

/// The rows of one table that pass one predicate, a bit a row.
#[derive(Debug)]
struct PassMask(Vec<u64>);

impl PassMask {
    fn of(rows: &[RowId], table_rows: usize) -> PassMask {
        let mut words = vec![0u64; table_rows.div_ceil(64)];
        for &r in rows {
            words[r as usize / 64] |= 1 << (r % 64);
        }
        PassMask(words)
    }

    #[inline]
    fn get(&self, row: RowId) -> bool {
        self.0[row as usize / 64] >> (row % 64) & 1 == 1
    }
}

/// One predicate of an operator, in the form its candidate rows are tested
/// in: a whole-table [`PassMask`] when that is the cheaper evaluation, else
/// the predicate itself, run over the candidate vector.
struct Test<'a> {
    pred: &'a ScalarExpr,
    table: &'a Table,
    mask: Option<PassMask>,
}

impl<'a> Test<'a> {
    /// The test of `pred` over `table` for an operator about to test
    /// `entries` candidate rows (with repeats). The mask costs one
    /// evaluation per table row — `rows` produces the passing ones — and the
    /// candidate vector one per entry, so the mask is built when the table
    /// has no more rows than there are entries.
    fn new(
        pred: &'a ScalarExpr,
        table: &'a Table,
        entries: usize,
        rows: impl FnOnce() -> Result<Vec<RowId>>,
    ) -> Result<Test<'a>> {
        let mask = if table.num_rows() <= entries {
            Some(PassMask::of(&rows()?, table.num_rows()))
        } else {
            None
        };
        Ok(Test { pred, table, mask })
    }

    /// [`Test::new`] for the predicate on pattern vertex `v`, if it has one.
    fn of_vertex(
        pred: Option<&'a ScalarExpr>,
        v: usize,
        entries: usize,
        ctx: &'a GraphExecContext<'_>,
    ) -> Result<Option<Test<'a>>> {
        let label = ctx.pattern.vertex(v).label;
        pred.map(|p| {
            let rows = || vertex_rows(ctx.view, label, Some(p));
            Test::new(p, ctx.view.vertex_table(label), entries, rows)
        })
        .transpose()
    }

    /// [`Test::new`] for the predicate on pattern edge `e`, if it has one.
    fn of_edge(
        pred: Option<&'a ScalarExpr>,
        e: usize,
        entries: usize,
        ctx: &'a GraphExecContext<'_>,
    ) -> Result<Option<Test<'a>>> {
        let table = ctx.view.edge_table(ctx.pattern.edge(e).label);
        pred.map(|p| Test::new(p, table, entries, || p.select(table, None)))
            .transpose()
    }

    /// The ascending positions of `rows` (rows of the table, with repeats
    /// and in any order) that pass.
    fn passing(&self, rows: &[RowId]) -> Result<Vec<u32>> {
        match &self.mask {
            Some(mask) => Ok(select(0..rows.len() as u32, |p| mask.get(rows[p as usize]))),
            None => self.pred.select_positions(self.table, Some(rows)),
        }
    }
}

/// Adjacency entries of an `EXPAND`, a column each: the input row an entry
/// expands, the neighbour it reaches and its edge row. Both a morsel's
/// output and the candidates still awaiting their predicates.
struct Entries {
    inputs: Vec<u32>,
    nbrs: Vec<RowId>,
    /// `None` when nobody will read the edge rows — no predicate on them, no
    /// edge column in the output: that half of the adjacency is then never
    /// touched.
    edges: Option<Vec<RowId>>,
}

/// Keep the cells of `col` at the ascending positions `keep`.
fn compact<T: Copy>(col: &mut Vec<T>, keep: &[u32]) {
    for (to, &from) in keep.iter().enumerate() {
        col[to] = col[from as usize];
    }
    col.truncate(keep.len());
}

impl Entries {
    fn with_capacity(cap: usize, edges: bool) -> Entries {
        Entries {
            inputs: Vec::with_capacity(cap),
            nbrs: Vec::with_capacity(cap),
            edges: edges.then(|| Vec::with_capacity(cap)),
        }
    }

    /// Append entries of input row `input`.
    fn push(&mut self, input: u32, edges: &[RowId], nbrs: &[RowId]) {
        // A many-to-one edge (a message's creator, place, forum) reaches one
        // neighbour from every vertex: that entry is pushed, not copied by
        // three slice calls.
        if let [nbr] = nbrs {
            self.inputs.push(input);
            self.nbrs.push(*nbr);
            if let Some(col) = &mut self.edges {
                col.push(edges[0]);
            }
            return;
        }
        self.inputs.resize(self.inputs.len() + nbrs.len(), input);
        self.nbrs.extend_from_slice(nbrs);
        if let Some(col) = &mut self.edges {
            col.extend_from_slice(edges);
        }
    }

    /// Keep the entries at the ascending positions `keep`.
    fn retain(&mut self, keep: &[u32]) {
        compact(&mut self.inputs, keep);
        compact(&mut self.nbrs, keep);
        if let Some(col) = &mut self.edges {
            compact(col, keep);
        }
    }

    /// Move every entry to the end of `out`, whose edge column is one these
    /// entries have too.
    fn drain_into(&mut self, out: &mut Entries) {
        out.inputs.append(&mut self.inputs);
        out.nbrs.append(&mut self.nbrs);
        if let Some(from) = &mut self.edges {
            match &mut out.edges {
                Some(to) => to.append(from),
                None => from.clear(),
            }
        }
    }

    /// Run the edge then the vertex predicate over these candidates, charge
    /// the survivors against `budget` and move them to `out`.
    fn select_into(
        &mut self,
        edge_test: Option<&Test<'_>>,
        vertex_test: Option<&Test<'_>>,
        budget: &RowBudget,
        out: &mut Entries,
    ) -> Result<()> {
        if let Some(test) = edge_test {
            let edges = self.edges.as_deref().expect("a tested column is kept");
            let keep = test.passing(edges)?;
            self.retain(&keep);
        }
        if let Some(test) = vertex_test {
            let keep = test.passing(&self.nbrs)?;
            self.retain(&keep);
        }
        // Exact, and charged before anything is pushed — input row by input
        // row, so the limit trips where the unfiltered path trips it.
        for of_one_input in self.inputs.chunk_by(|a, b| a == b) {
            budget.charge(of_one_input.len())?;
        }
        self.drain_into(out);
        Ok(())
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
    let adj = adjacency(edge, dir, ctx)?;
    let adj: &Csr = &adj;
    let from_col = input.vertex_col(from)?;

    // Pre-pass: per-row degrees (memoized — the hash-fallback probe is not
    // free) size the output columns and decide whether masks pay off.
    let degs: Vec<usize> = from_col.iter().map(|&v| adj.degree(v)).collect();
    let total: usize = degs.iter().sum();
    let edge_test = Test::of_edge(edge_predicate, edge, total, ctx)?;
    let vertex_test = Test::of_vertex(vertex_predicate, to, total, ctx)?;
    let unfiltered = edge_test.is_none() && vertex_test.is_none();

    let budget = RowBudget::new(ctx.cfg.row_limit);
    let parts: Vec<Entries> = morsel::run_morsels(
        from_col.len(),
        ctx.cfg.threads,
        morsel::DEFAULT_MORSEL_ROWS,
        |_, range| {
            ctx.check_deadline()?;
            let mut out = Entries::with_capacity(degs[range.clone()].iter().sum(), emit_edge);
            if unfiltered {
                for i in range {
                    let (es, ns) = adj.neighbors(from_col[i]);
                    // Projected output size is exact: charge before
                    // materializing anything.
                    budget.charge(es.len())?;
                    out.push(i as u32, es, ns);
                }
                return Ok(out);
            }
            // Reusable candidate vectors, flushed whenever they fill — in
            // the middle of a hub's adjacency if need be.
            let mut candidates =
                Entries::with_capacity(CANDIDATE_BATCH, emit_edge || edge_test.is_some());
            for i in range {
                let (mut es, mut ns) = adj.neighbors(from_col[i]);
                while !es.is_empty() {
                    let room = CANDIDATE_BATCH - candidates.inputs.len();
                    let take = es.len().min(room);
                    candidates.push(i as u32, &es[..take], &ns[..take]);
                    (es, ns) = (&es[take..], &ns[take..]);
                    if take == room {
                        candidates.select_into(
                            edge_test.as_ref(),
                            vertex_test.as_ref(),
                            &budget,
                            &mut out,
                        )?;
                    }
                }
            }
            candidates.select_into(edge_test.as_ref(), vertex_test.as_ref(), &budget, &mut out)?;
            Ok(out)
        },
    )?;

    let out_rows: usize = parts.iter().map(|p| p.inputs.len()).sum();
    let mut out = Entries::with_capacity(out_rows, emit_edge);
    for mut part in parts {
        part.drain_into(&mut out);
    }
    let new_edges = out.edges.map(|col| (edge, col)).into_iter().collect();
    input.extend(&out.inputs, Some((to, out.nbrs)), new_edges)
}

/// The first index at or after `from` whose entry of the ascending `ns` is
/// not below `w`: windows of doubling width are hopped over while they end
/// below `w`, then the last one is searched — a short hop costs a comparison
/// or two, a long one its logarithm.
#[inline]
fn gallop(ns: &[RowId], from: usize, w: RowId) -> usize {
    let (mut lo, mut width) = (from, 8);
    loop {
        let window = &ns[lo..ns.len().min(lo + width)];
        match window.last() {
            Some(&last) if last < w => (lo, width) = (lo + window.len(), 2 * width),
            _ => return lo + window.partition_point(|&x| x < w),
        }
    }
}

/// The length of the run of `w` that the ascending `ns` starts with.
#[inline]
fn run_of(ns: &[RowId], w: RowId) -> usize {
    ns.iter().take_while(|&&x| x == w).count()
}

/// Candidates of an `EXPAND_INTERSECT` awaiting their predicates: a
/// neighbour every leg of one input row reaches, with the run of parallel
/// edge rows each leg reaches it by.
struct Intersections<'a> {
    legs: usize,
    inputs: Vec<u32>,
    nbrs: Vec<RowId>,
    /// Candidate-major: `runs[c * legs + i]` is candidate `c`'s run on leg `i`.
    runs: Vec<&'a [RowId]>,
    // Scratch of `select_into`, kept for its capacity. Per leg, the edge
    // rows that passed, every candidate's after the last one's;
    // `ends[i][c]` is where candidate `c`'s stop.
    passed: Vec<Vec<RowId>>,
    ends: Vec<Vec<usize>>,
    alive: Vec<bool>,
    digits: Vec<usize>,
}

/// A morsel's `EXPAND_INTERSECT` output: the input row and common neighbour
/// of each match, and its edge row on every leg.
struct IntersectPart {
    inputs: Vec<u32>,
    nbrs: Vec<RowId>,
    edges: Vec<Vec<RowId>>,
}

impl<'a> Intersections<'a> {
    fn new(legs: usize) -> Intersections<'a> {
        Intersections {
            legs,
            inputs: Vec::new(),
            nbrs: Vec::new(),
            runs: Vec::new(),
            passed: vec![Vec::new(); legs],
            ends: vec![Vec::new(); legs],
            alive: Vec::new(),
            digits: Vec::new(),
        }
    }

    /// Keep the candidates at the ascending positions `keep`.
    fn retain(&mut self, keep: &[u32]) {
        for (to, &from) in keep.iter().enumerate() {
            let from = from as usize;
            self.inputs[to] = self.inputs[from];
            self.nbrs[to] = self.nbrs[from];
            self.runs
                .copy_within(from * self.legs..(from + 1) * self.legs, to * self.legs);
        }
        self.inputs.truncate(keep.len());
        self.nbrs.truncate(keep.len());
        self.runs.truncate(keep.len() * self.legs);
    }

    /// Run the vertex predicate, then each leg's edge predicate in leg
    /// order, over these candidates; charge every surviving combination of
    /// parallel edges against `budget` and push it to `out`.
    fn select_into(
        &mut self,
        vertex_test: Option<&Test<'_>>,
        edge_tests: &[Option<Test<'_>>],
        budget: &RowBudget,
        emit_edges: bool,
        out: &mut IntersectPart,
    ) -> Result<()> {
        if let Some(test) = vertex_test {
            let keep = test.passing(&self.nbrs)?;
            self.retain(&keep);
        }
        let n = self.inputs.len();
        self.alive.clear();
        self.alive.resize(n, true);
        for (i, test) in edge_tests.iter().enumerate() {
            let (passed, ends) = (&mut self.passed[i], &mut self.ends[i]);
            passed.clear();
            ends.clear();
            // A candidate an earlier leg emptied is not tested again.
            for c in 0..n {
                if self.alive[c] {
                    passed.extend_from_slice(self.runs[c * self.legs + i]);
                }
                ends.push(passed.len());
            }
            if let Some(test) = test {
                // Compact to the passing positions, moving every
                // candidate's end with them.
                let keep = test.passing(passed)?;
                let mut kept = 0;
                for end in ends.iter_mut() {
                    while kept < keep.len() && (keep[kept] as usize) < *end {
                        passed[kept] = passed[keep[kept] as usize];
                        kept += 1;
                    }
                    *end = kept;
                }
                passed.truncate(kept);
            }
            let mut start = 0;
            for (alive, &end) in self.alive.iter_mut().zip(ends.iter()) {
                *alive &= end > start;
                start = end;
            }
        }
        for c in (0..n).filter(|&c| self.alive[c]) {
            let of_leg = |i: usize| -> &[RowId] {
                let start = if c == 0 { 0 } else { self.ends[i][c - 1] };
                &self.passed[i][start..self.ends[i][c]]
            };
            // The projected row count is the product of the legs' edge
            // candidates. Saturate: a wrapped product would undercharge the
            // budget — the guard must trip, not overflow. Charged before
            // the combinations are materialized.
            let combos = (0..self.legs).fold(1usize, |n, i| n.saturating_mul(of_leg(i).len()));
            budget.charge(combos)?;
            // Cartesian product over per-leg edge candidates (usually 1×1),
            // the first leg's varying fastest.
            self.digits.clear();
            self.digits.resize(self.legs, 0);
            loop {
                out.inputs.push(self.inputs[c]);
                out.nbrs.push(self.nbrs[c]);
                if emit_edges {
                    for (i, &j) in self.digits.iter().enumerate() {
                        out.edges[i].push(of_leg(i)[j]);
                    }
                }
                // Advance the mixed-radix counter.
                let mut k = 0;
                while k < self.legs {
                    self.digits[k] += 1;
                    if self.digits[k] < of_leg(k).len() {
                        break;
                    }
                    self.digits[k] = 0;
                    k += 1;
                }
                if k == self.legs {
                    break;
                }
            }
        }
        self.inputs.clear();
        self.nbrs.clear();
        self.runs.clear();
        Ok(())
    }
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
    let adjs: Vec<Cow<'_, Csr>> = legs
        .iter()
        .map(|l| adjacency(l.edge, l.dir, ctx))
        .collect::<Result<_>>()?;
    let adjs: Vec<&Csr> = adjs.iter().map(|adj| &**adj).collect();
    // Hoisted binding columns: one slice per leg, no per-row Result lookup.
    let from_cols: Vec<&[RowId]> = legs
        .iter()
        .map(|l| input.vertex_col(l.from))
        .collect::<Result<_>>()?;
    // The operator closes a cycle — a few candidates an input row at most —
    // so the input rows stand for the entries the predicates will see.
    let entries = input.len();
    let edge_tests: Vec<Option<Test<'_>>> = legs
        .iter()
        .map(|l| {
            let predicate = ctx.pattern.edge(l.edge).predicate.as_ref();
            Test::of_edge(predicate, l.edge, entries, ctx)
        })
        .collect::<Result<_>>()?;
    let vertex_test = Test::of_vertex(vertex_predicate, to, entries, ctx)?;

    let budget = RowBudget::new(ctx.cfg.row_limit);
    let parts: Vec<IntersectPart> = morsel::run_morsels(
        input.len(),
        ctx.cfg.threads,
        morsel::DEFAULT_MORSEL_ROWS,
        |_, range| {
            ctx.check_deadline()?;
            let mut out = IntersectPart {
                inputs: Vec::new(),
                nbrs: Vec::new(),
                edges: vec![Vec::new(); legs.len()],
            };
            let mut candidates = Intersections::new(legs.len());
            // First, in one tight loop of independent degree reads: the
            // leg each row of the morsel walks — its shortest, the first of
            // several — or `DEAD` when a leg reaches nothing, so that the
            // merge visits no row it could not extend.
            const DEAD: u32 = u32::MAX;
            let walk: Vec<u32> = range
                .clone()
                .map(|row| {
                    let (mut shortest, mut least) = (DEAD, usize::MAX);
                    for (i, (adj, from)) in adjs.iter().zip(&from_cols).enumerate() {
                        let degree = adj.degree(from[row]);
                        if degree < least {
                            (shortest, least) = (i as u32, degree);
                        }
                    }
                    match least {
                        0 => DEAD,
                        _ => shortest,
                    }
                })
                .collect();
            // Where each leg's cursor stands in its list, for one input row.
            let mut at: Vec<usize> = vec![0; legs.len()];
            for (row, &walk) in range.zip(&walk) {
                let list = |i: usize| adjs[i].neighbors(from_cols[i][row]);
                // Walk the distinct neighbours of the shortest list; every
                // leg follows with a cursor that only moves forward.
                if walk == DEAD {
                    continue;
                }
                let walked = list(walk as usize).1;
                // One distinct candidate: every cursor stands at 0 and
                // would gallop across its whole list for it, so one binary
                // search a leg lands it at the same index.
                let single = walked[0] == walked[walked.len() - 1];
                at.fill(0);
                let mut next = 0;
                'candidate: while next < walked.len() {
                    let w = walked[next];
                    next += run_of(&walked[next..], w);
                    let first_run = candidates.runs.len();
                    for (i, at) in at.iter_mut().enumerate() {
                        // A leg's multiplicity is the run of `w` it stands
                        // on. An empty one drops the candidate — and ends
                        // the walk when the leg has nothing larger either.
                        let (es, ns) = list(i);
                        let lo = match single {
                            true => *at + ns[*at..].partition_point(|&x| x < w),
                            false => gallop(ns, *at, w),
                        };
                        let hi = lo + run_of(&ns[lo..], w);
                        *at = hi;
                        if lo == hi {
                            candidates.runs.truncate(first_run);
                            if lo == ns.len() {
                                break 'candidate;
                            }
                            continue 'candidate;
                        }
                        candidates.runs.push(&es[lo..hi]);
                    }
                    candidates.inputs.push(row as u32);
                    candidates.nbrs.push(w);
                    if candidates.inputs.len() == CANDIDATE_BATCH {
                        candidates.select_into(
                            vertex_test.as_ref(),
                            &edge_tests,
                            &budget,
                            emit_edges,
                            &mut out,
                        )?;
                    }
                }
            }
            candidates.select_into(
                vertex_test.as_ref(),
                &edge_tests,
                &budget,
                emit_edges,
                &mut out,
            )?;
            Ok(out)
        },
    )?;

    let out_rows: usize = parts.iter().map(|p| p.inputs.len()).sum();
    let mut gather = Vec::with_capacity(out_rows);
    let mut to_col = Vec::with_capacity(out_rows);
    // (`vec![..; n]` would clone away the capacity hint.)
    let mut edge_cols: Vec<Vec<RowId>> = (0..legs.len())
        .map(|_| Vec::with_capacity(out_rows))
        .collect();
    for mut part in parts {
        gather.append(&mut part.inputs);
        to_col.append(&mut part.nbrs);
        for (col, of_part) in edge_cols.iter_mut().zip(&mut part.edges) {
            col.append(of_part);
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
/// morsel-parallel. Over an endpoint nobody has read yet this is a semijoin
/// on the key: the passing vertices become a set in λ's key space, the edge
/// rows are tested against it in one sequential pass, and no endpoint is
/// looked up — the survivors' are when someone reads them. It takes the
/// whole-table evaluation [`Test::new`] would choose a mask at, so it runs
/// under the same volume rule; any other column is tested as it stands.
fn filter_vertex(
    input: &GraphChunk,
    v: usize,
    predicate: &ScalarExpr,
    ctx: &GraphExecContext<'_>,
) -> Result<GraphChunk> {
    let label = ctx.pattern.vertex(v).label;
    let table = ctx.view.vertex_table(label);
    let rows = || vertex_rows(ctx.view, label, Some(predicate));
    let keep = match input.unread_endpoint(v)? {
        Some(end) if table.num_rows() <= input.len() => {
            let set = end.lambda.key_set(&rows()?);
            semijoin(end, &set, input.len(), ctx)?
        }
        _ => {
            let col = input.vertex_col(v)?;
            let test = Test::new(predicate, table, col.len(), rows)?;
            kept_rows(col.len(), ctx, |range| {
                let mut pass = test.passing(&col[range.clone()])?;
                pass.iter_mut().for_each(|p| *p += range.start as u32);
                Ok(pass)
            })?
        }
    };
    Ok(input.take(&keep))
}

/// The rows of a chunk of `rows` rows whose unread endpoint `end` is in
/// `set` (a [`Lambda::key_set`](relgo_graph::Lambda::key_set) of its λ),
/// ascending: one key test a row, no lookup.
fn semijoin(
    end: UnreadEndpoint<'_>,
    set: &KeySet,
    rows: usize,
    ctx: &GraphExecContext<'_>,
) -> Result<Vec<u32>> {
    kept_rows(rows, ctx, |range| {
        Ok(end.lambda.select(end.edges, range, set))
    })
}

/// The rows of `0..rows` that `pass` keeps of each morsel, ascending.
fn kept_rows(
    rows: usize,
    ctx: &GraphExecContext<'_>,
    pass: impl Fn(Range<usize>) -> Result<Vec<u32>> + Sync,
) -> Result<Vec<u32>> {
    let parts: Vec<Vec<u32>> = morsel::run_morsels(
        rows,
        ctx.cfg.threads,
        morsel::DEFAULT_MORSEL_ROWS,
        |_, range| {
            ctx.check_deadline()?;
            pass(range)
        },
    )?;
    Ok(parts.concat())
}

/// Hash join of two chunks on common element bindings: build a
/// [`JoinTable`] on the smaller side, probe with the larger in row order,
/// gather the matched pairs column-wise. Output is probe-major, the build
/// rows of one probe row in input order.
///
/// When the join is on one vertex that the probe side has not read yet (an
/// endpoint of a scanned edge), the probe side is first cut down in key
/// space: the build side's vertices become a set of λ's keys and only the
/// probe rows whose key is in it are kept — a semijoin, one key test a row
/// — so the probe rows that match nothing are never looked up or hashed.
/// A key that is NULL or dangling is in no set: such a row is dropped here,
/// not reported by a lookup.
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
    let reduced;
    let probe = match (on_vertices, on_edges) {
        ([v], []) => {
            let bcol = build.vertex_col(*v)?;
            match probe.unread_endpoint(*v)? {
                Some(end) => {
                    let set = end.lambda.key_set(bcol);
                    reduced = probe.take(&semijoin(end, &set, probe.len(), ctx)?);
                    &reduced
                }
                None => probe,
            }
        }
        _ => probe,
    };
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
    // The probe side may be the reduced chunk: gather from that one.
    match swapped {
        false => GraphChunk::join(build, &bidx, probe, &pidx),
        true => GraphChunk::join(probe, &pidx, build, &bidx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgo_common::morsel::TimeBudget;
    use relgo_common::{DataType, LabelId, Value};
    use relgo_core::graph_plan::PlanAnnotation;
    use relgo_graph::{fig2, Lambda, RGMapping};
    use relgo_pattern::PatternBuilder;
    use relgo_storage::table::table_of;
    use relgo_storage::Database;
    use std::sync::Arc;

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

    /// The tests' limits: a million-row budget and no deadline.
    fn limits(use_index: bool, threads: usize) -> ExecConfig {
        ExecConfig {
            use_index,
            row_limit: 1_000_000,
            threads,
            deadline: None,
        }
    }

    fn ctx<'a>(
        view: &'a GraphView,
        pattern: &'a relgo_pattern::Pattern,
        cfg: &'a ExecConfig,
    ) -> GraphExecContext<'a> {
        GraphExecContext {
            view,
            pattern,
            cfg,
            profile: None,
        }
    }

    fn ann() -> PlanAnnotation {
        PlanAnnotation::default()
    }

    #[test]
    fn scan_and_expand_indexed_vs_hashed_agree() {
        let (view, _) = fig2::view();
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
        let with = execute_graph(&plan, &ctx(&view, &pat, &limits(true, 1))).unwrap();
        let without = execute_graph(&plan, &ctx(&view, &pat, &limits(false, 1))).unwrap();
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
        let (view, _) = fig2::view();
        let pat = wedge_pattern();
        let cfg = limits(false, 1);
        let c = ctx(&view, &pat, &cfg);
        let adj = adjacency(0, Direction::Out, &c).unwrap();
        for v in 0..3 {
            let (es, ns) = adj.neighbors(v);
            assert_eq!(es.len(), ns.len());
            assert_eq!(adj.degree(v), ns.len());
            assert!(ns.windows(2).all(|w| w[0] <= w[1]), "sorted bucket");
        }
        // Bob (row 1) likes both messages.
        assert_eq!(adj.neighbors(1).1, &[0, 1]);
        // The indexed and hashed providers agree entry-for-entry.
        let cfg = limits(true, 1);
        let idx_ctx = ctx(&view, &pat, &cfg);
        let idx_adj = adjacency(0, Direction::Out, &idx_ctx).unwrap();
        for v in 0..3 {
            assert_eq!(adj.neighbors(v), idx_adj.neighbors(v));
        }
    }

    #[test]
    fn mask_follows_the_volume_rule() {
        let (view, _) = fig2::view();
        let table = view.vertex_table(LabelId(0));
        let pred = ScalarExpr::col_eq(1, "Bob");
        let mask_of = |entries| {
            Test::new(&pred, table, entries, || pred.select(table, None))
                .unwrap()
                .mask
        };
        // Three Person rows: a mask at three entries to test, and only then.
        let mask = mask_of(3).expect("mask built");
        assert_eq!(
            (0..3).map(|r| mask.get(r)).collect::<Vec<_>>(),
            [false, true, false]
        );
        assert!(mask_of(2).is_none());
    }

    #[test]
    fn parallel_expand_is_bit_identical_to_serial() {
        let (view, _) = fig2::view();
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
        let serial = execute_graph(&plan, &ctx(&view, &pat, &limits(true, 1))).unwrap();
        for threads in [2usize, 8] {
            let cfg = limits(true, threads);
            let c = ctx(&view, &pat, &cfg);
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
        let (view, _) = fig2::view();
        let pat = wedge_pattern();
        let plan = GraphOp::ScanEdge {
            e: 0,
            predicate: None,
            ann: ann(),
        };
        let out = execute_graph(&plan, &ctx(&view, &pat, &limits(true, 1))).unwrap();
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
        let (view, _) = fig2::view();
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
        let out = execute_graph(&plan, &ctx(&view, &pat, &limits(true, 1))).unwrap();
        // Homomorphic wedges: 8 (m1: {T,B}², m2: {B,D}²).
        assert_eq!(out.len(), 8);
        // Parallel intersection merges morsels in order: bit-identical.
        let cfg = limits(true, 4);
        let c = ctx(&view, &pat, &cfg);
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
        let out2 = execute_graph(&fused, &ctx(&view, &pat, &limits(true, 1))).unwrap();
        assert_eq!(out2.len(), 8);
        assert!(!out2.binds_edge(0));
    }

    #[test]
    fn join_on_shared_vertex() {
        let (view, _) = fig2::view();
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
        let out = execute_graph(&plan, &ctx(&view, &pat, &limits(true, 1))).unwrap();
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
        let gather: Vec<u32> = (0..rows as u32).collect();
        let mut chunk = first;
        for &v in &vs[1..] {
            chunk = chunk.extend(&gather, Some((v, col())), vec![]).unwrap();
        }
        let edges = es.iter().map(|&e| (e, col())).collect();
        chunk.extend(&gather, None, edges).unwrap()
    }

    #[test]
    fn join_equals_the_row_at_a_time_reference_for_every_key_width() {
        let (view, _) = fig2::view();
        let pat = wedge_pattern();
        let cfg = limits(true, 1);
        let c = ctx(&view, &pat, &cfg);
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
        let (view, _) = fig2::view();
        let pat = wedge_pattern();
        let a = chunk_of(&[0], &[], 40, &[0, 1, 2], 1);
        let b = chunk_of(&[1], &[], 25, &[0, 1, 2], 2);
        let mut cfg = limits(true, 1);
        // The cross product reaches 1000 rows with the last probe row.
        cfg.row_limit = 999;
        match join_chunks(&a, &b, &[], &[], &ctx(&view, &pat, &cfg)) {
            Err(RelGoError::ResourceExhausted(m)) => assert!(m.contains("of 1000 rows"), "{m}"),
            other => panic!("expected resource exhaustion, got {other:?}"),
        }
        cfg.row_limit = 1000;
        let c = ctx(&view, &pat, &cfg);
        assert_eq!(join_chunks(&a, &b, &[], &[], &c).unwrap().len(), 1000);
    }

    #[test]
    fn deadline_is_checked_by_a_join_that_matches_nothing() {
        let (view, _) = fig2::view();
        let pat = wedge_pattern();
        let a = chunk_of(&[0, 1], &[], 3000, &[0, 1, 2], 1);
        let b = chunk_of(&[1, 2], &[], 10, &[7, 8, 9], 2);
        let mut cfg = limits(true, 1);
        let c = ctx(&view, &pat, &cfg);
        assert_eq!(join_chunks(&a, &b, &[1], &[], &c).unwrap().len(), 0);
        cfg.deadline = Some(TimeBudget::new(std::time::Duration::ZERO));
        assert!(matches!(
            join_chunks(&a, &b, &[1], &[], &ctx(&view, &pat, &cfg)),
            Err(RelGoError::DeadlineExceeded(_))
        ));
    }

    #[test]
    fn filter_vertex_prunes_bindings() {
        let (view, _) = fig2::view();
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
        let out = execute_graph(&plan, &ctx(&view, &pat, &limits(true, 1))).unwrap();
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
        let cfg = limits(false, 1);
        let c = ctx(&view, &pat, &cfg);
        let pred = ScalarExpr::col_eq(1, 1);
        // Five bindings of a 16-row table go through `select`; sixteen
        // build the mask. Repeats and disorder in the bindings survive
        // either way.
        for (bindings, keep) in [
            (vec![5, 2, 5, 9, 2], vec![5, 5, 9]),
            (
                vec![5, 2, 5, 9, 2, 0, 1, 3, 4, 6, 7, 8, 13, 13, 1, 15],
                vec![5, 5, 9, 1, 13, 13, 1],
            ),
        ] {
            let input = GraphChunk::from_vertex(1, 0, 0, bindings);
            let out = filter_vertex(&input, 0, &pred, &c).unwrap();
            assert_eq!(out.vertex_col(0).unwrap(), keep);
        }
    }

    #[test]
    fn row_limit_aborts_expansion_before_materializing() {
        let (view, _) = fig2::view();
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
            let mut cfg = limits(true, threads);
            cfg.row_limit = 2;
            let c = ctx(&view, &pat, &cfg);
            match execute_graph(&plan, &c) {
                Err(RelGoError::ResourceExhausted(_)) => {}
                other => panic!("expected resource exhaustion, got {other:?}"),
            }
        }
    }

    #[test]
    fn edge_predicate_applied_during_expand() {
        let (view, _) = fig2::view();
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
        let out = execute_graph(&plan, &ctx(&view, &pat, &limits(true, 1))).unwrap();
        assert_eq!(out.len(), 2, "likes with date ≥ 28: l1, l2");
    }

    /// The pass mask of the implementation the candidate vectors replaced:
    /// one `bool` a table row, built when the expansion touches at least a
    /// quarter as many entries as the table has rows.
    fn predicate_mask_reference(
        pred: Option<&ScalarExpr>,
        table: &Table,
        entries: usize,
    ) -> Result<Option<Vec<bool>>> {
        let Some(p) = pred else { return Ok(None) };
        let n = table.num_rows();
        if entries < n / 4 {
            return Ok(None);
        }
        let mut mask = vec![false; n];
        for r in p.filter(table)? {
            mask[r as usize] = true;
        }
        Ok(Some(mask))
    }

    /// Whether `row` passes `pred`, through the precomputed `mask` when present.
    #[inline]
    fn passes_reference(
        mask: &Option<Vec<bool>>,
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

    /// `EXPAND` as it was: `matches` per adjacency entry unless a mask was built.
    #[allow(clippy::too_many_arguments)]
    fn expand_reference(
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
        let adj = adjacency(edge, dir, ctx)?;
        let etable = ctx.view.edge_table(pe.label);
        let vtable = ctx.view.vertex_table(ctx.pattern.vertex(to).label);
        let from_col = input.vertex_col(from)?;

        // Pre-pass: per-row degrees (memoized — the hash-fallback probe is not
        // free) size the output columns and decide whether masks pay off.
        let degs: Vec<usize> = from_col.iter().map(|&v| adj.degree(v)).collect();
        let total: usize = degs.iter().sum();
        let emask = predicate_mask_reference(edge_predicate, etable, total)?;
        let vmask = predicate_mask_reference(vertex_predicate, vtable, total)?;
        let unfiltered = edge_predicate.is_none() && vertex_predicate.is_none();

        let budget = RowBudget::new(ctx.cfg.row_limit);
        type ExpandPart = (Vec<u32>, Vec<RowId>, Vec<RowId>);
        let parts: Vec<ExpandPart> = morsel::run_morsels(
            from_col.len(),
            ctx.cfg.threads,
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
                        gather.resize(gather.len() + es.len(), i as u32);
                        to_col.extend_from_slice(ns);
                        if emit_edge {
                            edge_col.extend_from_slice(es);
                        }
                    } else {
                        hits.clear();
                        for (&erow, &nrow) in es.iter().zip(ns.iter()) {
                            if passes_reference(&emask, edge_predicate, etable, erow)?
                                && passes_reference(&vmask, vertex_predicate, vtable, nrow)?
                            {
                                hits.push((erow, nrow));
                            }
                        }
                        budget.charge(hits.len())?;
                        for &(erow, nrow) in &hits {
                            gather.push(i as u32);
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

    /// `EXPAND_INTERSECT` as it was: a binary search per leg and candidate,
    /// `matches` per candidate and edge.
    fn expand_intersect_reference(
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
        let adjs: Vec<Cow<'_, Csr>> = legs
            .iter()
            .map(|l| adjacency(l.edge, l.dir, ctx))
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
        let emasks: Vec<Option<Vec<bool>>> = (0..legs.len())
            .map(|i| predicate_mask_reference(epreds[i], etables[i], entries))
            .collect::<Result<_>>()?;
        let vmask = predicate_mask_reference(vertex_predicate, vtable, entries)?;

        let budget = RowBudget::new(ctx.cfg.row_limit);
        type EiPart = (Vec<u32>, Vec<RowId>, Vec<Vec<RowId>>);
        let parts: Vec<EiPart> = morsel::run_morsels(
            input.len(),
            ctx.cfg.threads,
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
                        if !passes_reference(&vmask, vertex_predicate, vtable, w)? {
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
                                if passes_reference(&emasks[i], epreds[i], etables[i], erow)? {
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
                            gather.push(row as u32);
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

    /// A graph for the differential tests: `n` vertices `P(id, score = id %
    /// 7, name)` — a NULL name every eleventh row — and edges `K(id, a, b, w
    /// = id % 5)`: vertex 0 is a hub reaching 1..=`hub` (every third one
    /// twice — parallel edges); every other vertex `v` but the last ten
    /// reaches `v + 1` (twice when `v % 4 == 0`) and `v + 2`. Of the last
    /// ten, `n - 4`, `n - 3` and `n - 2` each reach one vertex — the hub's
    /// first neighbour, its last, and `hub + 1`, which it does not reach —
    /// and the rest reach nothing. Ids are `10 × row`, so a key is never
    /// its row.
    fn hub_view(n: i64, hub: i64) -> GraphView {
        let mut db = Database::new();
        db.add_table(table_of(
            "P",
            &[
                ("id", DataType::Int),
                ("score", DataType::Int),
                ("name", DataType::Str),
            ],
            (0..n)
                .map(|v| {
                    let name = match v % 11 {
                        0 => Value::Null,
                        _ => format!("p{}", v % 13).into(),
                    };
                    vec![(10 * v).into(), (v % 7).into(), name]
                })
                .collect(),
        ));
        let mut pairs: Vec<(i64, i64)> = Vec::new();
        for x in 1..=hub {
            pairs.extend(std::iter::repeat_n((0, x), if x % 3 == 0 { 2 } else { 1 }));
        }
        for v in 1..n - 10 {
            pairs.extend(std::iter::repeat_n(
                (v, v + 1),
                if v % 4 == 0 { 2 } else { 1 },
            ));
            pairs.push((v, v + 2));
        }
        pairs.extend([(n - 4, 1), (n - 3, hub), (n - 2, hub + 1)]);
        db.add_table(table_of(
            "K",
            &[
                ("id", DataType::Int),
                ("a", DataType::Int),
                ("b", DataType::Int),
                ("w", DataType::Int),
            ],
            pairs
                .iter()
                .zip(0i64..)
                .map(|(&(a, b), id)| {
                    vec![id.into(), (10 * a).into(), (10 * b).into(), (id % 5).into()]
                })
                .collect(),
        ));
        db.set_primary_key("P", "id").unwrap();
        db.set_primary_key("K", "id").unwrap();
        let mapping = RGMapping::new().vertex("P").edge("K", "a", "P", "b", "P");
        let mut g = GraphView::build(&mut db, mapping).unwrap();
        g.build_index().unwrap();
        g
    }

    /// `legs` vertices that each reach one more, the last, by an edge of
    /// their own; edge `e` carries `edge_preds[e]`.
    fn star_pattern(legs: usize, edge_preds: &[Option<ScalarExpr>]) -> relgo_pattern::Pattern {
        let mut b = PatternBuilder::new();
        let vs: Vec<usize> = (0..=legs)
            .map(|i| b.vertex(&format!("v{i}"), LabelId(0)))
            .collect();
        for (i, pred) in (0..legs).zip(edge_preds) {
            let e = b.edge(vs[i], vs[legs], LabelId(0)).unwrap();
            if let Some(p) = pred {
                b.edge_predicate(e, p.clone());
            }
        }
        b.build().unwrap()
    }

    fn assert_same_chunk(got: &GraphChunk, want: &GraphChunk, what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        assert_eq!(got.bound_vertices(), want.bound_vertices(), "{what}");
        assert_eq!(got.bound_edges(), want.bound_edges(), "{what}");
        for v in want.bound_vertices() {
            assert_eq!(
                got.vertex_col(v).unwrap(),
                want.vertex_col(v).unwrap(),
                "{what}"
            );
        }
        for e in want.bound_edges() {
            assert_eq!(
                got.edge_col(e).unwrap(),
                want.edge_col(e).unwrap(),
                "{what}"
            );
        }
    }

    /// Both sides fail alike or agree row for row; the rows, if any.
    fn assert_same_outcome(
        got: Result<GraphChunk>,
        want: Result<GraphChunk>,
        what: &str,
    ) -> Option<GraphChunk> {
        match (got, want) {
            (Ok(got), Ok(want)) => {
                assert_same_chunk(&got, &want, what);
                Some(got)
            }
            (Err(got), Err(want)) => {
                assert_eq!(got.to_string(), want.to_string(), "{what}");
                None
            }
            (got, want) => panic!("{what}: {got:?} against {want:?}"),
        }
    }

    fn w_below(x: i64) -> ScalarExpr {
        ScalarExpr::col_cmp(3, BinaryOp::Lt, x)
    }

    /// NULL on every eleventh vertex: `OR` and `NOT` above it must stay
    /// three-valued in both implementations.
    fn score_or_name() -> ScalarExpr {
        let named = ScalarExpr::StartsWith(Box::new(ScalarExpr::Col(2)), "p1".into());
        ScalarExpr::col_cmp(1, BinaryOp::Ge, 5).or(ScalarExpr::Not(Box::new(named)))
    }

    #[test]
    fn expand_equals_the_per_entry_reference() {
        let view = hub_view(3000, 2000);
        let pat = star_pattern(2, &[None, None]);
        // The hub's 2666 entries straddle three candidate batches; with the
        // other inputs the expansion is smaller than both tables, larger
        // than the vertex table only, or — from every vertex, twice —
        // larger than both: the mask rule's two sides, for either predicate.
        let few = vec![5, 0, 7];
        let more = vec![5, 0, 7, 0];
        let all: Vec<RowId> = (0..3000).rev().chain(0..3000).collect();
        let (vertices, edges) = (3000, view.edge_count(LabelId(0)));
        let index = view.index().unwrap();
        for (inputs, masks) in [
            (&few, [false, false]),
            (&more, [true, false]),
            (&all, [true, true]),
        ] {
            let degree = |&v: &RowId| index.degree(LabelId(0), Direction::Out, v);
            let entries: usize = inputs.iter().map(degree).sum();
            assert_eq!([vertices <= entries, edges <= entries], masks);
            let input = GraphChunk::from_vertex(3, 2, 0, inputs.clone());
            for indexed in [true, false] {
                let mut cfg = limits(indexed, 1);
                for dir in [Direction::Out, Direction::In] {
                    for emit_edge in [false, true] {
                        for epred in [None, Some(w_below(3))] {
                            for vpred in [None, Some(score_or_name())] {
                                let what = format!(
                                    "{} inputs indexed={indexed} {dir:?} emit={emit_edge} \
                                     edge={} vertex={}",
                                    inputs.len(),
                                    epred.is_some(),
                                    vpred.is_some()
                                );
                                let run = |cfg: &ExecConfig, reference: bool| {
                                    let c = &ctx(&view, &pat, cfg);
                                    let (e, v) = (epred.as_ref(), vpred.as_ref());
                                    match reference {
                                        true => expand_reference(
                                            &input, 0, 0, 2, dir, emit_edge, e, v, c,
                                        ),
                                        false => expand(&input, 0, 0, 2, dir, emit_edge, e, v, c),
                                    }
                                };
                                cfg.row_limit = usize::MAX;
                                let out =
                                    assert_same_outcome(run(&cfg, false), run(&cfg, true), &what)
                                        .expect("no limit");
                                if dir == Direction::Out {
                                    assert!(out.len() > 1024, "{what}: vacuous");
                                }
                                // One row short, the limit trips with the
                                // reference's message: the same rows were
                                // charged in the same order.
                                if !out.is_empty() {
                                    cfg.row_limit = out.len() - 1;
                                    let tripped = assert_same_outcome(
                                        run(&cfg, false),
                                        run(&cfg, true),
                                        &what,
                                    );
                                    assert!(tripped.is_none(), "{what}");
                                    cfg.row_limit = out.len();
                                    assert_eq!(run(&cfg, false).unwrap().len(), out.len());
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn expand_reports_its_charge_and_keeps_its_deadline() {
        let view = hub_view(3000, 2000);
        let pat = star_pattern(2, &[None, None]);
        let plan = |edge_predicate: Option<ScalarExpr>| GraphOp::Expand {
            input: Box::new(GraphOp::ScanVertex {
                v: 0,
                predicate: Some(ScalarExpr::col_cmp(0, BinaryOp::Lt, 100)),
                ann: ann(),
            }),
            from: 0,
            edge: 0,
            to: 2,
            dir: Direction::Out,
            emit_edge: true,
            edge_predicate,
            vertex_predicate: None,
            ann: ann(),
        };
        for edge_predicate in [None, Some(w_below(3))] {
            let sink = ProfileSink::new();
            let mut cfg = limits(true, 1);
            let c = GraphExecContext {
                profile: Some(&sink),
                ..ctx(&view, &pat, &cfg)
            };
            let out = execute_graph(&plan(edge_predicate.clone()), &c).unwrap();
            let profile = sink.take().ops.swap_remove(0);
            assert_eq!(profile.kind, "expand");
            assert_eq!(profile.rows_out, out.len() as u64);
            assert_eq!(profile.budget_charged, profile.rows_out);
            // Exactly that many rows were charged: the limit holds them and
            // not one fewer.
            let run = |cfg: &ExecConfig| {
                execute_graph(&plan(edge_predicate.clone()), &ctx(&view, &pat, cfg))
            };
            cfg.row_limit = out.len();
            assert_eq!(run(&cfg).unwrap().len(), out.len());
            cfg.row_limit = out.len() - 1;
            assert!(matches!(run(&cfg), Err(RelGoError::ResourceExhausted(_))));
            // An expired deadline stops the operator itself, at its first
            // morsel.
            cfg.row_limit = usize::MAX;
            cfg.deadline = Some(TimeBudget::new(std::time::Duration::ZERO));
            let input = GraphChunk::from_vertex(3, 2, 0, vec![0, 1]);
            let edge_predicate = edge_predicate.as_ref();
            assert!(matches!(
                expand(
                    &input,
                    0,
                    0,
                    2,
                    Direction::Out,
                    true,
                    edge_predicate,
                    None,
                    &ctx(&view, &pat, &cfg)
                ),
                Err(RelGoError::DeadlineExceeded(_))
            ));
        }
    }

    #[test]
    fn expand_intersect_equals_the_binary_search_reference() {
        let view = hub_view(3000, 2000);
        // Input rows bind the legs' sources: the hub against its own
        // neighbourhood (long list against short ones, parallel edges on
        // one leg or on both), neighbours against each other, a vertex
        // against itself, the sinks at the end, whose legs are empty, and a
        // one-neighbour leg against the hub's with its candidate first in
        // the hub's list, last, and absent.
        let sources: Vec<[RowId; 3]> = (0..2100)
            .map(|v| [0, v, v + 1])
            .chain((1..400).map(|v| [v, v + 1, v]))
            .chain((1..50).map(|v| [4 * v, 4 * v, 0]))
            .chain([[2995, 0, 2994], [0, 2999, 1], [2990, 2989, 2988]])
            .chain([[2996, 0, 0], [0, 2997, 0], [0, 2998, 0], [2997, 0, 2996]])
            .collect();
        for legs in [2usize, 3] {
            let gather: Vec<u32> = (0..sources.len() as u32).collect();
            let column = |i: usize| sources.iter().map(|s| s[i]).collect::<Vec<RowId>>();
            let mut input = GraphChunk::from_vertex(legs + 1, legs, 0, column(0));
            for i in 1..legs {
                input = input.extend(&gather, Some((i, column(i))), vec![]).unwrap();
            }
            let star: Vec<StarLeg> = (0..legs)
                .map(|i| StarLeg {
                    from: i,
                    edge: i,
                    dir: Direction::Out,
                })
                .collect();
            let edge_preds = [
                vec![None, None, None],
                vec![Some(w_below(3)), None, None],
                vec![Some(w_below(4)), Some(w_below(2)), Some(w_below(3))],
            ];
            for edge_preds in &edge_preds {
                let pat = star_pattern(legs, edge_preds);
                for indexed in [true, false] {
                    for emit_edges in [false, true] {
                        for vpred in [None, Some(score_or_name())] {
                            let what = format!(
                                "{legs} legs indexed={indexed} emit={emit_edges} edge={} vertex={}",
                                edge_preds.iter().flatten().count(),
                                vpred.is_some()
                            );
                            let mut cfg = limits(indexed, 1);
                            let run = |cfg: &ExecConfig, reference: bool| {
                                let c = &ctx(&view, &pat, cfg);
                                let v = vpred.as_ref();
                                match reference {
                                    true => expand_intersect_reference(
                                        &input, &star, legs, emit_edges, v, c,
                                    ),
                                    false => {
                                        expand_intersect(&input, &star, legs, emit_edges, v, c)
                                    }
                                }
                            };
                            cfg.row_limit = usize::MAX;
                            let out = assert_same_outcome(run(&cfg, false), run(&cfg, true), &what)
                                .expect("no limit");
                            assert!(out.len() > 100, "{what}: vacuous ({})", out.len());
                            cfg.row_limit = out.len() - 1;
                            assert!(
                                assert_same_outcome(run(&cfg, false), run(&cfg, true), &what)
                                    .is_none()
                            );
                            cfg.row_limit = out.len();
                            assert_eq!(run(&cfg, false).unwrap().len(), out.len());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gallop_lands_where_a_linear_scan_does() {
        let ns: Vec<RowId> = vec![1, 1, 4, 4, 4, 7, 9, 9, 12, 15, 15, 20, 21, 22, 30, 31];
        for from in 0..=ns.len() {
            for w in 0..35 {
                let want = from + ns[from..].iter().take_while(|&&x| x < w).count();
                assert_eq!(gallop(&ns, from, w), want, "from {from} to {w}");
            }
        }
        assert_eq!(gallop(&[], 0, 3), 0);
        assert_eq!(run_of(&ns[2..], 4), 3);
        assert_eq!(run_of(&ns[2..], 5), 0);
        assert_eq!(run_of(&[], 5), 0);
    }

    #[test]
    fn vertex_rows_seeks_exactly_what_select_finds() {
        let view = hub_view(3000, 2000);
        let label = LabelId(0);
        let table = view.vertex_table(label);
        let id_is = |v: Value| ScalarExpr::col_eq(0, v);
        let flipped = ScalarExpr::Cmp(
            BinaryOp::Eq,
            Box::new(ScalarExpr::Lit(50.into())),
            Box::new(ScalarExpr::Col(0)),
        );
        let named = |name: &str| ScalarExpr::col_eq(2, name);
        let cases = [
            // Seeks: a hit, a miss between keys, a negative key, the
            // literal on the left, and conjunctions either way round —
            // true, false, and NULL on the row found.
            (id_is(50.into()), Some(50), vec![5]),
            (id_is(55.into()), Some(55), vec![]),
            (id_is((-10).into()), Some(-10), vec![]),
            (flipped, Some(50), vec![5]),
            (id_is(50.into()).and(named("p5")), Some(50), vec![5]),
            (named("p5").and(id_is(50.into())), Some(50), vec![5]),
            (id_is(50.into()).and(named("p6")), Some(50), vec![]),
            (id_is(110.into()).and(named("p11")), Some(110), vec![]),
            (
                named("p5").and(score_or_name().and(id_is(50.into()))),
                Some(50),
                vec![5],
            ),
            (id_is(50.into()).and(id_is(60.into())), Some(50), vec![]),
            // Scans: a literal that is not an INT, a disjunction, a
            // negation, equality on another column, another comparison.
            (id_is(50.0.into()), None, vec![5]),
            (id_is(Value::Date(50)), None, vec![5]),
            (id_is(Value::Null), None, vec![]),
            (id_is(50.into()).or(id_is(70.into())), None, vec![5, 7]),
            (
                ScalarExpr::Not(Box::new(id_is(50.into()))).and(ScalarExpr::col_cmp(
                    0,
                    BinaryOp::Le,
                    60,
                )),
                None,
                vec![0, 1, 2, 3, 4, 6],
            ),
            (
                ScalarExpr::col_eq(1, 6).and(ScalarExpr::col_cmp(0, BinaryOp::Lt, 200)),
                None,
                vec![6, 13],
            ),
            (ScalarExpr::col_cmp(0, BinaryOp::Le, 10), None, vec![0, 1]),
        ];
        for (pred, key, rows) in cases {
            assert_eq!(pinned_key(&pred, view.vertex_pk_col(label)), key, "{pred}");
            assert_eq!(
                vertex_rows(&view, label, Some(&pred)).unwrap(),
                rows,
                "{pred}"
            );
            assert_eq!(pred.select(table, None).unwrap(), rows, "{pred}");
        }
        assert_eq!(vertex_rows(&view, label, None).unwrap().len(), 3000);
        // A seek evaluates the whole predicate on the row it finds, and so
        // reports what a scan reports there.
        let broken = id_is(50.into()).and(ScalarExpr::col_eq(9, 1));
        assert_eq!(
            vertex_rows(&view, label, Some(&broken))
                .unwrap_err()
                .to_string(),
            broken.select(table, None).unwrap_err().to_string()
        );
        // The scan operator and the mask builder both go through it.
        let pat = star_pattern(2, &[None, None]);
        let cfg = limits(true, 1);
        let c = ctx(&view, &pat, &cfg);
        let scan = GraphOp::ScanVertex {
            v: 1,
            predicate: Some(id_is(50.into()).and(named("p5"))),
            ann: ann(),
        };
        assert_eq!(
            execute_graph(&scan, &c).unwrap().vertex_col(1).unwrap(),
            [5]
        );
        let pinned = id_is(50.into());
        let test = Test::of_vertex(Some(&pinned), 2, 3000, &c)
            .unwrap()
            .unwrap();
        assert!(test.mask.is_some());
        assert_eq!(test.passing(&[4, 5, 5, 6, 2999]).unwrap(), [1, 2]);
    }

    /// Vertices `P(id, score)` under the primary keys `pks`, and `edges`
    /// edges `K(id, a → P, b → P, w)` that reach every vertex many times.
    fn keyed_view(pks: &[i64], edges: usize) -> GraphView {
        let mut db = Database::new();
        db.add_table(table_of(
            "P",
            &[("id", DataType::Int), ("score", DataType::Int)],
            (pks.iter().zip(0i64..))
                .map(|(&pk, i)| vec![pk.into(), (i % 4).into()])
                .collect(),
        ));
        db.add_table(table_of(
            "K",
            &[
                ("id", DataType::Int),
                ("a", DataType::Int),
                ("b", DataType::Int),
                ("w", DataType::Int),
            ],
            (0..edges)
                .map(|i| {
                    let (a, b) = (pks[i * 7 % pks.len()], pks[(i * 3 + 1) % pks.len()]);
                    vec![(i as i64).into(), a.into(), b.into(), (i as i64 % 5).into()]
                })
                .collect(),
        ));
        db.set_primary_key("P", "id").unwrap();
        db.set_primary_key("K", "id").unwrap();
        let mapping = RGMapping::new().vertex("P").edge("K", "a", "P", "b", "P");
        let mut view = GraphView::build(&mut db, mapping).unwrap();
        view.build_index().unwrap();
        view
    }

    #[test]
    fn filter_on_an_unread_endpoint_keeps_what_the_test_on_the_read_column_keeps() {
        let families: [(&str, Vec<i64>); 4] = [
            ("dense", (0..40).collect()),
            ("sparse", (0..40).map(|i| 3 + i * 1_000_003).collect()),
            ("negative", (-20..20).collect()),
            ("offset", (1000..1040).collect()),
        ];
        let mut b = PatternBuilder::new();
        let (p, q) = (b.vertex("p", LabelId(0)), b.vertex("q", LabelId(0)));
        b.edge(p, q, LabelId(0)).unwrap();
        let pat = b.build().unwrap();
        for (family, pks) in families {
            let view = keyed_view(&pks, 3000);
            let pinned = ScalarExpr::col_eq(0, pks[5]);
            let predicates = [
                ScalarExpr::col_eq(1, 1),
                // Nothing passes.
                ScalarExpr::col_eq(1, 99),
                // The primary key is pinned: `vertex_rows` seeks.
                pinned.clone(),
                pinned.and(ScalarExpr::col_eq(1, 2)),
            ];
            let edge_predicates = [None, Some(ScalarExpr::col_cmp(3, BinaryOp::Lt, 3))];
            for (pred, edge_pred) in predicates.iter().flat_map(|p| {
                edge_predicates
                    .iter()
                    .map(move |edge_pred| (p, edge_pred.clone()))
            }) {
                let scan = GraphOp::ScanEdge {
                    e: 0,
                    predicate: edge_pred,
                    ann: ann(),
                };
                for (indexed, threads, v) in
                    [(false, 1, p), (false, 4, q), (true, 1, q), (true, 4, p)]
                {
                    let what = format!("{family} keys, {pred}, indexed {indexed}, x{threads}");
                    let cfg = limits(indexed, threads);
                    let c = ctx(&view, &pat, &cfg);
                    let unread = execute_graph(&scan, &c).unwrap();
                    assert!(unread.len() > morsel::DEFAULT_MORSEL_ROWS, "{what}");
                    let read = unread.clone();
                    read.vertex_col(v).unwrap();
                    assert!(unread.unread_endpoint(v).unwrap().is_some(), "{what}");
                    assert!(read.unread_endpoint(v).unwrap().is_none(), "{what}");
                    let got = filter_vertex(&unread, v, pred, &c).unwrap();
                    let want = filter_vertex(&read, v, pred, &c).unwrap();
                    // The semijoin looked nothing up; the reference had to.
                    assert!(got.unread_endpoint(v).unwrap().is_some(), "{what}");
                    assert_same_chunk(&got, &want, &what);
                }
            }
        }
    }

    #[test]
    fn filter_over_a_scan_tests_every_key_and_looks_up_only_the_survivors() {
        use crate::chunk::tests::TableLambda;
        use std::sync::atomic::Ordering::Relaxed;
        let (view, _) = fig2::view();
        let pat = wedge_pattern();
        // λˢ / λᵗ of Likes as the view has them, through a counting double.
        let (srcs, dsts) = view.resolve_endpoints(LabelId(0), None).unwrap();
        let (src, dst) = (TableLambda::new(srcs, 3), TableLambda::new(dsts, 2));
        let scan = GraphChunk::from_edge_scan(
            (pat.vertex_count(), pat.edge_count()),
            (0, 4, None),
            (0, Arc::clone(&src) as Arc<dyn Lambda>),
            (2, Arc::clone(&dst) as Arc<dyn Lambda>),
        )
        .unwrap();
        let counts = |of: &TableLambda| (of.key_tests.load(Relaxed), of.lookups.load(Relaxed));
        for threads in [1, 4] {
            let cfg = limits(false, threads);
            let c = ctx(&view, &pat, &cfg);
            let bob = ScalarExpr::col_eq(1, "Bob");
            let (before_src, before_dst) = (counts(&src), counts(&dst));
            // FILTER p1 (SCAN_EDGE Likes): n = 4 rows in, k = 2 out.
            let out = filter_vertex(&scan, 0, &bob, &c).unwrap();
            assert_eq!(out.len(), 2);
            // n key tests, and nothing looked up: nothing has been read.
            assert_eq!(counts(&src), (before_src.0 + 4, before_src.1));
            assert_eq!(counts(&dst), before_dst);
            // What a join on `m` and a projection of `p1` go on to read is
            // looked up for the k survivors each — k + k, not 2 n.
            assert_eq!(out.vertex_col(0).unwrap(), &[1, 1]);
            assert_eq!(out.vertex_col(2).unwrap(), &[0, 1]);
            assert_eq!(counts(&src), (before_src.0 + 4, before_src.1 + 2));
            assert_eq!(counts(&dst), (before_dst.0, before_dst.1 + 2));
        }
    }

    #[test]
    fn a_join_on_an_unread_probe_endpoint_equals_the_reference() {
        // p -[0]-> q <-[1]- s, joined on q.
        let mut b = PatternBuilder::new();
        let (p, q, s) = (
            b.vertex("p", LabelId(0)),
            b.vertex("q", LabelId(0)),
            b.vertex("s", LabelId(0)),
        );
        b.edge(p, q, LabelId(0)).unwrap();
        b.edge(s, q, LabelId(0)).unwrap();
        let pat = b.build().unwrap();
        let scan = |e, predicate| GraphOp::ScanEdge {
            e,
            predicate,
            ann: ann(),
        };
        let vertices = |predicate| GraphOp::ScanVertex {
            v: q,
            predicate: Some(predicate),
            ann: ann(),
        };
        // Build sides, all smaller than the probe's 3000 edge rows: distinct
        // keys, repeated keys on a still unread endpoint, nothing.
        let builds = [
            ("distinct", vertices(ScalarExpr::col_eq(1, 1))),
            (
                "repeated",
                GraphOp::FilterVertex {
                    input: Box::new(scan(1, Some(w_below(1)))),
                    v: s,
                    predicate: ScalarExpr::col_eq(1, 2),
                    ann: ann(),
                },
            ),
            ("empty", vertices(ScalarExpr::col_eq(1, 99))),
        ];
        let families: [(&str, Vec<i64>); 2] = [
            ("dense", (0..40).collect()),
            // A hashed `KeyIndex`, so a hashed `KeySet`.
            ("sparse", (0..40).map(|i| 3 + i * 1_000_003).collect()),
        ];
        for (family, pks) in families {
            let view = keyed_view(&pks, 3000);
            // Unindexed: λ through the key column (`KeyEnd`); indexed: the
            // EV array (`EvEnd`).
            for (indexed, threads) in [(false, 1), (false, 4), (true, 1), (true, 4)] {
                let cfg = limits(indexed, threads);
                let c = ctx(&view, &pat, &cfg);
                for (shape, build) in &builds {
                    let probe = execute_graph(&scan(0, None), &c).unwrap();
                    let build = execute_graph(build, &c).unwrap();
                    assert!(build.len() < probe.len());
                    // The probe side on the right, then on the left: the
                    // gather must come from the reduced chunk either way.
                    for swapped in [false, true] {
                        let what = format!(
                            "{family} keys, {shape} build, indexed {indexed}, x{threads}, \
                             swapped {swapped}"
                        );
                        let (l, r) = match swapped {
                            false => (&build, &probe),
                            true => (&probe, &build),
                        };
                        let want = join_chunks_reference(&l.clone(), &r.clone(), &[q], &[]);
                        let got = join_chunks(l, r, &[q], &[], &c).unwrap();
                        assert!(probe.unread_endpoint(q).unwrap().is_some(), "{what}");
                        assert_same_chunk(&got, &want, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn a_join_tests_every_probe_key_and_looks_up_only_the_rows_it_keeps() {
        use crate::chunk::tests::TableLambda;
        use std::sync::atomic::Ordering::Relaxed;
        let (view, _) = fig2::view();
        let pat = wedge_pattern();
        // n edge rows, their sources cycling through 10 vertices.
        let n = 3000;
        let (src, dst) = (
            TableLambda::new((0..n as RowId).map(|i| i % 10).collect(), 10),
            TableLambda::new((0..n as RowId).map(|i| i % 7).collect(), 7),
        );
        let probe = GraphChunk::from_edge_scan(
            (pat.vertex_count(), pat.edge_count()),
            (0, n, None),
            (0, Arc::clone(&src) as Arc<dyn Lambda>),
            (2, Arc::clone(&dst) as Arc<dyn Lambda>),
        )
        .unwrap();
        // Sources 2 and 5 (twice) on the build side: m = 600 probe rows
        // have a key in it, and 300 + 2 × 300 pairs match.
        let build = GraphChunk::from_vertex(3, 2, 0, vec![5, 2, 5]);
        let m = 600;
        let counts = |of: &TableLambda| (of.key_tests.load(Relaxed), of.lookups.load(Relaxed));
        for threads in [1, 4] {
            let cfg = limits(false, threads);
            let c = ctx(&view, &pat, &cfg);
            for (l, r) in [(&probe, &build), (&build, &probe)] {
                let (before_src, before_dst) = (counts(&src), counts(&dst));
                let out = join_chunks(l, r, &[0], &[], &c).unwrap();
                assert_eq!(out.len(), 900);
                // n key tests and m lookups, not n; the other end unread.
                assert_eq!(counts(&src), (before_src.0 + n, before_src.1 + m));
                assert_eq!(counts(&dst), before_dst);
                assert!(out.unread_endpoint(2).unwrap().is_some());
            }
        }
    }

    #[test]
    fn a_dangling_or_null_key_is_reported_when_its_endpoint_is_read() {
        let mut db = Database::new();
        db.add_table(table_of(
            "P",
            &[("id", DataType::Int)],
            vec![vec![1.into()], vec![2.into()]],
        ));
        db.add_table(table_of(
            "K",
            &[
                ("id", DataType::Int),
                ("a", DataType::Int),
                ("b", DataType::Int),
            ],
            vec![
                vec![1.into(), 1.into(), 2.into()],
                vec![2.into(), 2.into(), 99.into()],
                vec![3.into(), Value::Null, 1.into()],
            ],
        ));
        db.set_primary_key("P", "id").unwrap();
        db.set_primary_key("K", "id").unwrap();
        let mapping = RGMapping::new().vertex("P").edge("K", "a", "P", "b", "P");
        // A bare view: no graph index has proven λ total.
        let view = GraphView::build(&mut db, mapping).unwrap();
        let mut b = PatternBuilder::new();
        let (p, q) = (b.vertex("p", LabelId(0)), b.vertex("q", LabelId(0)));
        b.edge(p, q, LabelId(0)).unwrap();
        let pat = b.build().unwrap();
        let cfg = limits(false, 1);
        let c = ctx(&view, &pat, &cfg);
        let scan = |predicate| GraphOp::ScanEdge {
            e: 0,
            predicate,
            ann: ann(),
        };
        // The scan binds the edge and reads no key; reading an endpoint says
        // what resolving the column has always said.
        let all = execute_graph(&scan(None), &c).unwrap();
        assert_eq!(all.edge_col(0).unwrap(), &[0, 1, 2]);
        let null = all.vertex_col(p).unwrap_err().to_string();
        assert_eq!(null, "execution error: λs: NULL source key in edge K@2");
        let dangling = all.vertex_col(q).unwrap_err().to_string();
        assert_eq!(
            dangling,
            "execution error: λt: dangling target key 99 in edge K@1 (λ must be total)"
        );
        // `resolve_endpoints` reports the first bad row, K@1.
        let eager = view.resolve_endpoints(LabelId(0), None).unwrap_err();
        assert_eq!(dangling, eager.to_string());
        // The error is the column's: a second read repeats it.
        assert_eq!(all.vertex_col(q).unwrap_err().to_string(), dangling);
        // An edge predicate that drops the rows first leaves λ total on
        // what is read, and the query succeeds.
        let first = execute_graph(&scan(Some(ScalarExpr::col_eq(0, 1))), &c).unwrap();
        assert_eq!(first.vertex_col(p).unwrap(), &[0]);
        assert_eq!(first.vertex_col(q).unwrap(), &[1]);
        // So does a key-space filter: a key that resolves to nothing is in
        // no set of vertices.
        let filtered = GraphOp::FilterVertex {
            input: Box::new(scan(None)),
            v: q,
            predicate: ScalarExpr::col_eq(0, 2),
            ann: ann(),
        };
        let out = execute_graph(&filtered, &c).unwrap();
        assert_eq!(out.edge_col(0).unwrap(), &[0]);
        assert_eq!(out.vertex_col(p).unwrap(), &[0]);
        // And so does a join on an endpoint of the larger (probe) side that
        // nobody has read: it is cut down to the build side's keys first, so
        // the dangling K@1 (on q) and the NULL K@2 (on p) match nothing and
        // are dropped, not reported.
        let join = |on: usize, build| GraphOp::JoinSub {
            left: Box::new(scan(None)),
            right: Box::new(build),
            on_vertices: vec![on],
            on_edges: vec![],
            ann: ann(),
        };
        let id_is = |v, id: i64| GraphOp::ScanVertex {
            v,
            predicate: Some(ScalarExpr::col_eq(0, id)),
            ann: ann(),
        };
        for (on, id) in [(q, 2), (p, 1)] {
            let out = execute_graph(&join(on, id_is(on, id)), &c).unwrap();
            assert_eq!(out.edge_col(0).unwrap(), &[0]);
        }
        // Where the join reads the column anyway — the probe side read it
        // before, or the edge scan is the smaller (build) side — the lookup
        // reports as it always has.
        let one = execute_graph(&id_is(q, 2), &c).unwrap();
        let err = join_chunks(&all, &one, &[q], &[], &c).unwrap_err();
        assert_eq!(err.to_string(), dangling);
        let fresh = execute_graph(&scan(None), &c).unwrap();
        let larger = GraphChunk::from_vertex(2, 1, q, vec![1; 5]);
        let err = join_chunks(&larger, &fresh, &[q], &[], &c).unwrap_err();
        assert_eq!(err.to_string(), dangling);
    }
}
