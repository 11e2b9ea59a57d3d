//! Per-layer measurement from outside: direct, timed calls into the public
//! functions of each crate, and an accumulator for what the program itself
//! reports about a query (`QueryOutcome::trace`, `PlanReport`). Nothing
//! under `crates/` is instrumented for this; spans inside the program are a
//! later issue.

use crate::spec::Ledger;
use crate::stats::{median, Samples};
use crate::util::{mean_time, micros, millis, secs, timed};
use crate::Res;
use relgo::core::{parameterize, rebind_plan};
use relgo::datagen::{generate_imdb, generate_snb, ImdbParams, SnbParams};
use relgo::glogue::GLogue;
use relgo::metrics::trace::Stage;
use relgo::pattern::canonical_form;
use relgo::prelude::*;
use relgo::storage::ops::{self, AggFunc, SortKey};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// The operator kinds `PlanReport` can name, graph side then relational
/// side; each has an `exec.op.<kind>_ms` and an `exec.op.<kind>_rows`.
pub const OPERATOR_KINDS: [&str; 15] = [
    "scan_vertex",
    "scan_edge",
    "expand",
    "expand_intersect",
    "join_sub",
    "filter_vertex",
    "scan_graph_table",
    "scan_table",
    "hash_join",
    "filter",
    "project",
    "aggregate",
    "distinct",
    "sort",
    "limit",
];

/// The generator seed of both datasets unless `--data-seed` names another.
/// The dataset does not follow `--seed`: over ten generator seeds
/// `queries_per_s` spread by 13–24 % and `peak_rss_mb` by 7–9 %, which is a
/// property of the generated tables, not noise, and the benchmark contract
/// holds the spread over ten `--seed`s to each metric's bound. `--seed`
/// drives what is asked of the data; a held-out dataset is `--data-seed N`
/// on both sides of a comparison (README, "Seeds").
pub const DEFAULT_DATA_SEED: u64 = 42;

/// The two generated datasets at the sizes the workloads fix.
#[derive(Debug, Clone, Copy)]
pub enum Dataset {
    Snb(f64),
    Imdb(f64),
}

impl Dataset {
    pub fn generate(self, seed: u64) -> (Database, RGMapping) {
        match self {
            Dataset::Snb(sf) => generate_snb(&SnbParams { sf, seed }),
            Dataset::Imdb(sf) => generate_imdb(&ImdbParams { sf, seed }),
        }
    }

    /// The edge label whose table the direct `storage::ops` calls join to
    /// its destination vertex table: `Knows ⋈ Person`, `cast_info ⋈ title`.
    fn join_edge(self) -> &'static str {
        match self {
            Dataset::Snb(_) => "Knows",
            Dataset::Imdb(_) => "cast_info",
        }
    }
}

/// Set-up taken apart: the four steps `Session::snb_with` / `imdb_with` run
/// in sequence, each timed on its own. Returns the view for the direct
/// calls that need one.
pub fn setup_layers(dataset: Dataset, data_seed: u64, ledger: &mut Ledger) -> Res<Arc<GraphView>> {
    let (generate, (mut db, mapping)) = timed(|| dataset.generate(data_seed));
    let (view_build, view) = timed(|| GraphView::build(&mut db, mapping));
    let mut view = view?;
    let (index_build, built) = timed(|| view.build_index());
    built?;
    let view = Arc::new(view);
    let (glogue_build, glogue) = timed(|| GLogue::new(Arc::clone(&view), 3, 1));
    glogue?;
    ledger.set("datagen.generate_s", secs(generate));
    ledger.set("graph.view_build_s", secs(view_build));
    ledger.set("graph.index_build_s", secs(index_build));
    ledger.set("glogue.build_s", secs(glogue_build));
    Ok(view)
}

/// `storage::ops` called directly on the dataset's join pair: the cost of
/// the relational operators with no plan, no executor and no session.
pub fn storage_layers(dataset: Dataset, view: &GraphView, ledger: &mut Ledger) -> Res<()> {
    let schema = view.schema();
    let edge = schema.edge_label_id(dataset.join_edge())?;
    let (_, dst) = schema.edge_endpoints(edge);
    let edges = view.edge_table(edge);
    let vertices = view.vertex_table(dst);
    let fk = view.edge_dst_col(edge);
    let pk = view.vertex_pk_col(dst);
    let half = Value::Int(vertices.num_rows() as i64 / 2);
    let below_half = ScalarExpr::col_cmp(fk, BinaryOp::Lt, half);
    let aggs = [(AggFunc::Min, fk), (AggFunc::Max, fk), (AggFunc::Count, 0)];
    let by_fk = [SortKey {
        column: fk,
        descending: false,
    }];
    // Three calls each, median: one call is tens of milliseconds.
    let median_ms = |f: &dyn Fn() -> Res<usize>| -> Res<f64> {
        let mut ms = Vec::new();
        for _ in 0..3 {
            let (d, rows) = timed(f);
            std::hint::black_box(rows?);
            ms.push(millis(d));
        }
        Ok(median(&ms))
    };
    ledger.set(
        "storage.hash_join_ms",
        median_ms(&|| Ok(ops::hash_join(vertices, edges, &[(pk, fk)])?.num_rows()))?,
    );
    ledger.set(
        "storage.aggregate_ms",
        median_ms(&|| Ok(ops::aggregate(edges, &aggs)?.num_rows()))?,
    );
    ledger.set(
        "storage.sort_ms",
        median_ms(&|| Ok(ops::sort(edges, &by_fk)?.num_rows()))?,
    );
    ledger.set(
        "storage.filter_ms",
        median_ms(&|| Ok(ops::filter(edges, &below_half)?.num_rows()))?,
    );
    Ok(())
}

/// GLogue and pattern layers on the patterns the workload's queries match:
/// the first `cardinality` of each on a fresh `GLogue` counts it cold, the
/// second is a cache lookup.
pub fn pattern_layers(
    view: &Arc<GraphView>,
    queries: &[&SpjmQuery],
    ledger: &mut Ledger,
) -> Res<()> {
    let glogue = GLogue::new(Arc::clone(view), 3, 1)?;
    let (cold, counted) = timed(|| {
        queries
            .iter()
            .try_for_each(|q| glogue.cardinality(&q.pattern).map(drop))
    });
    counted?;
    let warm = mean_time(queries.len() * 20, |i| {
        glogue.cardinality(&queries[i % queries.len()].pattern)
    });
    let canonical = mean_time(queries.len() * 20, |i| {
        canonical_form(&queries[i % queries.len()].pattern)
    });
    ledger.set("glogue.cold_count_s", secs(cold));
    ledger.set("glogue.warm_lookup_us", micros(warm));
    ledger.set("pattern.canonical_us", micros(canonical));
    Ok(())
}

/// The plan-cache request path, call by call, on pairs of instances of one
/// template: `parameterize`, `PlanCache::lookup`, `rebind_plan`,
/// `Session::prepare`. Run after the cache counters have been read, since
/// the lookups here count as hits.
pub fn request_path_layers(
    session: &Session,
    pairs: &[(SpjmQuery, SpjmQuery)],
    mode: OptimizerMode,
    ledger: &mut Ledger,
) -> Res<()> {
    const REPS: usize = 200;
    let n = pairs.len();
    let param = mean_time(n * REPS, |i| parameterize(&pairs[i % n].1));
    let mut rebind = Duration::ZERO;
    let mut lookup = Duration::ZERO;
    let mut prepare = Duration::ZERO;
    for (first, second) in pairs {
        // Make sure the template's entry is live, then time what a hit does.
        session.run_cached(first, mode)?;
        let key = parameterize(first).key(mode);
        let new_params = parameterize(second).params;
        lookup += mean_time(REPS, |_| session.plan_cache().lookup(&key));
        let (plan, old_params) = session
            .plan_cache()
            .lookup(&key)
            .ok_or("plan cache lost an entry it was just given")?;
        rebind += mean_time(REPS, |_| rebind_plan(&plan, &old_params, &new_params));
        prepare += mean_time(20, |_| session.prepare(first, mode).map(drop));
    }
    let per_template = |d: Duration| micros(d) / n as f64;
    ledger.set("core.parameterize_us", micros(param));
    ledger.set("cache.lookup_us", per_template(lookup));
    ledger.set("core.rebind_us", per_template(rebind));
    ledger.set("relgo.prepare_us", per_template(prepare));
    Ok(())
}

/// Warm `Session::optimize` per query: what a plan-cache miss or an ad-hoc
/// `run` pays before execution, once GLogue has counted the patterns.
pub fn optimize_layer(session: &Session, queries: &[&SpjmQuery], mode: OptimizerMode) -> Res<f64> {
    for q in queries {
        session.optimize(q, mode)?;
    }
    let reps = 5;
    let (d, done) = timed(|| {
        (0..reps).try_for_each(|_| {
            queries
                .iter()
                .try_for_each(|q| session.optimize(q, mode).map(drop))
        })
    });
    done?;
    Ok(micros(d) / (reps * queries.len()) as f64)
}

/// One scrape of the session's registry rendered as Prometheus text, and
/// how many series it has — the in-process half of `GET /metrics`.
pub fn scrape_layer(session: &Session, ledger: &mut Ledger) {
    let (d, text) = timed(|| session.observability_snapshot().render_prometheus());
    std::hint::black_box(text);
    ledger.set("metrics.scrape_ms", millis(d));
    ledger.set(
        "metrics.series",
        session.observability_snapshot().series_names().len() as f64,
    );
}

/// What the program reports about the queries of a traced run, summed:
/// stage timings and optimizer counters from every `QueryOutcome`, operator
/// profiles from every `PlanReport`.
///
/// Times are averaged over everything recorded. Counts (rows, plans
/// visited, Q-errors) must repeat exactly on one seed, so they are summed
/// only over the passes the caller marks as counted — a prefix of the
/// window that does not depend on how long the window ran — and reported
/// per counted pass.
#[derive(Debug, Default)]
pub struct TraceAcc {
    /// Whether the pass in progress is a counted one.
    counting: bool,
    counted_passes: u64,
    counted_profiled_passes: u64,
    profiled_passes: u64,
    queries: u64,
    /// Wall of each query as the benchmark timed it, µs.
    wall_us: f64,
    /// Σ stages of each query's own trace, µs.
    accounted_us: f64,
    stage_us: [f64; Stage::ALL.len()],
    exec_ms: Samples,
    /// Σ `exec_time` of the profiled queries, ms.
    profiled_exec_ms: f64,
    op_ms: BTreeMap<&'static str, f64>,
    plans_visited: u64,
    op_rows: BTreeMap<&'static str, u64>,
    result_rows: u64,
    qerrors: Vec<f64>,
}

impl TraceAcc {
    /// A pass (a round, a replay) begins: `profiled` if its calls are the
    /// profiled variants, `counted` if its counts go into the exact sums.
    pub fn start_pass(&mut self, profiled: bool, counted: bool) {
        self.counting = counted;
        self.profiled_passes += profiled as u64;
        self.counted_passes += counted as u64;
        self.counted_profiled_passes += (profiled && counted) as u64;
    }

    /// One finished query: its outcome, the wall the caller measured around
    /// the call, and the operator report when the call was a profiled one.
    pub fn record(&mut self, outcome: &QueryOutcome, wall: Duration, report: Option<&PlanReport>) {
        self.queries += 1;
        self.wall_us += micros(wall);
        self.accounted_us += micros(outcome.trace.accounted());
        for (i, stage) in Stage::ALL.iter().enumerate() {
            self.stage_us[i] += micros(outcome.trace.get(*stage));
        }
        self.exec_ms.push(millis(outcome.exec_time));
        if self.counting {
            self.plans_visited += outcome.opt.plans_visited;
        }
        let Some(report) = report else { return };
        self.profiled_exec_ms += millis(outcome.exec_time);
        for op in &report.ops {
            *self.op_ms.entry(op.prof.kind).or_default() += millis(op.prof.elapsed);
        }
        if self.counting {
            self.result_rows += outcome.table.num_rows() as u64;
            for op in &report.ops {
                *self.op_rows.entry(op.prof.kind).or_default() += op.prof.rows_out;
                self.qerrors.extend(op.qerror());
            }
        }
    }

    /// Write the `relgo.*`, `exec.*` and `core.*` metrics.
    pub fn report(&self, ledger: &mut Ledger) {
        let per_query = |total: f64| total / self.queries.max(1) as f64;
        for (i, stage) in Stage::ALL.iter().enumerate() {
            ledger.set(
                format!("relgo.stage.{}_us", stage.name()),
                per_query(self.stage_us[i]),
            );
        }
        if self.wall_us > 0.0 {
            let execute = Stage::ALL
                .iter()
                .position(|s| *s == Stage::Execute)
                .expect("execute is a stage");
            ledger.set("relgo.trace_coverage", self.accounted_us / self.wall_us);
            ledger.set("exec.share", self.stage_us[execute] / self.wall_us);
        }
        ledger.set(
            "relgo.untraced_us",
            per_query(self.wall_us - self.accounted_us),
        );
        ledger.set("exec.execute_ms_p50", self.exec_ms.median());
        if self.profiled_exec_ms > 0.0 {
            // How much of execution the operator profiles explain.
            ledger.set(
                "exec.op_time_coverage",
                self.op_ms.values().sum::<f64>() / self.profiled_exec_ms,
            );
        }
        ledger.set(
            "core.plans_visited",
            self.plans_visited as f64 / self.counted_passes.max(1) as f64,
        );
        let mut examined = 0u64;
        for kind in OPERATOR_KINDS {
            let rows = self.op_rows.get(kind).copied().unwrap_or(0);
            examined += rows;
            ledger.set(
                format!("exec.op.{kind}_ms"),
                self.op_ms.get(kind).copied().unwrap_or(0.0) / self.profiled_passes.max(1) as f64,
            );
            ledger.set(
                format!("exec.op.{kind}_rows"),
                rows as f64 / self.counted_profiled_passes.max(1) as f64,
            );
        }
        if self.result_rows > 0 {
            ledger.set(
                "exec.rows_examined_per_result",
                examined as f64 / self.result_rows as f64,
            );
        }
        if !self.qerrors.is_empty() {
            ledger.set("core.qerror_p50", median(&self.qerrors));
            ledger.set(
                "core.qerror_max",
                self.qerrors.iter().copied().fold(0.0, f64::max),
            );
        }
    }

    /// Kinds a `PlanReport` named that [`OPERATOR_KINDS`] does not list: a
    /// new operator would otherwise vanish from the ledger silently.
    pub fn unknown_kinds(&self) -> Vec<&'static str> {
        self.op_ms
            .keys()
            .filter(|k| !OPERATOR_KINDS.contains(k))
            .copied()
            .collect()
    }
}
