//! Cross-mode correctness: every optimizer mode (DuckDB-like, GRainDB,
//! Umbra-like, Calcite-like, Kùzu-like, RelGo and its three ablations) must
//! produce row-identical results to the naive backtracking oracle on the
//! SNB-like workloads.

#[path = "support/regimes.rs"]
mod regimes;

use regimes::assert_regimes_match;
use relgo::prelude::*;
use relgo::storage::ops::AggFunc;
use relgo::workloads::snb_queries::{self, cols, SnbSchema};

fn session() -> (Session, SnbSchema) {
    Session::snb(0.05, 42).expect("session build")
}

fn check_all_modes(session: &Session, name: &str, query: &SpjmQuery) {
    let expected = session.oracle(query).expect("oracle").sorted_rows();
    for mode in OptimizerMode::ALL {
        let outcome = session
            .run(query, mode)
            .unwrap_or_else(|e| panic!("{name} under {mode:?}: {e}"));
        assert_eq!(
            outcome.table.sorted_rows(),
            expected,
            "{name} under {mode:?} disagrees with the oracle"
        );
    }
}

#[test]
fn fig1_example_agrees_across_modes() {
    let (session, schema) = session();
    // Sweep every distinct person name in the dataset until one produces
    // matches, checking mode agreement for the first few names either way.
    let db = session.db();
    let person = db.table("Person").unwrap();
    let mut names: Vec<String> = (0..person.num_rows() as u32)
        .filter_map(|r| person.value(r, 1).as_str().map(str::to_string))
        .collect();
    names.sort();
    names.dedup();
    let mut saw_rows = false;
    let mut checked = 0;
    for name in &names {
        let q = snb_queries::fig1_example(&schema, name).unwrap();
        let rows = session.oracle(&q).unwrap().num_rows();
        if checked < 3 || (rows > 0 && !saw_rows) {
            check_all_modes(&session, &format!("Fig1({name})"), &q);
            checked += 1;
        }
        if rows > 0 {
            saw_rows = true;
        }
        if saw_rows && checked >= 4 {
            break;
        }
    }
    assert!(
        saw_rows,
        "at least one of the {} person names should produce matches",
        names.len()
    );
}

/// `left <op> right` over two columns.
fn cols_cmp(left: usize, op: BinaryOp, right: usize) -> ScalarExpr {
    ScalarExpr::Cmp(
        op,
        Box::new(ScalarExpr::Col(left)),
        Box::new(ScalarExpr::Col(right)),
    )
}

// The global columns of `two_places`: five graph columns, then Place `a`
// (id, name) joined on p1's place, then Place `b` (id, name) on p2's.
const P1_ID: usize = 0;
const P2_ID: usize = 1;
const P2_DATE: usize = 2;
const PL1_ID: usize = 3;
const PL2_ID: usize = 4;
const A_ID: usize = 5;
const A_NAME: usize = 6;
const B_ID: usize = 7;
const B_NAME: usize = 8;

/// Fig. 1's hybrid shape with two declared tables: `(p1)-knows->(p2)`, each
/// person located in a place vertex, and `Place` joined twice, once on each
/// person's `PersonLocatedIn` place id.
fn two_places(s: &SnbSchema) -> Result<SpjmBuilder> {
    let mut pb = PatternBuilder::new();
    let p1 = pb.vertex("p1", s.person);
    let p2 = pb.vertex("p2", s.person);
    let pl1 = pb.vertex("pl1", s.place);
    let pl2 = pb.vertex("pl2", s.place);
    pb.edge(p1, p2, s.knows)?;
    pb.edge(p1, pl1, s.person_located_in)?;
    pb.edge(p2, pl2, s.person_located_in)?;
    let mut b = SpjmBuilder::new(pb.build()?);
    b.vertex_column(p1, 0, "p1_id");
    b.vertex_column(p2, 0, "p2_id");
    b.vertex_column(p2, cols::PERSON_DATE, "p2_date");
    b.vertex_column(pl1, 0, "pl1_id");
    b.vertex_column(pl2, 0, "pl2_id");
    b.table("Place");
    b.table("Place");
    b.join(PL1_ID, A_ID);
    b.join(PL2_ID, B_ID);
    Ok(b)
}

/// Hybrid SPJM templates whose relational half the optimizer splits three
/// ways: a literal on the second table is pushed into its `SCAN_TABLE`
/// (remapped to table-local columns), the join keys of the second table
/// are rewritten right-local, and the graph-vs-table or table-vs-table
/// conjunct stays a residual `SELECTION` above the joins.
fn hybrid_templates(schema: &SnbSchema) -> Vec<QueryTemplate> {
    let s = *schema;
    vec![
        // p1's friends in another country: ORDER BY + LIMIT on a total
        // order of the output.
        QueryTemplate::new("H-friends-abroad", move |d| {
            let mut b = two_places(&s)?;
            b.select(ScalarExpr::col_eq(P1_ID, (d % 20) as i64));
            b.select(ScalarExpr::col_cmp(B_ID, BinaryOp::Ge, (d % 4) as i64));
            b.select(cols_cmp(PL1_ID, BinaryOp::Ne, B_ID));
            b.project(&[P2_ID, A_NAME, B_NAME]);
            b.order_by(0, false).order_by(2, false).limit(5);
            Ok(b.build())
        }),
        // How many friendships reach one country from another, and the
        // earliest friend there.
        QueryTemplate::new("H-count-into", move |d| {
            let mut b = two_places(&s)?;
            b.select(ScalarExpr::col_eq(B_NAME, format!("country_{}", d % 6)));
            b.select(cols_cmp(A_ID, BinaryOp::Ne, PL2_ID));
            b.aggregate(AggFunc::Count, P2_ID);
            b.aggregate(AggFunc::Min, P2_DATE);
            Ok(b.build())
        }),
        // The distinct country pairs of friendships made by recent friends.
        QueryTemplate::new("H-country-pairs", move |d| {
            let mut b = two_places(&s)?;
            b.select(ScalarExpr::col_cmp(
                P2_DATE,
                BinaryOp::Gt,
                15_000 + (d % 4) as i64 * 500,
            ));
            b.select(ScalarExpr::col_cmp(B_ID, BinaryOp::Lt, 3 + (d % 5) as i64));
            b.select(cols_cmp(A_NAME, BinaryOp::Ne, B_NAME));
            b.project(&[A_NAME, B_NAME]);
            b.distinct();
            Ok(b.build())
        }),
    ]
}

#[test]
fn hybrid_queries_with_two_tables_agree_across_modes_and_regimes() {
    let (session, schema) = session();
    // Draw 1's literal on the second table, over its table-local columns.
    let pushed = ["($0 >= 1)", "($1 = 'country_1')", "($0 < 4)"];
    for (t, pushed) in hybrid_templates(&schema).iter().zip(pushed) {
        let explain = session
            .explain(&t.instantiate(1).unwrap(), OptimizerMode::RelGo)
            .unwrap();
        let lines: Vec<&str> = explain.lines().map(str::trim_start).collect();
        let scans: Vec<&str> = lines
            .iter()
            .copied()
            .filter(|l| l.starts_with("SCAN_TABLE"))
            .collect();
        assert_eq!(scans.len(), 2, "{}:\n{explain}", t.name());
        assert!(!scans[0].contains('('), "{}:\n{explain}", t.name());
        assert!(scans[1].contains(pushed), "{}:\n{explain}", t.name());
        let joins: Vec<usize> = (0..lines.len())
            .filter(|&i| lines[i].starts_with("HASH_JOIN"))
            .collect();
        assert_eq!(joins.len(), 2, "{}:\n{explain}", t.name());
        assert!(
            joins.iter().all(|&i| lines[i].contains("=$0 ")),
            "{}: join keys are right-local\n{explain}",
            t.name()
        );
        let selection = lines.iter().position(|l| l.starts_with("SELECTION"));
        assert_eq!(
            selection.map(|i| i + 1),
            Some(joins[0]),
            "{}: the residual sits right above the joins\n{explain}",
            t.name()
        );
        let mut saw_rows = false;
        for draw in 0..6 {
            let q = t.instantiate(draw).unwrap();
            check_all_modes(&session, &format!("{} draw {draw}", t.name()), &q);
            // An aggregate answers one row even over no matches: it saw
            // rows when its COUNT did.
            let answer = session.oracle(&q).unwrap();
            saw_rows |= answer.num_rows() > 0
                && (q.aggregates.is_empty() || answer.value(0, 0) != Value::Int(0));
            if draw == 0 {
                continue;
            }
            for mode in OptimizerMode::ALL {
                let want = session.run(&q, mode).unwrap().table;
                assert_regimes_match(&session, t, draw, mode, &want, "a first run");
            }
        }
        assert!(saw_rows, "{}: every draw came back empty", t.name());
    }
}

#[test]
fn ic_short_paths_agree_across_modes() {
    let (session, schema) = session();
    for l in 1..=2 {
        let q = snb_queries::ic1(&schema, l, 5).unwrap();
        check_all_modes(&session, &format!("IC1-{l}"), &q);
    }
    let q = snb_queries::ic2(&schema, 5, 18_500).unwrap();
    check_all_modes(&session, "IC2", &q);
    let q = snb_queries::ic3(&schema, 1, 5, "country_3").unwrap();
    check_all_modes(&session, "IC3-1", &q);
    let q = snb_queries::ic4(&schema, 5, 15_500, 18_500).unwrap();
    check_all_modes(&session, "IC4", &q);
}

#[test]
fn cyclic_ic_queries_agree_across_modes() {
    let (session, schema) = session();
    let q = snb_queries::ic5(&schema, 1, 5, 14_000).unwrap();
    check_all_modes(&session, "IC5-1", &q);
    let q = snb_queries::ic7(&schema, 5).unwrap();
    check_all_modes(&session, "IC7", &q);
}

#[test]
fn deep_ic_queries_agree_across_modes() {
    let (session, schema) = session();
    let q = snb_queries::ic8(&schema, 5).unwrap();
    check_all_modes(&session, "IC8", &q);
    let q = snb_queries::ic9(&schema, 1, 5, 17_000).unwrap();
    check_all_modes(&session, "IC9-1", &q);
    let q = snb_queries::ic11(&schema, 1, 5, "country_2").unwrap();
    check_all_modes(&session, "IC11-1", &q);
    let q = snb_queries::ic12(&schema, 5, "class_1").unwrap();
    check_all_modes(&session, "IC12", &q);
}

#[test]
fn qr_rule_queries_agree_across_modes() {
    let (session, schema) = session();
    for w in snb_queries::qr_queries(&schema).unwrap() {
        check_all_modes(&session, &w.name, &w.query);
    }
}

#[test]
fn qc_cyclic_counts_agree_across_modes() {
    let (session, schema) = session();
    for w in snb_queries::qc_queries(&schema).unwrap() {
        let expected = session.oracle(&w.query).unwrap();
        let count = expected.value(0, 0).as_int().unwrap();
        assert!(count > 0, "{}: cyclic pattern should have matches", w.name);
        check_all_modes(&session, &w.name, &w.query);
    }
}

#[test]
fn full_ic_workload_relgo_vs_oracle() {
    // The full 18-query IC workload under the converged optimizer only
    // (keeps runtime reasonable while covering every query shape).
    let (session, schema) = session();
    for w in snb_queries::ldbc_interactive(&schema).unwrap() {
        let expected = session.oracle(&w.query).unwrap().sorted_rows();
        let out = session
            .run(&w.query, OptimizerMode::RelGo)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(out.table.sorted_rows(), expected, "{}", w.name);
    }
}

#[test]
fn full_ic_workload_umbra_and_kuzu_vs_oracle() {
    let (session, schema) = session();
    for w in snb_queries::ldbc_interactive(&schema).unwrap() {
        let expected = session.oracle(&w.query).unwrap().sorted_rows();
        for mode in [OptimizerMode::UmbraLike, OptimizerMode::KuzuLike] {
            let out = session
                .run(&w.query, mode)
                .unwrap_or_else(|e| panic!("{} under {mode:?}: {e}", w.name));
            assert_eq!(out.table.sorted_rows(), expected, "{} {mode:?}", w.name);
        }
    }
}

#[test]
fn results_are_stable_across_seeds() {
    // Different data seeds produce different results, but each mode still
    // matches the oracle.
    for seed in [1, 99] {
        let (session, schema) = Session::snb(0.04, seed).unwrap();
        let q = snb_queries::ic7(&schema, 5).unwrap();
        let expected = session.oracle(&q).unwrap().sorted_rows();
        for mode in [OptimizerMode::RelGo, OptimizerMode::GRainDb] {
            let out = session.run(&q, mode).unwrap();
            assert_eq!(out.table.sorted_rows(), expected, "seed {seed} {mode:?}");
        }
    }
}
