//! Morsel-parallel execution is *bit-identical* to serial execution: the
//! scheduler merges per-morsel outputs in morsel order, so thread count
//! must never change a result — not even row order. Property tests sweep
//! random graphs × random patterns × thread counts (1, 2, 8) through both
//! the indexed and the hash-fallback execution regimes, and through the
//! seed-partitioned homomorphism counter.

use proptest::prelude::*;
use relgo::common::LabelId;
use relgo::common::Schema as CommonSchema;
use relgo::core::spjm::SpjmBuilder;
use relgo::glogue::count_homomorphisms_par;
use relgo::prelude::*;
use relgo_storage::table::TableBuilder;

/// A random two-label property graph description.
#[derive(Debug, Clone)]
struct RandomGraph {
    n_a: usize,
    n_b: usize,
    /// Edges of label X: A → B.
    x_edges: Vec<(usize, usize)>,
    /// Edges of label Y: A → A.
    y_edges: Vec<(usize, usize)>,
}

fn random_graph() -> impl Strategy<Value = RandomGraph> {
    (2usize..6, 2usize..5).prop_flat_map(|(n_a, n_b)| {
        let x = proptest::collection::vec((0..n_a, 0..n_b), 0..12);
        let y = proptest::collection::vec((0..n_a, 0..n_a), 0..10);
        (Just(n_a), Just(n_b), x, y).prop_map(|(n_a, n_b, x_edges, y_edges)| RandomGraph {
            n_a,
            n_b,
            x_edges,
            y_edges: y_edges.into_iter().filter(|(s, t)| s != t).collect(),
        })
    })
}

fn build_session(g: &RandomGraph, threads: usize) -> Session {
    let mut db = Database::new();
    let mut t = TableBuilder::new(
        "A",
        CommonSchema::of(&[("id", DataType::Int), ("score", DataType::Int)]),
    );
    for i in 0..g.n_a {
        t.push_row(vec![Value::Int(i as i64), Value::Int((i % 3) as i64)])
            .unwrap();
    }
    db.add_table(t.finish());
    let mut t = TableBuilder::new(
        "B",
        CommonSchema::of(&[("id", DataType::Int), ("tag", DataType::Int)]),
    );
    for i in 0..g.n_b {
        t.push_row(vec![Value::Int(i as i64), Value::Int((i % 2) as i64)])
            .unwrap();
    }
    db.add_table(t.finish());
    let mut t = TableBuilder::new(
        "X",
        CommonSchema::of(&[
            ("id", DataType::Int),
            ("a", DataType::Int),
            ("b", DataType::Int),
        ]),
    );
    for (i, &(s, d)) in g.x_edges.iter().enumerate() {
        t.push_row(vec![
            Value::Int(i as i64),
            Value::Int(s as i64),
            Value::Int(d as i64),
        ])
        .unwrap();
    }
    db.add_table(t.finish());
    let mut t = TableBuilder::new(
        "Y",
        CommonSchema::of(&[
            ("id", DataType::Int),
            ("s", DataType::Int),
            ("t", DataType::Int),
        ]),
    );
    for (i, &(s, d)) in g.y_edges.iter().enumerate() {
        t.push_row(vec![
            Value::Int(i as i64),
            Value::Int(s as i64),
            Value::Int(d as i64),
        ])
        .unwrap();
    }
    db.add_table(t.finish());
    db.set_primary_key("A", "id").unwrap();
    db.set_primary_key("B", "id").unwrap();
    db.set_primary_key("X", "id").unwrap();
    db.set_primary_key("Y", "id").unwrap();
    let mapping = RGMapping::new()
        .vertex("A")
        .vertex("B")
        .edge("X", "a", "A", "b", "B")
        .edge("Y", "s", "A", "t", "A");
    let options = SessionOptions {
        threads,
        ..SessionOptions::default()
    };
    Session::open_with(db, mapping, options).expect("session")
}

/// A small random connected pattern over labels A(0)/B(1), X(0)/Y(1).
#[derive(Debug, Clone)]
enum PatternShape {
    /// A --X--> B
    EdgeX,
    /// A -Y-> A -X-> B path
    Path,
    /// (a1)-X->(b), (a2)-X->(b) wedge
    Wedge,
    /// (a1)-Y->(a2), (a1)-X->(b), (a2)-X->(b) triangle
    Triangle,
    /// A -Y-> A -Y-> A
    YPath,
}

fn pattern_of(shape: &PatternShape) -> Pattern {
    let a = LabelId(0);
    let b = LabelId(1);
    let x = LabelId(0);
    let y = LabelId(1);
    let mut pb = PatternBuilder::new();
    match shape {
        PatternShape::EdgeX => {
            let v0 = pb.vertex("a", a);
            let v1 = pb.vertex("b", b);
            pb.edge(v0, v1, x).unwrap();
        }
        PatternShape::Path => {
            let v0 = pb.vertex("a1", a);
            let v1 = pb.vertex("a2", a);
            let v2 = pb.vertex("b", b);
            pb.edge(v0, v1, y).unwrap();
            pb.edge(v1, v2, x).unwrap();
        }
        PatternShape::Wedge => {
            let v0 = pb.vertex("a1", a);
            let v1 = pb.vertex("a2", a);
            let v2 = pb.vertex("b", b);
            pb.edge(v0, v2, x).unwrap();
            pb.edge(v1, v2, x).unwrap();
        }
        PatternShape::Triangle => {
            let v0 = pb.vertex("a1", a);
            let v1 = pb.vertex("a2", a);
            let v2 = pb.vertex("b", b);
            pb.edge(v0, v1, y).unwrap();
            pb.edge(v0, v2, x).unwrap();
            pb.edge(v1, v2, x).unwrap();
        }
        PatternShape::YPath => {
            let v0 = pb.vertex("a1", a);
            let v1 = pb.vertex("a2", a);
            let v2 = pb.vertex("a3", a);
            pb.edge(v0, v1, y).unwrap();
            pb.edge(v1, v2, y).unwrap();
        }
    }
    pb.build().unwrap()
}

fn shapes() -> impl Strategy<Value = PatternShape> {
    prop_oneof![
        Just(PatternShape::EdgeX),
        Just(PatternShape::Path),
        Just(PatternShape::Wedge),
        Just(PatternShape::Triangle),
        Just(PatternShape::YPath),
    ]
}

fn query_for(pattern: Pattern, with_filter: bool) -> SpjmQuery {
    let n = pattern.vertex_count();
    let mut b = SpjmBuilder::new(pattern);
    for v in 0..n {
        b.vertex_id(v, &format!("v{v}_id"));
    }
    // Also project an attribute of vertex 0 so FilterIntoMatch has a target.
    let attr = b.vertex_column(0, 1, "v0_attr");
    if with_filter {
        b.select(ScalarExpr::col_eq(attr, 1i64));
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn parallel_execution_is_bit_identical_to_serial(
        g in random_graph(),
        shape in shapes(),
        filt in any::<bool>(),
    ) {
        let serial = build_session(&g, 1);
        let query = query_for(pattern_of(&shape), filt);
        // RelGo exercises the indexed expansions, RelGoHash the hash-
        // fallback adjacency (flat multimap) path.
        for mode in [OptimizerMode::RelGo, OptimizerMode::RelGoHash] {
            let base = serial.run(&query, mode).unwrap();
            for threads in [2usize, 8] {
                let par = build_session(&g, threads);
                let out = par.run(&query, mode).unwrap();
                prop_assert!(
                    base.table.bit_identical(&out.table),
                    "{:?} with {} threads diverges on {:?}",
                    mode, threads, shape
                );
            }
        }
        // And the parallel run still agrees with the oracle.
        let par = build_session(&g, 8);
        let expected = serial.oracle(&query).unwrap().sorted_rows();
        prop_assert_eq!(par.run(&query, OptimizerMode::RelGo).unwrap().table.sorted_rows(), expected);
    }

    #[test]
    fn parallel_counting_is_count_identical_to_serial(
        g in random_graph(),
        shape in shapes(),
        stride in 1usize..4,
    ) {
        let session = build_session(&g, 1);
        let pattern = pattern_of(&shape);
        let view = session.view();
        let serial = count_homomorphisms_par(&view, &pattern, stride, 1).unwrap();
        for threads in [2usize, 8] {
            let par = count_homomorphisms_par(&view, &pattern, stride, threads).unwrap();
            prop_assert_eq!(par, serial, "{} threads, stride {}", threads, stride);
        }
    }
}

#[test]
fn parallel_session_composes_with_plan_cache() {
    // run_cached on a threads>1 session: hits rebind and execute in
    // parallel; results equal the serial cold run.
    let g = RandomGraph {
        n_a: 5,
        n_b: 4,
        x_edges: vec![(0, 1), (1, 1), (2, 3), (4, 0), (3, 2), (1, 0)],
        y_edges: vec![(0, 1), (1, 2), (2, 0), (3, 4)],
    };
    let serial = build_session(&g, 1);
    let par = build_session(&g, 4);
    let query = query_for(pattern_of(&PatternShape::Triangle), false);
    let base = serial.run(&query, OptimizerMode::RelGo).unwrap();
    let cold = par.run_cached(&query, OptimizerMode::RelGo).unwrap();
    let warm = par.run_cached(&query, OptimizerMode::RelGo).unwrap();
    assert!(!cold.cached);
    assert!(warm.cached);
    assert!(base.table.bit_identical(&cold.table));
    assert!(base.table.bit_identical(&warm.table));
}
