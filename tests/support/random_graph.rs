//! The random property graph the property tests and the parallel-execution
//! tests draw from: two vertex labels, two edge labels, a handful of rows,
//! and the small connected patterns queried over it. Included by each test
//! binary that uses it through `#[path]`.

use proptest::prelude::*;
use relgo::common::LabelId;
use relgo::common::Schema as CommonSchema;
use relgo::core::spjm::SpjmBuilder;
use relgo::prelude::*;
use relgo_storage::table::TableBuilder;

/// A random two-label property graph description.
#[derive(Debug, Clone)]
pub struct RandomGraph {
    pub n_a: usize,
    pub n_b: usize,
    /// Edges of label X: A → B.
    pub x_edges: Vec<(usize, usize)>,
    /// Edges of label Y: A → A.
    pub y_edges: Vec<(usize, usize)>,
}

pub fn random_graph() -> impl Strategy<Value = RandomGraph> {
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

/// `g` as tables `A`, `B`, `X`, `Y` behind a session opened with `options`.
pub fn build_session(g: &RandomGraph, options: SessionOptions) -> Session {
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
    Session::open_with(db, mapping, options).expect("session")
}

/// A small random connected pattern over labels A(0)/B(1), X(0)/Y(1).
#[derive(Debug, Clone)]
pub enum PatternShape {
    /// A --X--> B
    EdgeX,
    /// A --Y--> A
    EdgeY,
    /// A -Y-> A -X-> B path
    Path,
    /// (a1)-X->(b), (a2)-X->(b) wedge
    Wedge,
    /// (a1)-Y->(a2), (a1)-X->(b), (a2)-X->(b) triangle
    Triangle,
    /// A -Y-> A -Y-> A
    YPath,
}

pub fn pattern_of(shape: &PatternShape) -> Pattern {
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
        PatternShape::EdgeY => {
            let v0 = pb.vertex("a1", a);
            let v1 = pb.vertex("a2", a);
            pb.edge(v0, v1, y).unwrap();
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

pub fn shapes() -> impl Strategy<Value = PatternShape> {
    prop_oneof![
        Just(PatternShape::EdgeX),
        Just(PatternShape::EdgeY),
        Just(PatternShape::Path),
        Just(PatternShape::Wedge),
        Just(PatternShape::Triangle),
        Just(PatternShape::YPath),
    ]
}

pub fn query_for(pattern: Pattern, with_filter: bool) -> SpjmQuery {
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
