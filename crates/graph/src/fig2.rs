//! The paper's running example: Fig. 2's Person / Message / Likes / Knows
//! graph, the data Fig. 1's query runs over.
//!
//! Three persons (Tom, Bob, David), two messages (m1, m2), four `Likes`
//! edges (Tom→m1, Bob→m1, Bob→m2, David→m2) and four `Knows` edges (Tom↔Bob,
//! Bob↔David). `Place` is a plain relation outside the graph that Fig. 1
//! joins through `Person.place_id`. Unit tests across the workspace build on
//! it; a test that needs other data starts from [`database`] and replaces
//! the tables it changes.

use crate::mapping::RGMapping;
use crate::view::GraphView;
use relgo_common::{DataType, Value};
use relgo_storage::table::table_of;
use relgo_storage::Database;

/// The five tables, each with its primary key declared.
pub fn database() -> Database {
    let mut db = Database::new();
    db.add_table(table_of(
        "Person",
        &[
            ("person_id", DataType::Int),
            ("name", DataType::Str),
            ("place_id", DataType::Int),
        ],
        vec![
            vec![1.into(), "Tom".into(), 10.into()],
            vec![2.into(), "Bob".into(), 20.into()],
            vec![3.into(), "David".into(), 30.into()],
        ],
    ));
    db.add_table(table_of(
        "Message",
        &[("message_id", DataType::Int), ("content", DataType::Str)],
        vec![vec![100.into(), "m1".into()], vec![200.into(), "m2".into()]],
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
    db.add_table(table_of(
        "Place",
        &[("id", DataType::Int), ("pname", DataType::Str)],
        vec![
            vec![10.into(), "Germany".into()],
            vec![20.into(), "Denmark".into()],
            vec![30.into(), "China".into()],
        ],
    ));
    for (table, pk) in [
        ("Person", "person_id"),
        ("Message", "message_id"),
        ("Likes", "likes_id"),
        ("Knows", "knows_id"),
        ("Place", "id"),
    ] {
        db.set_primary_key(table, pk).unwrap();
    }
    db
}

/// Vertex labels Person (0) and Message (1); edge labels Likes (0,
/// Person → Message) and Knows (1, Person → Person).
pub fn mapping() -> RGMapping {
    RGMapping::new()
        .vertex("Person")
        .vertex("Message")
        .edge("Likes", "pid", "Person", "mid", "Message")
        .edge("Knows", "pid1", "Person", "pid2", "Person")
}

/// The view of [`mapping`] over [`database`], graph index built, and the
/// database it resolved against.
pub fn view() -> (GraphView, Database) {
    let mut db = database();
    let mut view = GraphView::build(&mut db, mapping()).unwrap();
    view.build_index().unwrap();
    (view, db)
}

/// [`database`] and [`mapping`] plus an edge label `Bad` (Person → Message,
/// primary key `bad_id` = row + 1) whose rows carry the `(pid, mid)` keys
/// given, each valid, dangling or NULL: the fixture for λ totality.
pub fn with_bad_edges(keys: Vec<[Value; 2]>) -> (Database, RGMapping) {
    let mut db = database();
    let rows = (1..)
        .zip(keys)
        .map(|(id, [pid, mid])| vec![Value::Int(id), pid, mid]);
    db.add_table(table_of(
        "Bad",
        &[
            ("bad_id", DataType::Int),
            ("pid", DataType::Int),
            ("mid", DataType::Int),
        ],
        rows.collect(),
    ));
    db.set_primary_key("Bad", "bad_id").unwrap();
    (db, mapping().edge("Bad", "pid", "Person", "mid", "Message"))
}
