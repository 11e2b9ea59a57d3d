//! Dynamic serving demo: ingest a dynamic-SNB update stream while the same
//! session serves templated IC queries.
//!
//! The walkthrough:
//!
//! 1. a manual ingest batch — insert a person and a knows edge plus the
//!    head of the generated update stream, commit, and watch the epoch
//!    advance, statistics refresh incrementally, and the plan cache
//!    invalidate;
//! 2. snapshot isolation — a reader pinned to the pre-commit epoch keeps
//!    seeing the old data.
//!
//! Answers checked against the oracle while commits race with reads are
//! `tests/concurrent_differential.rs`.
//!
//! Run with: `cargo run --release --example dynamic_serving [-- --quick]`
//! (`RELGO_THREADS=2` additionally gives every query 2 morsel workers.)

use relgo::datagen::snb_update_stream;
use relgo::prelude::*;
use relgo::workloads::templates::snb_templates;

fn main() -> Result<()> {
    let quick = std::env::args().any(|a| a == "--quick");
    let sf = if quick { 0.03 } else { 0.1 };

    println!("generating SNB-like data (sf={sf}) and building the session...");
    let (session, schema) = Session::snb_with(sf, 42, SessionOptions::default())?;
    // IC read templates plus a person/knows update stream whose prefixes
    // are safe to split across commits.
    let templates = snb_templates(&schema);
    let stream = snb_update_stream(&session.db(), 7, 8)?;

    // --- 1. one manual ingest batch -----------------------------------
    let persons = session.db().table("Person")?.num_rows();
    let q = templates[0].instantiate(1)?;
    session.run_cached(&q, OptimizerMode::RelGo)?;
    let warm = session.glogue().cached_patterns();
    let snap = session.snapshot();

    let new_person = 1_000_000i64;
    let mut batch = session.begin_ingest();
    batch.insert_row(
        "Person",
        vec![
            Value::Int(new_person),
            Value::str("Nov"),
            Value::Date(18_600),
        ],
    )?;
    batch.insert_edge(
        "Knows",
        vec![
            Value::Int(2_000_000),
            Value::Int(1),
            Value::Int(new_person),
            Value::Date(18_601),
        ],
    )?;
    // Plus the head of the generated update stream, through the same API.
    for op in &stream {
        batch.insert_row(&op.table, op.row.clone())?;
    }
    let report = batch.commit()?;
    let stream_persons = stream.iter().filter(|o| o.table == "Person").count();
    println!(
        "committed epoch {}: +{} rows into {:?}",
        report.epoch, report.inserted, report.tables
    );
    println!(
        "  statistics refreshed in {:?}: kept {} of {warm} warm pattern counts",
        report.stats_time,
        session.glogue().cached_patterns()
    );
    let out = session.run_cached(&q, OptimizerMode::RelGo)?;
    assert!(!out.cached, "the commit invalidated the cached plan");
    println!("  post-commit run_cached re-optimized (cache was invalidated)");

    // --- 2. snapshot isolation ----------------------------------------
    let new_persons = persons + 1 + stream_persons;
    assert_eq!(snap.epoch(), 0);
    assert_eq!(snap.db().table("Person")?.num_rows(), persons);
    assert_eq!(session.db().table("Person")?.num_rows(), new_persons);
    println!(
        "snapshot pinned to epoch 0 still sees {persons} persons; the live session sees {new_persons}"
    );

    // The unified snapshot folds the ingest counters into the same
    // registry the server's /metrics endpoint scrapes.
    let obs = session.observability_snapshot();
    println!(
        "  observability: epoch {}, {} series, {} ingest commits / {} conflicts / {} rows recorded",
        session.epoch(),
        obs.registry.names().len(),
        obs.registry.counter_sum("relgo_ingest_commits_total"),
        obs.registry.counter_sum("relgo_ingest_conflicts_total"),
        obs.registry.counter_sum("relgo_ingest_rows_total")
    );
    Ok(())
}
