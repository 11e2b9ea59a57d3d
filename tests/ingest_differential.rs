//! Randomized differential testing of the ingest subsystem.
//!
//! The core property: a session that ingests a randomized delta stream
//! (person/knows/likes inserts, edge-row deletes and the deletion of
//! stream-inserted persons, split across several commits) returns
//! **bit-identical** rows to a fresh session built from the final merged
//! dataset — across all three execution regimes
//! (`run`, `run_cached`, prepared `execute`), both optimizer modes, and 1/4 intra-query threads. Any divergence is an
//! incremental-maintenance bug: the merged tables, the label-shared graph
//! index, or the carried-over GLogue statistics disagree with a
//! from-scratch build.
//!
//! A second property pins the statistics themselves: after an arbitrary
//! committed delta stream, `GraphStats` and warm GLogue pattern counts must
//! equal a from-scratch recompute on the merged data: the incremental
//! refresh every commit runs is exact.
//!
//! A third property exercises the MVCC write path: N threads commit
//! overlapping randomized batches concurrently; per contested primary key
//! exactly one commit wins, every loser observes the retryable typed
//! `CommitError::Conflict`, and the surviving state is bit-identical to a
//! serial replay of the winning commits in epoch order.
//!
//! Plain tests cover snapshot isolation: a reader pinned to an old epoch
//! sees neither uncommitted nor later-committed rows.

#[path = "support/regimes.rs"]
mod regimes;

use proptest::prelude::*;
use regimes::assert_regimes_match;
use relgo::prelude::*;
use relgo::workloads::templates::snb_templates;
use relgo_storage::Database;
use std::sync::OnceLock;

/// One delta-stream operation (prefix-safe: generated so that any split of
/// the stream into ordered commits is valid under [`apply_ops`]).
#[derive(Debug, Clone)]
enum Op {
    Insert(&'static str, Vec<Value>),
    Delete(&'static str, i64),
}

/// The shared base dataset (building data dominates test time; sessions are
/// rebuilt per case from clones of this).
fn base() -> &'static (Database, relgo::graph::RGMapping) {
    static CELL: OnceLock<(Database, relgo::graph::RGMapping)> = OnceLock::new();
    CELL.get_or_init(|| {
        let (db, mapping) =
            relgo::datagen::generate_snb(&relgo::datagen::SnbParams { sf: 0.03, seed: 42 });
        (db, mapping)
    })
}

fn max_key(db: &Database, table: &str) -> i64 {
    let t = db.table(table).unwrap();
    (0..t.num_rows() as u32)
        .filter_map(|r| t.value(r, 0).as_int())
        .max()
        .unwrap_or(-1)
}

/// Deterministic randomized delta stream over the base dataset: person,
/// knows and likes inserts, knows/likes edge-row deletes, and the retirement
/// of a stream-inserted person — its stream-inserted knows and likes rows
/// first, then the person row itself, which shifts every later Person row.
fn gen_ops(db: &Database, seed: u64, n: usize) -> Vec<Op> {
    // SplitMix64 (self-contained so the stream is stable regardless of the
    // vendored rand shim's evolution).
    let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    let n_person = db.table("Person").unwrap().num_rows() as i64;
    let n_message = db.table("Message").unwrap().num_rows() as i64;
    let mut next_person = max_key(db, "Person") + 1;
    let mut next_knows = max_key(db, "Knows") + 1;
    let mut next_likes = max_key(db, "Likes") + 1;
    let mut persons: Vec<i64> = (0..n_person).collect();
    let mut deletable_knows: Vec<i64> = (0..=max_key(db, "Knows")).collect();
    let mut deletable_likes: Vec<i64> = (0..=max_key(db, "Likes")).collect();
    // Stream-inserted persons still alive, and the stream-inserted edges a
    // retirement must delete first: (table, key, the persons it touches).
    let mut stream_persons: Vec<i64> = Vec::new();
    let mut stream_edges: Vec<(&'static str, i64, [i64; 2])> = Vec::new();
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        match next() % 8 {
            0 | 1 => {
                let id = next_person;
                next_person += 1;
                ops.push(Op::Insert(
                    "Person",
                    vec![
                        Value::Int(id),
                        Value::str(format!("delta_{id}")),
                        Value::Date(18_000 + (next() % 500) as i64),
                    ],
                ));
                persons.push(id);
                stream_persons.push(id);
            }
            2 | 3 => {
                let p = persons[(next() % persons.len() as u64) as usize];
                let mut q = persons[(next() % persons.len() as u64) as usize];
                if q == p {
                    q = persons
                        [(persons.iter().position(|&x| x == p).unwrap() + 1) % persons.len()];
                }
                if q == p {
                    continue;
                }
                let id = next_knows;
                next_knows += 1;
                stream_edges.push(("Knows", id, [p, q]));
                ops.push(Op::Insert(
                    "Knows",
                    vec![
                        Value::Int(id),
                        Value::Int(p),
                        Value::Int(q),
                        Value::Date(18_000 + (next() % 500) as i64),
                    ],
                ));
            }
            4 => {
                let p = persons[(next() % persons.len() as u64) as usize];
                let m = (next() % n_message as u64) as i64;
                let id = next_likes;
                next_likes += 1;
                stream_edges.push(("Likes", id, [p, p]));
                ops.push(Op::Insert(
                    "Likes",
                    vec![
                        Value::Int(id),
                        Value::Int(p),
                        Value::Int(m),
                        Value::Date(18_000 + (next() % 500) as i64),
                    ],
                ));
            }
            // The oldest stream person, while a later one follows it: its
            // deletion shifts that one's row.
            6 | 7 if stream_persons.len() >= 2 => {
                let p = stream_persons.remove(0);
                stream_edges.retain(|&(table, id, persons)| {
                    let incident = persons.contains(&p);
                    if incident {
                        ops.push(Op::Delete(table, id));
                    }
                    !incident
                });
                ops.push(Op::Delete("Person", p));
                persons.retain(|&x| x != p);
            }
            5 if !deletable_knows.is_empty() => {
                let i = (next() % deletable_knows.len() as u64) as usize;
                ops.push(Op::Delete("Knows", deletable_knows.swap_remove(i)));
            }
            _ if !deletable_likes.is_empty() => {
                let i = (next() % deletable_likes.len() as u64) as usize;
                ops.push(Op::Delete("Likes", deletable_likes.swap_remove(i)));
            }
            _ => {}
        }
    }
    ops
}

/// Apply `ops` split into `commits` ordered batches. A batch's tombstones
/// resolve against its base epoch, so a delete of a row the open batch
/// itself inserted commits that batch first and goes into the next one.
fn apply_ops(session: &Session, ops: &[Op], commits: usize) -> Vec<IngestReport> {
    let commits = commits.clamp(1, ops.len().max(1));
    let per = ops.len().div_ceil(commits);
    let mut reports = Vec::new();
    for chunk in ops.chunks(per.max(1)) {
        let mut batch = session.begin_ingest();
        let mut inserted: Vec<(&str, i64)> = Vec::new();
        for op in chunk {
            match op {
                Op::Insert(table, row) => {
                    inserted.push((table, row[0].as_int().unwrap()));
                    batch.insert_row(table, row.clone()).unwrap();
                }
                Op::Delete(table, key) => {
                    if inserted.contains(&(table, *key)) {
                        reports.push(batch.commit().unwrap());
                        batch = session.begin_ingest();
                        inserted.clear();
                    }
                    batch.delete_row(table, *key).unwrap();
                }
            }
        }
        reports.push(batch.commit().unwrap());
    }
    reports
}

fn options(threads: usize) -> SessionOptions {
    SessionOptions {
        threads,
        ..SessionOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The headline differential: ingest ≡ fresh across regimes, modes and
    /// thread counts.
    #[test]
    fn ingested_session_matches_fresh_session(
        seed in 0u64..1_000,
        n_ops in 1usize..14,
        commits in 1usize..4,
        template_idx in 0usize..5,
        draw in 0u64..40,
    ) {
        let (db, mapping) = base();
        let ops = gen_ops(db, seed, n_ops);
        let mut per_threads: Vec<Table> = Vec::new();
        for threads in [1usize, 4] {
            let (ingested, schema) = {
                let session = Session::open_with(
                    db.clone(),
                    mapping.clone(),
                    options(threads),
                ).unwrap();
                let schema = SnbSchema::resolve(session.view().schema()).unwrap();
                (session, schema)
            };
            // Warm caches/statistics *before* the delta so the commit path
            // has real state to maintain.
            let t = &snb_templates(&schema)[template_idx];
            ingested.run_cached(&t.instantiate(draw).unwrap(), OptimizerMode::RelGo).unwrap();
            let reports = apply_ops(&ingested, &ops, commits);
            prop_assert!(reports.last().unwrap().epoch >= 1);
            let fresh = Session::open_with(
                (*ingested.db()).clone(),
                mapping.clone(),
                options(threads),
            ).unwrap();
            for mode in [OptimizerMode::RelGo, OptimizerMode::GRainDb] {
                let q = t.instantiate(draw).unwrap();
                let expected = fresh.run(&q, mode).unwrap().table;
                assert_regimes_match(&ingested, t, draw, mode, &expected, "a fresh session");
                if mode == OptimizerMode::RelGo {
                    per_threads.push(expected);
                }
            }
        }
        prop_assert!(
            per_threads[0].bit_identical(&per_threads[1]),
            "1-thread and 4-thread results diverge"
        );
    }

    /// Statistics equality: after an arbitrary committed delta stream, the
    /// label statistics and warm GLogue pattern counts equal a from-scratch
    /// recompute over the merged data.
    #[test]
    fn delta_statistics_equal_recompute(
        seed in 0u64..1_000,
        n_ops in 1usize..16,
        commits in 1usize..3,
    ) {
        use relgo::pattern::PatternBuilder;

        let (db, mapping) = base();
        let ops = gen_ops(db, seed, n_ops);
        let session = Session::open_with(db.clone(), mapping.clone(), options(1)).unwrap();
        let schema = SnbSchema::resolve(session.view().schema()).unwrap();

        // Small probe patterns over the labels the delta touches (and one
        // it never touches).
        let patterns = {
            let mut out = Vec::new();
            let mut b = PatternBuilder::new();
            b.vertex("p", schema.person);
            out.push(b.build().unwrap());
            let mut b = PatternBuilder::new();
            let p1 = b.vertex("p1", schema.person);
            let p2 = b.vertex("p2", schema.person);
            b.edge(p1, p2, schema.knows).unwrap();
            out.push(b.build().unwrap());
            let mut b = PatternBuilder::new();
            let p = b.vertex("p", schema.person);
            let m = b.vertex("m", schema.message);
            b.edge(p, m, schema.likes).unwrap();
            out.push(b.build().unwrap());
            let mut b = PatternBuilder::new();
            let t = b.vertex("t", schema.tag);
            let c = b.vertex("c", schema.tagclass);
            b.edge(t, c, schema.tag_has_type).unwrap();
            out.push(b.build().unwrap());
            out
        };
        // Warm the GLogue before the delta: retained counts must survive
        // the commit *and* still be correct.
        for p in &patterns {
            session.glogue().cardinality(p).unwrap();
        }
        apply_ops(&session, &ops, commits);

        let fresh = Session::open_with((*session.db()).clone(), mapping.clone(), options(1)).unwrap();
        // Label statistics match exactly.
        let got = session.glogue();
        let want = fresh.glogue();
        let stats = got.graph_stats();
        let fresh_stats = want.graph_stats();
        let nv = fresh.view().schema().vertex_label_count();
        let ne = fresh.view().schema().edge_label_count();
        for l in 0..nv as u16 {
            let l = relgo::common::LabelId(l);
            prop_assert_eq!(stats.vertex_count(l), fresh_stats.vertex_count(l));
        }
        for l in 0..ne as u16 {
            let l = relgo::common::LabelId(l);
            prop_assert_eq!(stats.edge_count(l), fresh_stats.edge_count(l));
            for dir in [relgo::graph::Direction::Out, relgo::graph::Direction::In] {
                let a = stats.avg_degree(l, dir);
                let b = fresh_stats.avg_degree(l, dir);
                prop_assert!((a - b).abs() < 1e-12, "avg degree {l:?} {dir:?}: {a} vs {b}");
            }
        }
        // Pattern counts match a from-scratch recompute.
        for p in &patterns {
            let a = got.cardinality(p).unwrap();
            let b = want.cardinality(p).unwrap();
            prop_assert!((a - b).abs() < 1e-9, "pattern count {a} vs {b}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// MVCC first-committer-wins: N writer threads stage batches against the
    /// same base epoch — disjoint private rows plus one contested row per
    /// conflict group — and commit simultaneously. Exactly one writer per
    /// group wins; every loser gets the typed retryable conflict naming the
    /// contested key; and the surviving state is bit-identical to a serial
    /// replay of the winning batches in commit (epoch) order.
    #[test]
    fn concurrent_writers_one_winner_per_contested_key(
        writers in 2usize..5,
        groups in 1usize..3,
        private_rows in 1usize..5,
        template_idx in 0usize..5,
        draw in 0u64..40,
    ) {
        const SHARED: i64 = 5_000_000;
        const PRIVATE: i64 = 6_000_000;

        let (db, mapping) = base();
        let groups = groups.min(writers);
        let session = Session::open_with(db.clone(), mapping.clone(), options(1)).unwrap();
        let schema = SnbSchema::resolve(session.view().schema()).unwrap();
        let barrier = std::sync::Barrier::new(writers);

        // Each writer stages against epoch 0; the barrier sits between
        // staging and commit so nobody validates against an already-published
        // competitor by accident of scheduling.
        let results: Vec<(usize, Vec<Op>, std::result::Result<IngestReport, CommitError>)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..writers)
                    .map(|w| {
                        let (session, barrier) = (&session, &barrier);
                        scope.spawn(move || {
                            let group = w % groups;
                            let mut staged: Vec<Op> = Vec::new();
                            let mut batch = session.begin_ingest();
                            for i in 0..private_rows {
                                let row = vec![
                                    Value::Int(PRIVATE + (w * 100 + i) as i64),
                                    Value::str(format!("w{w}_r{i}")),
                                    Value::Date(18_000 + i as i64),
                                ];
                                batch.insert_row("Person", row.clone()).unwrap();
                                staged.push(Op::Insert("Person", row));
                            }
                            // The contested row: identical for every writer in
                            // the group, so the survivor is the same no matter
                            // which thread wins the race.
                            let contested = vec![
                                Value::Int(SHARED + group as i64),
                                Value::str(format!("group_{group}")),
                                Value::Date(18_500),
                            ];
                            batch.insert_row("Person", contested.clone()).unwrap();
                            staged.push(Op::Insert("Person", contested));
                            barrier.wait();
                            (group, staged, batch.commit())
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });

        let mut winners: Vec<(u64, &Vec<Op>)> = Vec::new();
        let mut winners_per_group = vec![0usize; groups];
        for (group, staged, result) in &results {
            match result {
                Ok(report) => {
                    winners.push((report.epoch, staged));
                    winners_per_group[*group] += 1;
                }
                Err(err) => {
                    prop_assert!(err.is_conflict(), "losers must see a retryable error: {err}");
                    match err {
                        CommitError::Conflict { table, key, committed_epoch } => {
                            prop_assert_eq!(table.as_str(), "Person");
                            prop_assert_eq!(*key, SHARED + *group as i64);
                            prop_assert!(*committed_epoch >= 1);
                        }
                        other => prop_assert!(false, "expected Conflict, got {other:?}"),
                    }
                }
            }
        }
        // Exactly one winner per conflict group, losers everywhere else.
        prop_assert_eq!(&winners_per_group, &vec![1usize; groups]);
        prop_assert_eq!(winners.len(), groups);
        prop_assert_eq!(session.epoch(), groups as u64);

        // Serial replay of the winning batches in commit order reproduces the
        // surviving state bit-for-bit — tables and query results alike.
        let oracle = Session::open_with(db.clone(), mapping.clone(), options(1)).unwrap();
        winners.sort_by_key(|(epoch, _)| *epoch);
        for (_, staged) in &winners {
            let mut batch = oracle.begin_ingest();
            for op in staged.iter() {
                match op {
                    Op::Insert(table, row) => batch.insert_row(table, row.clone()).unwrap(),
                    Op::Delete(table, key) => batch.delete_row(table, *key).unwrap(),
                }
            }
            batch.commit().unwrap();
        }
        prop_assert_eq!(oracle.epoch(), session.epoch());
        {
            let live = session.db();
            let replayed = oracle.db();
            for name in ["Person", "Knows", "Likes"] {
                prop_assert!(
                    live.table(name).unwrap().bit_identical(replayed.table(name).unwrap()),
                    "table {} diverges from serial replay of the winners",
                    name
                );
            }
        }
        let t = &snb_templates(&schema)[template_idx];
        let q = t.instantiate(draw).unwrap();
        for mode in [OptimizerMode::RelGo, OptimizerMode::GRainDb] {
            let want = oracle.run(&q, mode).unwrap().table;
            let got = session.run(&q, mode).unwrap().table;
            prop_assert!(want.bit_identical(&got), "{} run diverges", mode.name());
            let cached = session.run_cached(&q, mode).unwrap().table;
            prop_assert!(want.bit_identical(&cached), "{} run_cached diverges", mode.name());
        }
    }
}

/// A reader pinned to an old epoch sees neither uncommitted nor
/// later-committed rows — and its query results stay frozen too.
#[test]
fn snapshot_isolation_pins_query_results() {
    let (db, mapping) = base();
    let (session, schema) = {
        let s = Session::open_with(db.clone(), mapping.clone(), options(1)).unwrap();
        let schema = SnbSchema::resolve(s.view().schema()).unwrap();
        (s, schema)
    };
    let t = &snb_templates(&schema)[0]; // IC1-2 over Knows
    let q = t.instantiate(3).unwrap();
    let snap = session.snapshot();
    let frozen = snap.run(&q, OptimizerMode::RelGo).unwrap().table;

    // Uncommitted rows are invisible to everyone.
    let ops = gen_ops(db, 9, 10);
    let mut batch = session.begin_ingest();
    for op in &ops {
        match op {
            Op::Insert(table, row) => batch.insert_row(table, row.clone()).unwrap(),
            Op::Delete(table, key) => batch.delete_row(table, *key).unwrap(),
        }
    }
    assert!(frozen.bit_identical(&session.run(&q, OptimizerMode::RelGo).unwrap().table));
    batch.commit().unwrap();

    // The pinned snapshot still serves the old epoch, bit-for-bit — through
    // the direct, cached and oracle paths.
    assert_eq!(snap.epoch(), 0);
    assert_eq!(session.epoch(), 1);
    assert!(frozen.bit_identical(&snap.run(&q, OptimizerMode::RelGo).unwrap().table));
    assert!(frozen.bit_identical(&snap.run_cached(&q, OptimizerMode::RelGo).unwrap().table));
    assert_eq!(frozen.sorted_rows(), snap.oracle(&q).unwrap().sorted_rows());
    // A fresh snapshot sees the new epoch.
    assert_eq!(session.snapshot().epoch(), 1);
}

/// Replacing a vertex row: one batch deletes a Person that Knows and Likes
/// edges still reference and inserts a row with the same key. λ stays total
/// (every edge resolves to the new row), so the commit succeeds, and every
/// template reads the replacement exactly as a fresh session over the merged
/// data does.
#[test]
fn replacing_a_referenced_person_matches_a_fresh_session() {
    let (db, mapping) = base();
    let session = Session::open_with(db.clone(), mapping.clone(), options(1)).unwrap();
    let schema = SnbSchema::resolve(session.view().schema()).unwrap();
    let templates = snb_templates(&schema);
    // The person keys in columns `cols` of an edge table.
    let persons = |table: &str, cols: &[usize]| {
        let t = db.table(table).unwrap();
        (0..t.num_rows() as u32)
            .flat_map(|r| cols.iter().filter_map(move |&c| t.value(r, c).as_int()))
            .collect::<Vec<i64>>()
    };
    let (knows, likes) = (persons("Knows", &[1, 2]), persons("Likes", &[1]));
    // A person the templates draw (keys 0..20), not the first row, with
    // edges of both labels.
    let p = (1..20)
        .find(|p| knows.contains(p) && likes.contains(p))
        .expect("a person with Knows and Likes edges");
    for t in &templates {
        let q = t.instantiate(p as u64).unwrap();
        session.run_cached(&q, OptimizerMode::RelGo).unwrap();
    }

    let mut batch = session.begin_ingest();
    batch.delete_row("Person", p).unwrap();
    let row = vec![Value::Int(p), Value::str("replaced"), Value::Date(18_321)];
    batch.insert_row("Person", row).unwrap();
    assert_eq!(batch.commit().unwrap().epoch, 1);

    let fresh = Session::open_with((*session.db()).clone(), mapping.clone(), options(1)).unwrap();
    for t in &templates {
        for draw in [p as u64, p as u64 + 20, 0] {
            for mode in [OptimizerMode::RelGo, OptimizerMode::GRainDb] {
                let want = fresh
                    .run(&t.instantiate(draw).unwrap(), mode)
                    .unwrap()
                    .table;
                assert_regimes_match(&session, t, draw, mode, &want, "a fresh session");
            }
        }
    }
}

/// A commit keeps the warm pattern counts whose labels the delta misses
/// and evicts the rest.
#[test]
fn commit_keeps_the_warm_counts_the_delta_misses() {
    let (db, mapping) = base();
    let session = Session::open_with(db.clone(), mapping.clone(), options(1)).unwrap();
    let schema = SnbSchema::resolve(session.view().schema()).unwrap();
    let t = &snb_templates(&schema)[1]; // IC2 (knows + has_creator)
    session
        .run(&t.instantiate(0).unwrap(), OptimizerMode::RelGo)
        .unwrap();
    let warm = session.glogue().cached_patterns();

    let ops = gen_ops(db, 5, 6);
    let report = apply_ops(&session, &ops, 1).pop().unwrap();
    let kept = session.glogue().cached_patterns();
    assert!(0 < kept, "warm counts the delta misses survive");
    assert!(kept < warm, "counts over touched labels are evicted");
    assert!(report.commit_time >= report.stats_time);
}
