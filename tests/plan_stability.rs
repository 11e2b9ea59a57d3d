//! Plan stability: every (workload query × optimizer mode) cell must keep
//! producing the plan it produced when `tests/fixtures/plan_stability.txt`
//! was generated.
//!
//! The fixture holds one line per query — `dataset/name` followed by one
//! `Mode=digest` cell per [`OptimizerMode::ALL`] entry — where the digest
//! is the FNV-1a-64 hash of the [`Session::explain`] text (tree shape,
//! bound elements, join keys, `[op=N est=E]`). A cell whose search reported
//! `timed_out` when the fixture was generated is recorded as `timeout`;
//! such cells, and cells that time out in the current run, are skipped and
//! listed, because a fallback plan depends on the clock rather than on the
//! code.
//!
//! Regenerate (only when a plan change is intended and explained):
//! `cargo test --release --test plan_stability -- --ignored regenerate_fixture`.

use relgo::prelude::*;
use relgo::workloads::{job_queries, snb_queries, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/plan_stability.txt"
);
const TIMEOUT_CELL: &str = "timeout";

fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The sessions and every pinned query, named `dataset/name`.
fn suites() -> Vec<(Session, Vec<Workload>)> {
    let (snb, s) = Session::snb(0.05, 42).expect("snb session");
    let mut snb_queries = snb_queries::ldbc_interactive(&s).unwrap();
    snb_queries.extend(snb_queries::qr_queries(&s).unwrap());
    snb_queries.extend(snb_queries::qc_queries(&s).unwrap());
    for w in &mut snb_queries {
        w.name = format!("snb/{}", w.name);
    }
    let (imdb, i) = Session::imdb(0.1, 7).expect("imdb session");
    let mut job = job_queries::job_queries(&i).unwrap();
    for w in &mut job {
        w.name = format!("imdb/{}", w.name);
    }
    vec![(snb, snb_queries), (imdb, job)]
}

/// One cell: the `explain` text of a completed search, or `None` when the
/// search timed out. Renders exactly what [`Session::explain`] renders, from
/// the plan whose `OptStats` said whether the search completed.
fn explain_cell(session: &Session, query: &SpjmQuery, mode: OptimizerMode) -> Option<String> {
    let (plan, opt) = session
        .optimize(query, mode)
        .unwrap_or_else(|e| panic!("optimize under {mode:?}: {e}"));
    if opt.timed_out {
        return None;
    }
    let metas = plan.operator_metas(&session.db());
    Some(plan.explain_annotated(|id| {
        metas
            .get(id)
            .map(|m| format!("  [op={} est={:.0}]", m.op_id, m.est_rows))
            .unwrap_or_default()
    }))
}

fn fixture_line(session: &Session, w: &Workload) -> String {
    let mut line = w.name.clone();
    for mode in OptimizerMode::ALL {
        let cell = match explain_cell(session, &w.query, mode) {
            Some(text) => format!("{:016x}", fnv1a64(&text)),
            None => TIMEOUT_CELL.to_string(),
        };
        write!(line, " {}={cell}", mode.name()).unwrap();
    }
    line
}

#[test]
fn explain_cell_renders_session_explain() {
    let (session, s) = Session::snb(0.03, 42).unwrap();
    let q = snb_queries::ic7(&s, 5).unwrap();
    for mode in [OptimizerMode::RelGo, OptimizerMode::GRainDb] {
        assert_eq!(
            explain_cell(&session, &q, mode).unwrap(),
            session.explain(&q, mode).unwrap()
        );
    }
}

#[test]
fn plans_match_the_fixture() {
    let fixture = std::fs::read_to_string(FIXTURE).expect("fixture is committed");
    let mut expected: BTreeMap<&str, BTreeMap<&str, &str>> = BTreeMap::new();
    for line in fixture.lines().filter(|l| !l.starts_with('#')) {
        let mut parts = line.split(' ');
        let name = parts.next().expect("query name");
        let cells = parts.map(|c| c.split_once('=').expect("Mode=digest"));
        expected.insert(name, cells.collect());
    }

    let mut checked = 0usize;
    let mut skipped = Vec::new();
    let mut mismatches = String::new();
    let mut queries = 0usize;
    for (session, workloads) in suites() {
        for w in &workloads {
            queries += 1;
            let cells = expected
                .get(w.name.as_str())
                .unwrap_or_else(|| panic!("{} is missing from the fixture", w.name));
            for mode in OptimizerMode::ALL {
                let want = cells[mode.name()];
                let got = explain_cell(&session, &w.query, mode);
                match got {
                    Some(text) if want != TIMEOUT_CELL => {
                        checked += 1;
                        let digest = format!("{:016x}", fnv1a64(&text));
                        if digest != want {
                            // The fixture stores digests, not texts: the
                            // parent's text comes from running this test's
                            // `explain` at the fixture's commit.
                            writeln!(
                                mismatches,
                                "{} under {mode:?}: fixture {want}, now {digest}\n{text}",
                                w.name
                            )
                            .unwrap();
                        }
                    }
                    _ => skipped.push(format!("{}:{}", w.name, mode.name())),
                }
            }
        }
    }
    assert_eq!(queries, expected.len(), "fixture has stale query lines");
    println!(
        "plan_stability: {checked} cells pinned, {} skipped (timed out): {}",
        skipped.len(),
        skipped.join(" ")
    );
    assert!(mismatches.is_empty(), "plans changed:\n{mismatches}");
}

#[test]
#[ignore = "rewrites the committed fixture"]
fn regenerate_fixture() {
    let mut out = String::from(
        "# FNV-1a-64 of Session::explain per (query, mode); see tests/plan_stability.rs\n",
    );
    for (session, workloads) in suites() {
        for w in &workloads {
            writeln!(out, "{}", fixture_line(&session, w)).unwrap();
        }
    }
    std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().unwrap()).unwrap();
    std::fs::write(FIXTURE, out).unwrap();
}
