//! End-to-end test of the `relgo-server` binary: spin it on an ephemeral
//! port, hit every endpoint from concurrent clients, check row identity
//! against an in-process oracle session built from the same `(sf, seed)`,
//! and reconcile the `/metrics` scrape against client-side tallies.
//!
//! A second, in-process test drives [`relgo_server::Server`] directly with
//! a deliberately tight config to pin down admission control, row-budget
//! rejection, and drain accounting deterministically.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

use relgo::prelude::*;
use relgo::workloads::templates::snb_templates;
use relgo_metrics::text;
use relgo_server::{wire, Server, ServerConfig};

const SF: f64 = 0.03;
const SEED: u64 = 7;

/// One blocking HTTP exchange: request out, `(status, body)` back.
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has header/body split");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, body.to_string())
}

/// Decode a 200 query response: meta line + wire-encoded rows.
fn decode_query_body(body: &str) -> (String, Vec<Vec<Value>>) {
    let mut lines = body.lines();
    let meta = lines.next().expect("meta line").to_string();
    assert!(meta.starts_with("ok rows="), "unexpected meta: {meta}");
    let mut rows: Vec<Vec<Value>> = lines
        .map(|l| wire::decode_row(l).expect("row decodes"))
        .collect();
    rows.sort();
    (meta, rows)
}

struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    fn spawn() -> ServerProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_relgo-server"))
            .args([
                "--sf",
                &SF.to_string(),
                "--seed",
                &SEED.to_string(),
                "--addr",
                "127.0.0.1:0",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn relgo-server");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("startup line");
        let addr = line
            .trim()
            .strip_prefix("listening on http://")
            .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
            .to_string();
        ServerProc { child, addr }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Normal exits go through POST /shutdown; this is the crashed-test
        // safety net so a failing assert never leaks a child process.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn server_round_trips_against_in_process_oracle() {
    let server = ServerProc::spawn();
    let addr = server.addr.clone();
    let (oracle, schema) = Session::snb(SF, SEED).expect("oracle session");
    let templates = snb_templates(&schema);

    let queries_sent = AtomicU64::new(0);
    let rows_received = AtomicU64::new(0);

    // --- concurrent templated queries, row-identical to the oracle ------
    std::thread::scope(|scope| {
        for worker in 0..3u64 {
            let (addr, oracle, templates) = (&addr, &oracle, &templates);
            let (queries_sent, rows_received) = (&queries_sent, &rows_received);
            scope.spawn(move || {
                for (t, template) in templates.iter().enumerate() {
                    for draw in [worker, worker + 10] {
                        let mode = if (t as u64 + draw).is_multiple_of(2) {
                            OptimizerMode::RelGo
                        } else {
                            OptimizerMode::DuckDbLike
                        };
                        let path = format!(
                            "/query?template={}&draw={draw}&mode={}&tenant=w{worker}",
                            template.name(),
                            mode.name()
                        );
                        let (status, body) = http(addr, "POST", &path, "");
                        queries_sent.fetch_add(1, Ordering::Relaxed);
                        assert_eq!(status, 200, "query failed: {body}");
                        let (_, rows) = decode_query_body(&body);
                        rows_received.fetch_add(rows.len() as u64, Ordering::Relaxed);
                        let query = template.instantiate(draw).unwrap();
                        let expected = oracle.run(&query, mode).unwrap().table.sorted_rows();
                        assert_eq!(rows, expected, "{} draw {draw}", template.name());
                    }
                }
            });
        }
    });

    // --- prepared statements over the wire ------------------------------
    let (status, body) = http(
        &addr,
        "POST",
        &format!("/prepare?template={}", templates[0].name()),
        "",
    );
    assert_eq!(status, 200, "prepare failed: {body}");
    let stmt = body
        .trim()
        .strip_prefix("ok stmt=")
        .expect("prepare returns a statement id")
        .to_string();
    let mut executes_sent = 0u64;
    for draw in [3u64, 4, 5] {
        let (status, body) = http(
            &addr,
            "POST",
            &format!("/execute?stmt={stmt}&draw={draw}"),
            "",
        );
        executes_sent += 1;
        assert_eq!(status, 200, "execute failed: {body}");
        let (_, rows) = decode_query_body(&body);
        rows_received.fetch_add(rows.len() as u64, Ordering::Relaxed);
        let query = templates[0].instantiate(draw).unwrap();
        let expected = oracle
            .run(&query, OptimizerMode::RelGo)
            .unwrap()
            .table
            .sorted_rows();
        assert_eq!(rows, expected, "prepared draw {draw}");
    }

    // Release the handle; executing it afterwards is a clean 400 (the
    // failed execute still counts toward the endpoint's request series).
    let (status, body) = http(&addr, "POST", &format!("/unprepare?stmt={stmt}"), "");
    assert_eq!(status, 200, "unprepare failed: {body}");
    assert_eq!(body.trim(), format!("ok unprepared={stmt}"));
    let (status, _) = http(&addr, "POST", &format!("/execute?stmt={stmt}&draw=3"), "");
    assert_eq!(status, 400, "released handle must be unknown");

    // --- error paths count toward their endpoint's series ---------------
    let (status, _) = http(&addr, "POST", "/query?template=NoSuchTemplate&draw=0", "");
    assert_eq!(status, 400);
    queries_sent.fetch_add(1, Ordering::Relaxed);
    let (status, _) = http(
        &addr,
        "POST",
        &format!(
            "/query?template={}&draw=0&mode=NoSuchMode",
            templates[0].name()
        ),
        "",
    );
    assert_eq!(status, 400);
    queries_sent.fetch_add(1, Ordering::Relaxed);
    let (status, _) = http(&addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, body) = http(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.starts_with("ok epoch="), "healthz body: {body}");

    // --- ingest over the wire, mirrored on the oracle --------------------
    // Two commits: a delete target must exist in the published base, so
    // the inserts land first and the delete rides the next epoch.
    let ingest_body = "Person|i:800001|s:WireBob|d:17000\nPerson|i:800002|s:WïreÉve🦀|d:17001\n";
    let (status, body) = http(&addr, "POST", "/ingest", ingest_body);
    assert_eq!(status, 200, "ingest failed: {body}");
    assert!(
        body.contains("inserted=2") && body.contains("deleted=0"),
        "{body}"
    );
    let (status, body) = http(&addr, "POST", "/ingest", "delete|Person|800002\n");
    assert_eq!(status, 200, "delete ingest failed: {body}");
    assert!(
        body.contains("inserted=0") && body.contains("deleted=1"),
        "{body}"
    );
    let mut batch = oracle.begin_ingest();
    batch
        .insert_row(
            "Person",
            vec![
                Value::Int(800_001),
                Value::str("WireBob"),
                Value::Date(17_000),
            ],
        )
        .unwrap();
    batch
        .insert_row(
            "Person",
            vec![
                Value::Int(800_002),
                Value::str("WïreÉve🦀"),
                Value::Date(17_001),
            ],
        )
        .unwrap();
    batch.commit().unwrap();
    let mut batch = oracle.begin_ingest();
    batch.delete_row("Person", 800_002).unwrap();
    batch.commit().unwrap();

    // Post-ingest row identity: both sides serve the new epoch.
    let query = templates[0].instantiate(1).unwrap();
    let (status, body) = http(
        &addr,
        "POST",
        &format!("/query?template={}&draw=1", templates[0].name()),
        "",
    );
    queries_sent.fetch_add(1, Ordering::Relaxed);
    assert_eq!(status, 200);
    let (meta, rows) = decode_query_body(&body);
    rows_received.fetch_add(rows.len() as u64, Ordering::Relaxed);
    assert!(
        meta.contains(&format!("epoch={}", oracle.epoch())),
        "{meta}"
    );
    let expected = oracle
        .run(&query, OptimizerMode::RelGo)
        .unwrap()
        .table
        .sorted_rows();
    assert_eq!(rows, expected);

    // A malformed ingest line is rejected without committing anything.
    let epoch_before = oracle.epoch();
    let (status, _) = http(&addr, "POST", "/ingest", "Person|i:1|missing_tag\n");
    assert_eq!(status, 400);
    let (_, body) = http(&addr, "GET", "/healthz", "");
    assert_eq!(body.trim(), format!("ok epoch={epoch_before}"));

    // --- /metrics reconciles with the client-side tallies ----------------
    let (status, scrape_body) = http(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    text::validate(&scrape_body).expect("scrape passes format validation");
    let scrape = text::parse(&scrape_body).expect("scrape parses");
    assert!(
        scrape.names().len() >= 12,
        "expected >= 12 series names, got {:?}",
        scrape.names()
    );
    let queries = queries_sent.load(Ordering::Relaxed);
    assert_eq!(
        scrape.value("relgo_http_requests_total", &[("endpoint", "query")]),
        Some(queries as f64)
    );
    assert_eq!(
        scrape.value("relgo_http_requests_total", &[("endpoint", "execute")]),
        Some((executes_sent + 1) as f64), // + the 400 on the released handle
    );
    assert_eq!(
        scrape.value("relgo_http_requests_total", &[("endpoint", "prepare")]),
        Some(1.0)
    );
    assert_eq!(
        scrape.value("relgo_http_requests_total", &[("endpoint", "unprepare")]),
        Some(1.0)
    );
    assert_eq!(
        scrape.value("relgo_http_requests_total", &[("endpoint", "ingest")]),
        Some(3.0)
    );
    assert_eq!(
        scrape.value("relgo_http_requests_total", &[("endpoint", "other")]),
        Some(1.0)
    );
    assert_eq!(
        scrape.value("relgo_http_rows_served_total", &[]),
        Some(rows_received.load(Ordering::Relaxed) as f64)
    );
    assert_eq!(scrape.value("relgo_ingest_commits_total", &[]), Some(2.0));
    // Engine-side per-query accounting covers at least the successful
    // HTTP-served queries (cached path) and prepared executes.
    let cached = scrape
        .value("relgo_queries_total", &[("path", "cached")])
        .unwrap_or(0.0);
    let prepared = scrape
        .value("relgo_queries_total", &[("path", "prepared")])
        .unwrap_or(0.0);
    assert!(cached >= (queries - 2) as f64, "cached={cached}");
    assert_eq!(prepared, executes_sent as f64);

    // A second scrape sees the first one on the metrics endpoint's series.
    let (_, scrape2) = http(&addr, "GET", "/metrics", "");
    let scrape2 = text::parse(&scrape2).expect("second scrape parses");
    assert_eq!(
        scrape2.value("relgo_http_requests_total", &[("endpoint", "metrics")]),
        Some(1.0)
    );

    // --- graceful shutdown ------------------------------------------------
    let (status, body) = http(&addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    assert_eq!(body.trim(), "ok draining");
    let mut server = server;
    let exit = server.child.wait().expect("server exits");
    assert!(exit.success(), "server exit status: {exit:?}");
}

/// Durable server lifecycle: `/healthz` reports WAL growth, `POST
/// /checkpoint` snapshots + truncates the log, `/metrics` exposes the
/// checkpoint gauges, and graceful drain leaves a checkpoint behind so the
/// next open replays nothing.
#[test]
fn durable_server_checkpoints_and_drains_with_bounded_recovery() {
    use relgo::datagen::{generate_snb, SnbParams};
    use relgo::CheckpointStore;

    let params = SnbParams { sf: 0.01, seed: 11 };
    let wal_path =
        std::env::temp_dir().join(format!("relgo_server_ckpt_{}.wal", std::process::id()));
    std::fs::remove_file(&wal_path).ok();
    let cleanup = || {
        std::fs::remove_file(&wal_path).ok();
        for (_, p) in CheckpointStore::for_wal(&wal_path)
            .list()
            .unwrap_or_default()
        {
            std::fs::remove_file(p).ok();
        }
    };
    cleanup();

    let (db, mapping) = generate_snb(&params);
    let (session, rec) = Session::open_durable(
        db,
        mapping,
        SessionOptions::default(),
        &wal_path,
        WalOptions::default(),
    )
    .expect("durable session");
    assert_eq!(rec.records, 0);
    let schema = SnbSchema::resolve(session.view().schema()).expect("schema");
    let templates = snb_templates(&schema);
    let bound = Server::new(&session, &templates, ServerConfig::default())
        .bind()
        .expect("bind");
    let addr = bound.local_addr().to_string();

    let (stats, client) = std::thread::scope(|scope| {
        let server = scope.spawn(move || bound.run().expect("server run"));
        let client = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Two commits grow the log; healthz reports the growth.
            for key in [900_001i64, 900_002] {
                let (status, body) = http(
                    &addr,
                    "POST",
                    "/ingest",
                    &format!("Person|i:{key}|s:Ckpt{key}|d:17000\n"),
                );
                assert_eq!(status, 200, "ingest failed: {body}");
            }
            let (status, body) = http(&addr, "GET", "/healthz", "");
            assert_eq!(status, 200);
            assert!(body.starts_with("ok epoch=2 "), "healthz body: {body}");
            let wal_bytes: u64 = body
                .trim()
                .split_once("wal_bytes_since_checkpoint=")
                .expect("durable healthz reports WAL bytes")
                .1
                .parse()
                .expect("byte count parses");
            assert!(wal_bytes > 0, "two records on disk: {body}");

            // Checkpoint over the wire: log truncated, gauges move.
            let (status, body) = http(&addr, "POST", "/checkpoint", "");
            assert_eq!(status, 200, "checkpoint failed: {body}");
            assert!(body.starts_with("ok checkpoint epoch=2 "), "{body}");
            assert!(body.contains("wal_records_dropped=2"), "{body}");
            let (_, body) = http(&addr, "GET", "/healthz", "");
            assert_eq!(body.trim(), "ok epoch=2 wal_bytes_since_checkpoint=0");
            let (_, scrape_body) = http(&addr, "GET", "/metrics", "");
            let scrape = text::parse(&scrape_body).expect("scrape parses");
            assert_eq!(scrape.value("relgo_checkpoints_total", &[]), Some(1.0));
            assert_eq!(scrape.value("relgo_checkpoint_epoch", &[]), Some(2.0));
            assert_eq!(
                scrape.value("relgo_wal_bytes_since_checkpoint", &[]),
                Some(0.0)
            );

            // One more commit after the checkpoint, left for drain to cover.
            let (status, body) = http(
                &addr,
                "POST",
                "/ingest",
                "Person|i:900003|s:AfterCkpt|d:17000\n",
            );
            assert_eq!(status, 200, "ingest failed: {body}");
        }));
        let (status, _) = http(&addr, "POST", "/shutdown", "");
        assert_eq!(status, 200);
        let stats = server.join().expect("server thread");
        (stats, client)
    });
    if let Err(p) = client {
        cleanup();
        std::panic::resume_unwind(p);
    }
    assert_eq!(stats.failed, 0, "no failed requests");

    // Drain checkpointed the final epoch: recovery replays nothing.
    assert_eq!(session.last_checkpoint_epoch(), 3);
    assert_eq!(session.wal_bytes_since_checkpoint(), Some(0));
    let (db, mapping) = generate_snb(&params);
    let (back, rec) = Session::recover(db, mapping, &wal_path).expect("recover");
    assert!(rec.checkpoint_loaded);
    assert_eq!(rec.checkpoint_epoch, 3);
    assert_eq!(rec.records, 0, "drain checkpoint covers every commit");
    assert_eq!(back.epoch(), session.epoch());
    assert_eq!(
        session.db().table("Person").unwrap().sorted_rows(),
        back.db().table("Person").unwrap().sorted_rows(),
        "Person survives server drain + recovery bit-identically"
    );
    cleanup();
}

#[test]
fn in_process_admission_budget_and_drain_accounting() {
    let (session, schema) = Session::snb(0.01, 11).expect("session");
    let templates = snb_templates(&schema);
    // Find an instance that returns rows, so the row budget below is
    // guaranteed to trip (a 0-row query charges nothing). Sizing the
    // per-tenant budget to 2r+1 makes the outcome deterministic: a tenant
    // replaying this instance gets exactly two responses (charges r, 2r)
    // and trips on the third (3r > 2r+1), while a fresh tenant's single
    // query (r <= 2r+1) always fits.
    let (budget_template, budget_draw, budget_rows) = 'found: {
        for (i, t) in templates.iter().enumerate() {
            for d in 0..20u64 {
                let q = t.instantiate(d).expect("instantiate");
                let rows = session
                    .run(&q, OptimizerMode::RelGo)
                    .expect("probe run")
                    .table
                    .num_rows();
                if rows > 0 {
                    break 'found (i, d, rows);
                }
            }
        }
        panic!("no template instance returns rows at sf 0.01");
    };
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        max_inflight_per_tenant: 1,
        tenant_row_budget: 2 * budget_rows + 1,
        max_body_bytes: 64,
        ..ServerConfig::default()
    };
    let bound = Server::new(&session, &templates, config)
        .bind()
        .expect("bind");
    let addr = bound.local_addr().to_string();

    let (stats, client) = std::thread::scope(|scope| {
        let server = scope.spawn(move || bound.run().expect("server run"));

        // A panicking assert in the client body would deadlock the scope
        // (it joins the server thread, which only exits on /shutdown), so
        // run the client under catch_unwind and always send the shutdown.
        let client = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut ok = 0u64;
            let mut rejected = 0u64;
            let mut failed = 0u64;
            // The 3-row budget for tenant "skint" must trip within a
            // bounded number of row-returning queries; other tenants stay
            // unaffected.
            for _attempt in 0..10u64 {
                let (status, _) = http(
                    &addr,
                    "POST",
                    &format!(
                        "/query?template={}&draw={budget_draw}&tenant=skint",
                        templates[budget_template].name()
                    ),
                    "",
                );
                match status {
                    200 => ok += 1,
                    429 => {
                        rejected += 1;
                        break;
                    }
                    _ => failed += 1,
                }
            }
            assert_eq!(ok, 2, "budget math: two charges fit, the third trips");
            assert_eq!(rejected, 1, "row budget never tripped (ok={ok})");
            assert_eq!(failed, 0);
            let (status, _) = http(
                &addr,
                "POST",
                &format!(
                    "/query?template={}&draw={budget_draw}&tenant=solvent",
                    templates[budget_template].name()
                ),
                "",
            );
            assert_eq!(status, 200, "other tenants unaffected by skint's budget");
            // A body bigger than the 64-byte cap is rejected up front
            // with 413 — no multi-GB allocation from a hostile header.
            let big_body = "x".repeat(65);
            let (status, body) = http(&addr, "POST", "/ingest", &big_body);
            assert_eq!(status, 413, "oversized body: {body}");
            // Checkpointing an in-memory session is a clean client error.
            let (status, body) = http(&addr, "POST", "/checkpoint", "");
            assert_eq!(status, 400, "non-durable checkpoint: {body}");
            assert!(body.contains("not durable"), "{body}");
            (ok + 1, rejected)
        }));

        let (status, body) = http(&addr, "POST", "/shutdown", "");
        assert_eq!(status, 200, "shutdown: {body}");
        let stats = server.join().expect("server thread");
        (stats, client)
    });

    let (ok, rejected) = match client {
        Ok(v) => v,
        Err(p) => std::panic::resume_unwind(p),
    };
    // Drain accounting: every request produced exactly one classified
    // response, and the client saw all of them. (These clients send
    // `Connection: close`, so requests == connections here too.)
    assert_eq!(
        stats.requests,
        stats.ok_responses + stats.rejected + stats.failed
    );
    assert_eq!(stats.requests, stats.connections);
    assert_eq!(stats.ok_responses, ok + 1); // + the shutdown ack itself
    assert_eq!(stats.rejected, rejected);
    // The 413 oversized-body probe and the 400 non-durable checkpoint.
    assert_eq!(stats.failed, 2);
}

/// Minimal recursive-descent JSON validator (the vendored serde is a
/// no-op shim, so access-log lines are checked structurally by hand).
/// Returns the rest of the input after one complete JSON value.
fn json_value(s: &str) -> std::result::Result<&str, String> {
    let s = s.trim_start();
    let mut chars = s.chars();
    match chars.next() {
        Some('{') => json_sequence(&s[1..], '}', true),
        Some('[') => json_sequence(&s[1..], ']', false),
        Some('"') => json_string(s),
        Some('t') => s.strip_prefix("true").ok_or_else(|| bad(s)),
        Some('f') => s.strip_prefix("false").ok_or_else(|| bad(s)),
        Some('n') => s.strip_prefix("null").ok_or_else(|| bad(s)),
        Some(c) if c == '-' || c.is_ascii_digit() => {
            let end = s
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(s.len());
            s[..end]
                .parse::<f64>()
                .map(|_| &s[end..])
                .map_err(|e| format!("bad number {:?}: {e}", &s[..end]))
        }
        _ => Err(bad(s)),
    }
}

fn bad(s: &str) -> String {
    format!("unexpected JSON at {:?}", &s[..s.len().min(40)])
}

/// Parse `"..."` (escapes included); returns the rest after the close quote.
fn json_string(s: &str) -> std::result::Result<&str, String> {
    let inner = s.strip_prefix('"').ok_or_else(|| bad(s))?;
    let mut escape = false;
    for (i, c) in inner.char_indices() {
        match (escape, c) {
            (true, _) => escape = false,
            (false, '\\') => escape = true,
            (false, '"') => return Ok(&inner[i + 1..]),
            _ => {}
        }
    }
    Err("unterminated JSON string".to_string())
}

/// Parse the members of an object (`keyed`) or array after the opener,
/// through the matching `close`.
fn json_sequence(mut s: &str, close: char, keyed: bool) -> std::result::Result<&str, String> {
    s = s.trim_start();
    if let Some(rest) = s.strip_prefix(close) {
        return Ok(rest);
    }
    loop {
        if keyed {
            s = json_string(s.trim_start())?.trim_start();
            s = s.strip_prefix(':').ok_or_else(|| bad(s))?;
        }
        s = json_value(s)?.trim_start();
        if let Some(rest) = s.strip_prefix(',') {
            s = rest.trim_start();
        } else {
            return s.strip_prefix(close).ok_or_else(|| bad(s));
        }
    }
}

/// Assert `line` is exactly one complete JSON value.
fn assert_json(line: &str) {
    match json_value(line) {
        Ok(rest) => assert!(rest.trim().is_empty(), "trailing garbage in {line:?}"),
        Err(e) => panic!("{e} in access-log line {line:?}"),
    }
}

/// Operator profiling over the wire: `profile=1` appends a pure-JSON
/// operator profile to `/query` and `/execute` bodies, `POST /explain`
/// returns the annotated plan tree, the new per-operator metric series
/// reconcile exactly against client-side tallies of those profiles, and a
/// `slow_query_ms` threshold of zero lands `"slow":true,"profile":[..]`
/// on every query's access-log line — written atomically from concurrent
/// workers (every line parses as standalone JSON).
#[test]
fn explain_profile_and_slow_query_log_round_trip() {
    use std::collections::HashMap;
    use std::sync::Mutex;

    let (session, schema) = Session::snb(0.01, 11).expect("session");
    let templates = snb_templates(&schema);
    let log_path =
        std::env::temp_dir().join(format!("relgo_server_slowlog_{}.jsonl", std::process::id()));
    std::fs::remove_file(&log_path).ok();
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        access_log: Some(log_path.display().to_string()),
        slow_query_ms: Some(0),
        ..ServerConfig::default()
    };
    let bound = Server::new(&session, &templates, config)
        .bind()
        .expect("bind");
    let addr = bound.local_addr().to_string();

    let client = std::thread::scope(|scope| {
        let server = scope.spawn(move || bound.run().expect("server run"));
        let client = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // --- concurrent profiled queries; tally operator kinds -------
            // Every /query and /execute in this test carries profile=1, so
            // the client-side tallies below are complete and the scrape
            // reconciliation can demand equality, not just >=.
            let kind_counts: Mutex<HashMap<String, u64>> = Mutex::new(HashMap::new());
            let tally = |tails: &mut Vec<String>, body: &str| {
                let (meta, _) = {
                    let mut lines = body.lines();
                    let meta = lines.next().expect("meta line").to_string();
                    assert!(meta.starts_with("ok rows="), "{meta}");
                    (meta, ())
                };
                let tail = body.lines().last().expect("profile tail");
                assert!(
                    tail.starts_with('[') && tail.ends_with(']'),
                    "profile tail is a JSON array: {tail}"
                );
                assert_json(tail);
                assert!(tail.contains("\"op\":0"), "{tail}");
                let mut counts = kind_counts.lock().unwrap();
                for part in tail.split("\"kind\":\"").skip(1) {
                    let kind = part.split('"').next().expect("kind value");
                    *counts.entry(kind.to_string()).or_insert(0) += 1;
                }
                tails.push(tail.to_string());
                meta
            };
            std::thread::scope(|inner| {
                for worker in 0..3u64 {
                    let (addr, templates, tally) = (&addr, &templates, &tally);
                    inner.spawn(move || {
                        let mut tails = Vec::new();
                        for template in templates.iter() {
                            let path = format!(
                                "/query?template={}&draw={worker}&profile=1",
                                template.name()
                            );
                            let (status, body) = http(addr, "POST", &path, "");
                            assert_eq!(status, 200, "profiled query: {body}");
                            tally(&mut tails, &body);
                        }
                    });
                }
            });

            // --- profiled prepared execution -----------------------------
            let (status, body) = http(
                &addr,
                "POST",
                &format!("/prepare?template={}", templates[0].name()),
                "",
            );
            assert_eq!(status, 200, "prepare: {body}");
            let stmt = body.trim().strip_prefix("ok stmt=").expect("stmt id");
            let (status, body) = http(
                &addr,
                "POST",
                &format!("/execute?stmt={stmt}&draw=5&profile=1"),
                "",
            );
            assert_eq!(status, 200, "profiled execute: {body}");
            let mut tails = Vec::new();
            tally(&mut tails, &body);
            // The same draw without profile=1 still executes profiled
            // (slow_query_ms arms it) but must NOT carry the JSON tail —
            // and the rows must be identical either way.
            let (status, plain) = http(&addr, "POST", &format!("/execute?stmt={stmt}&draw=5"), "");
            assert_eq!(status, 200, "unprofiled execute: {plain}");
            assert!(
                !plain.lines().last().unwrap_or("").starts_with('['),
                "no tail without profile=1: {plain}"
            );
            let profiled_lines: Vec<&str> = body.lines().collect();
            let plain_lines: Vec<&str> = plain.lines().collect();
            assert_eq!(profiled_lines.len(), plain_lines.len() + 1);
            assert_eq!(
                &profiled_lines[..plain_lines.len()],
                &plain_lines[..],
                "profile=1 changes only the tail line"
            );
            let tail = tails.pop().expect("tally kept the tail");
            for part in tail.split("\"kind\":\"").skip(1) {
                let kind = part.split('"').next().expect("kind value");
                *kind_counts
                    .lock()
                    .unwrap()
                    .entry(kind.to_string())
                    .or_insert(0) += 1;
            }

            // --- scrape: operator series reconcile exactly ---------------
            let (status, scrape_body) = http(&addr, "GET", "/metrics", "");
            assert_eq!(status, 200);
            text::validate(&scrape_body).expect("scrape validates");
            let scrape = text::parse(&scrape_body).expect("scrape parses");
            let counts = kind_counts.into_inner().unwrap();
            assert!(counts.len() >= 3, "several operator kinds: {counts:?}");
            for (kind, n) in &counts {
                assert_eq!(
                    scrape.value("relgo_operator_seconds_count", &[("op", kind)]),
                    Some(*n as f64),
                    "relgo_operator_seconds{{op={kind}}} reconciles"
                );
                assert_eq!(
                    scrape.value("relgo_operator_rows_count", &[("op", kind), ("dir", "out")]),
                    Some(*n as f64),
                    "relgo_operator_rows{{op={kind},dir=out}} reconciles"
                );
            }
            assert!(
                scrape.value("relgo_qerror_count", &[]).unwrap_or(0.0) > 0.0,
                "aggregate Q-error histogram populated"
            );
            // Response serialization is now a traced stage on the engine's
            // stage histogram (satellite: serving-edge trace coverage).
            assert!(
                scrape
                    .value("relgo_query_stage_seconds_count", &[("stage", "serialize")])
                    .unwrap_or(0.0)
                    > 0.0,
                "serialize stage recorded at the serving edge"
            );

            // --- POST /explain -------------------------------------------
            let (status, body) = http(
                &addr,
                "POST",
                &format!("/explain?template={}&draw=1", templates[0].name()),
                "",
            );
            assert_eq!(status, 200, "explain: {body}");
            let mut lines = body.lines();
            let meta = lines.next().expect("explain meta");
            assert!(meta.starts_with("ok ops="), "{meta}");
            assert!(meta.contains("analyze=1"), "{meta}");
            let ops: usize = meta
                .split("ops=")
                .nth(1)
                .and_then(|s| s.split_whitespace().next())
                .and_then(|s| s.parse().ok())
                .expect("ops count");
            let tree: Vec<&str> = lines.collect();
            assert_eq!(tree.len(), ops, "one rendered line per operator");
            for (i, line) in tree.iter().enumerate() {
                assert!(
                    line.contains(&format!("[op={i} est=")) && line.contains(" act="),
                    "operator {i} annotated with est/act: {line}"
                );
            }
            // Plan-only EXPLAIN: estimates, no actuals.
            let (status, body) = http(
                &addr,
                "POST",
                &format!("/explain?template={}&draw=1&analyze=0", templates[0].name()),
                "",
            );
            assert_eq!(status, 200, "explain analyze=0: {body}");
            assert!(body.starts_with("ok ops="), "{body}");
            assert!(body.contains("analyze=0"), "{body}");
            assert!(body.contains("[op=0 est="), "{body}");
            assert!(!body.contains(" act="), "plan-only explain: {body}");
            // Parameter validation mirrors /query.
            let (status, _) = http(&addr, "POST", "/explain?template=NoSuch&draw=0", "");
            assert_eq!(status, 400);
            let (status, _) = http(
                &addr,
                "POST",
                &format!("/explain?template={}", templates[0].name()),
                "",
            );
            assert_eq!(status, 400, "missing draw");
        }));
        let (status, _) = http(&addr, "POST", "/shutdown", "");
        assert_eq!(status, 200);
        server.join().expect("server thread");
        client
    });
    if let Err(p) = client {
        std::fs::remove_file(&log_path).ok();
        std::panic::resume_unwind(p);
    }

    // --- the slow-query log ----------------------------------------------
    // Threshold 0 makes every request "slow": each access-log line must be
    // standalone JSON (multi-worker writes stay line-atomic), and every
    // served query line carries the full operator profile.
    let log = std::fs::read_to_string(&log_path).expect("access log written");
    let mut profiled_lines = 0u64;
    let mut total = 0u64;
    for line in log.lines() {
        total += 1;
        assert_json(line);
        assert!(line.contains("\"slow\":true"), "threshold 0: {line}");
        let served_query = (line.contains("\"endpoint\":\"query\"")
            || line.contains("\"endpoint\":\"execute\""))
            && line.contains("\"status\":200");
        if served_query {
            assert!(
                line.contains("\"profile\":[{\"op\":0,"),
                "slow query logs its operator profile: {line}"
            );
            assert!(
                line.contains("\"stages\":{") && line.contains("\"serialize\":"),
                "slow query logs the serialize stage: {line}"
            );
            profiled_lines += 1;
        }
        // The analyze=1 explain logs its profile too (the analyze=0 one
        // never executed, so it has none).
        if line.contains("\"endpoint\":\"explain\"") && line.contains("\"status\":200") {
            profiled_lines += u64::from(line.contains("\"profile\":[{\"op\":0,"));
        }
    }
    assert!(total > 20, "the workload produced many lines: {total}");
    // 3 workers × every template, the two executes, the analyze=1 explain.
    assert_eq!(profiled_lines, 3 * templates.len() as u64 + 3);
    std::fs::remove_file(&log_path).ok();
}

/// A client holding one persistent connection: sends requests back to
/// back on the same socket and reads each framed response (the
/// `Content-Length` header bounds the body, so the socket stays
/// byte-synchronized for the next exchange).
struct KeepAliveClient {
    stream: TcpStream,
}

impl KeepAliveClient {
    fn connect(addr: &str) -> KeepAliveClient {
        KeepAliveClient {
            stream: TcpStream::connect(addr).expect("connect"),
        }
    }

    /// One exchange. Returns `(status, head, body)`; `head` is the raw
    /// header block (for `Connection:` / `Retry-After:` assertions).
    fn send(&mut self, method: &str, path: &str, body: &str) -> (u16, String, String) {
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: keepalive\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(req.as_bytes()).expect("send request");
        self.read_response()
    }

    /// Send raw bytes (malformed-framing probes) and read one response.
    fn send_raw(&mut self, raw: &[u8]) -> (u16, String, String) {
        self.stream.write_all(raw).expect("send raw");
        self.read_response()
    }

    fn read_response(&mut self) -> (u16, String, String) {
        let mut reader = BufReader::new(&self.stream);
        let mut head = String::new();
        loop {
            let mut line = String::new();
            assert!(
                reader.read_line(&mut line).expect("read header line") > 0,
                "connection closed mid-response (head so far: {head:?})"
            );
            if line == "\r\n" {
                break;
            }
            head.push_str(&line);
        }
        let status: u16 = head
            .lines()
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .expect("status code");
        let content_length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|v| v.trim().parse().ok())
            .expect("Content-Length header");
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).expect("read body");
        (status, head, String::from_utf8(body).expect("UTF-8 body"))
    }

    /// True once the server has closed its end (EOF on read).
    fn closed_by_server(mut self) -> bool {
        let mut buf = [0u8; 1];
        matches!(self.stream.read(&mut buf), Ok(0))
    }
}

/// Keep-alive, request deadlines, strict framing, and the access log,
/// pinned down in-process with a deliberately tight config.
#[test]
fn keepalive_deadlines_framing_and_access_log() {
    use std::time::Duration;

    let (session, schema) = Session::snb(0.01, 11).expect("session");
    let templates = snb_templates(&schema);
    let log_path =
        std::env::temp_dir().join(format!("relgo_server_access_{}.jsonl", std::process::id()));
    std::fs::remove_file(&log_path).ok();
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        max_header_bytes: 512,
        idle_timeout: Duration::from_millis(300),
        max_requests_per_connection: 4,
        access_log: Some(log_path.display().to_string()),
        ..ServerConfig::default()
    };
    let bound = Server::new(&session, &templates, config)
        .bind()
        .expect("bind");
    let addr = bound.local_addr().to_string();

    let (stats, client) = std::thread::scope(|scope| {
        let server = scope.spawn(move || bound.run().expect("server run"));
        let client = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // --- keep-alive reuse: several requests, one socket ----------
            let mut ka = KeepAliveClient::connect(&addr);
            let query_path = format!("/query?template={}&draw=1", templates[0].name());
            for _ in 0..3 {
                let (status, head, body) = ka.send("POST", &query_path, "");
                assert_eq!(status, 200, "keep-alive query: {body}");
                assert!(
                    head.contains("Connection: keep-alive"),
                    "reused responses advertise keep-alive: {head}"
                );
            }
            // The 4th request hits max_requests_per_connection: still
            // served, but the server announces and performs the close.
            let (status, head, _) = ka.send("GET", "/healthz", "");
            assert_eq!(status, 200);
            assert!(head.contains("Connection: close"), "{head}");
            assert!(ka.closed_by_server(), "request cap closes the connection");

            // --- idle timeout closes a quiet connection ------------------
            let mut idle = KeepAliveClient::connect(&addr);
            let (status, _, _) = idle.send("GET", "/healthz", "");
            assert_eq!(status, 200);
            std::thread::sleep(Duration::from_millis(900));
            assert!(
                idle.closed_by_server(),
                "idle connection closed after idle_timeout"
            );

            // --- deadline_ms=0 expires before the first morsel -----------
            let mut ka = KeepAliveClient::connect(&addr);
            let (status, head, body) = ka.send("POST", &format!("{query_path}&deadline_ms=0"), "");
            assert_eq!(status, 503, "expired deadline: {body}");
            assert!(head.contains("Retry-After:"), "{head}");
            assert!(body.contains("deadline"), "{body}");
            // A handler-level error does NOT poison the connection: the
            // same socket serves the next request fine.
            let (status, _, _) = ka.send("POST", &query_path, "");
            assert_eq!(status, 200, "connection survives a 503");
            let (status, _, body) = ka.send("POST", &format!("{query_path}&deadline_ms=60000"), "");
            assert_eq!(status, 200, "generous deadline passes: {body}");
            // EXPLAIN ANALYZE executes too, so it fails closed the same way.
            let mut ex = KeepAliveClient::connect(&addr);
            let explain_path = format!("/explain?template={}&draw=1", templates[0].name());
            let (status, head, body) =
                ex.send("POST", &format!("{explain_path}&deadline_ms=0"), "");
            assert_eq!(status, 503, "expired explain deadline: {body}");
            assert!(head.contains("Retry-After:"), "{head}");
            let (status, _, body) = ex.send("POST", &explain_path, "");
            assert_eq!(status, 200, "unbounded explain passes: {body}");

            // --- client-supplied bindings on /execute --------------------
            let (status, _, body) = ka.send(
                "POST",
                &format!("/prepare?template={}", templates[0].name()),
                "",
            );
            // 4th request on this socket: the cap closes it after this.
            assert_eq!(status, 200, "prepare: {body}");
            let stmt = body
                .trim()
                .strip_prefix("ok stmt=")
                .expect("stmt id")
                .to_string();
            assert!(ka.closed_by_server());
            let mut ka = KeepAliveClient::connect(&addr);
            // The template's own draw-7 bindings, sent explicitly by value:
            // the two paths must produce identical rows.
            let bindings = templates[0].bindings(7).expect("bindings");
            let bind_row = bindings
                .iter()
                .map(wire::encode_value)
                .collect::<Vec<_>>()
                .join("|")
                // The wire row rides inside a URL query value: escape the
                // escape character itself so the query-param decode
                // yields the wire row back.
                .replace('%', "%25");
            let (status, _, by_bind) =
                ka.send("POST", &format!("/execute?stmt={stmt}&bind={bind_row}"), "");
            assert_eq!(status, 200, "bind execute: {by_bind}");
            let (status, _, by_draw) = ka.send("POST", &format!("/execute?stmt={stmt}&draw=7"), "");
            assert_eq!(status, 200, "draw execute: {by_draw}");
            assert_eq!(
                decode_query_body(&by_bind).1,
                decode_query_body(&by_draw).1,
                "bind= and draw= produce identical rows"
            );
            // Wrong arity is a clean 400, and both-params is rejected.
            let (status, _, body) = ka.send("POST", &format!("/execute?stmt={stmt}&bind=i:1"), "");
            assert!(
                status == 400 || bindings.len() == 1,
                "wrong-arity bind must 400: {status} {body}"
            );
            let (status, _, _) =
                ka.send("POST", &format!("/execute?stmt={stmt}&bind=i:1&draw=7"), "");
            assert_eq!(status, 400, "bind and draw are mutually exclusive");

            // --- framing errors: reject and close ------------------------
            // Request line past max_header_bytes (512).
            let mut f = KeepAliveClient::connect(&addr);
            let long_path = format!("/healthz?pad={}", "x".repeat(600));
            let (status, _, body) = f.send("GET", &long_path, "");
            assert_eq!(status, 431, "oversized request line: {body}");
            assert!(f.closed_by_server(), "431 poisons the connection");
            // Header block past the cap (many medium headers).
            let mut f = KeepAliveClient::connect(&addr);
            let mut raw = String::from("GET /healthz HTTP/1.1\r\n");
            for i in 0..10 {
                raw.push_str(&format!("X-Pad-{i}: {}\r\n", "y".repeat(64)));
            }
            raw.push_str("\r\n");
            let (status, _, _) = f.send_raw(raw.as_bytes());
            assert_eq!(status, 431, "oversized header block");
            assert!(f.closed_by_server());
            // Malformed Content-Length.
            let mut f = KeepAliveClient::connect(&addr);
            let (status, _, body) =
                f.send_raw(b"POST /ingest HTTP/1.1\r\nContent-Length: banana\r\n\r\n");
            assert_eq!(status, 400, "malformed Content-Length: {body}");
            assert!(body.contains("Content-Length"), "{body}");
            assert!(f.closed_by_server());
            // Duplicate Content-Length (smuggling vector).
            let mut f = KeepAliveClient::connect(&addr);
            let (status, _, body) = f.send_raw(
                b"POST /ingest HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhello",
            );
            assert_eq!(status, 400, "duplicate Content-Length: {body}");
            assert!(body.contains("duplicate"), "{body}");
            assert!(f.closed_by_server());

            // --- invalid UTF-8 percent-escape on ingest ------------------
            let mut ka = KeepAliveClient::connect(&addr);
            let (status, _, body) = ka.send(
                "POST",
                "/ingest",
                "Person|i:900008|s:ok|d:17000\nPerson|i:900009|s:bad%FF|d:17000\n",
            );
            assert_eq!(status, 400, "invalid UTF-8 escape commits nothing: {body}");
            assert!(
                body.contains("line 2") && body.contains("invalid UTF-8"),
                "offending line is named: {body}"
            );
            // ...and nothing committed: epoch still 0 (no commit landed).
            let (_, _, health) = ka.send("GET", "/healthz", "");
            assert_eq!(health.trim(), "ok epoch=0");

            // --- Transfer-Encoding: refused before any body is read ------
            // A chunked ingest used to be answered `200 ok … inserted=0`
            // — acknowledged, nothing committed — with the chunk bytes left
            // on the socket to be parsed as the next request line.
            let persons = || session.db().table("Person").expect("Person").num_rows();
            let persons_before = persons();
            let row = "Person|i:900010|s:chunked|d:17000\n";
            let mut f = KeepAliveClient::connect(&addr);
            let (status, head, body) = f.send_raw(
                format!(
                    "POST /ingest HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                     {:x}\r\n{row}\r\n0\r\n\r\n",
                    row.len()
                )
                .as_bytes(),
            );
            assert_eq!(status, 501, "chunked ingest: {body}");
            assert!(head.contains("501 Not Implemented"), "{head}");
            assert!(head.contains("Connection: close"), "{head}");
            assert!(body.contains("Transfer-Encoding"), "{body}");
            assert!(f.closed_by_server(), "501 poisons the connection");
            assert_eq!((session.epoch(), persons()), (0, persons_before));
            // The same row framed by Content-Length, on a fresh connection,
            // commits.
            let mut ka = KeepAliveClient::connect(&addr);
            let (status, _, body) = ka.send("POST", "/ingest", row);
            assert_eq!(status, 200, "Content-Length ingest: {body}");
            assert!(body.contains("epoch=1 inserted=1"), "{body}");
            assert_eq!((session.epoch(), persons()), (1, persons_before + 1));

            // --- HTTP/1.0 and Connection: close semantics ----------------
            let mut f = KeepAliveClient::connect(&addr);
            let (status, head, _) =
                f.send_raw(b"GET /healthz HTTP/1.0\r\nContent-Length: 0\r\n\r\n");
            assert_eq!(status, 200);
            assert!(head.contains("Connection: close"), "{head}");
            assert!(f.closed_by_server(), "bare HTTP/1.0 closes");

            // --- scrape reconciliation -----------------------------------
            let mut m = KeepAliveClient::connect(&addr);
            let (status, _, scrape_body) = m.send("GET", "/metrics", "");
            assert_eq!(status, 200);
            let scrape = text::parse(&scrape_body).expect("scrape parses");
            let reuses = scrape
                .value("relgo_http_keepalive_reuses_total", &[])
                .expect("keepalive series present");
            // Every request after the first on its socket: 3 + 3 + 1 + 3 + 1.
            assert_eq!(reuses, 11.0, "keep-alive reuses reconcile");
            assert_eq!(
                scrape.value("relgo_http_deadline_expirations_total", &[]),
                Some(2.0),
                "exactly one deadline expiry per endpoint tried"
            );
            let open = scrape
                .value("relgo_http_open_connections", &[])
                .expect("open-connections gauge present");
            assert!(open >= 1.0, "this scrape's own connection is open: {open}");
        }));
        // Shutdown over a fresh connection.
        let (status, _) = http(&addr, "POST", "/shutdown", "");
        assert_eq!(status, 200);
        let stats = server.join().expect("server thread");
        (stats, client)
    });
    if let Err(p) = client {
        std::fs::remove_file(&log_path).ok();
        std::panic::resume_unwind(p);
    }

    // Keep-alive accounting: more requests than connections, and every
    // request classified exactly once.
    assert!(
        stats.requests > stats.connections,
        "reuse means requests ({}) > connections ({})",
        stats.requests,
        stats.connections
    );
    assert_eq!(
        stats.requests,
        stats.ok_responses + stats.rejected + stats.failed
    );
    match session
        .observability_snapshot()
        .registry
        .get("relgo_http_request_seconds", &[("endpoint", "query")])
    {
        Some(relgo_metrics::SampleValue::Histogram(h)) => {
            assert!(h.p99().is_some(), "query latency p99 is finite")
        }
        other => panic!("missing query latency histogram: {other:?}"),
    }

    // Access log: one JSON object per request (framing rejections
    // included), fields present and sane.
    let log = std::fs::read_to_string(&log_path).expect("access log written");
    let lines: Vec<&str> = log.lines().collect();
    assert_eq!(
        lines.len() as u64,
        stats.requests,
        "one access-log line per request"
    );
    let mut saw_query_stages = false;
    let mut saw_431 = false;
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "JSON object per line: {line}"
        );
        for field in [
            "\"unix_ms\":",
            "\"conn\":",
            "\"seq\":",
            "\"endpoint\":\"",
            "\"status\":",
        ] {
            assert!(line.contains(field), "missing {field}: {line}");
        }
        if line.contains("\"endpoint\":\"query\"") && line.contains("\"status\":200") {
            saw_query_stages |= line.contains("\"stages\":{") && line.contains("\"execute\":");
        }
        saw_431 |= line.contains("\"status\":431");
    }
    assert!(saw_query_stages, "served queries log per-stage micros");
    assert!(saw_431, "framing rejections are logged too");
    std::fs::remove_file(&log_path).ok();
}

/// The prepared-statement cap refuses before any planning work, and a
/// slot freed by `/unprepare` is reusable; the server-wide default
/// deadline applies unless the request names its own.
#[test]
fn in_process_prepared_cap_and_default_deadline() {
    let (session, schema) = Session::snb(0.01, 11).expect("session");
    let templates = snb_templates(&schema);
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        max_prepared_statements: 1,
        default_deadline_ms: Some(0),
        ..ServerConfig::default()
    };
    let bound = Server::new(&session, &templates, config)
        .bind()
        .expect("bind");
    let addr = bound.local_addr().to_string();

    let client = std::thread::scope(|scope| {
        let server = scope.spawn(move || bound.run().expect("server run"));
        let client = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // --- prepared-statement cap ----------------------------------
            let (status, body) = http(&addr, "POST", "/prepare?template=IC1-2", "");
            assert_eq!(status, 200, "first prepare fits the cap: {body}");
            let first = body.trim().strip_prefix("ok stmt=").expect("stmt id");
            let probes = |m: MetricsSnapshot| m.hits + m.misses;
            let before = probes(session.cache_metrics());
            let (status, body) = http(&addr, "POST", "/prepare?template=IC2", "");
            assert_eq!(status, 429, "second prepare is over the cap: {body}");
            assert_eq!(
                probes(session.cache_metrics()),
                before,
                "a refused prepare never reaches the plan cache"
            );
            let (status, body) = http(&addr, "POST", &format!("/unprepare?stmt={first}"), "");
            assert_eq!(status, 200, "{body}");
            let (status, body) = http(&addr, "POST", "/prepare?template=IC2", "");
            assert_eq!(status, 200, "the freed slot is reusable: {body}");

            // --- default deadline ----------------------------------------
            let mut ka = KeepAliveClient::connect(&addr);
            let query_path = "/query?template=IC1-2&draw=0";
            let (status, head, body) = ka.send("POST", query_path, "");
            assert_eq!(status, 503, "the default 0 ms deadline expires: {body}");
            assert!(head.contains("Retry-After:"), "{head}");
            let (status, _, body) = ka.send("POST", &format!("{query_path}&deadline_ms=60000"), "");
            assert_eq!(status, 200, "the request's deadline wins: {body}");
            let (status, scrape_body) = http(&addr, "GET", "/metrics", "");
            assert_eq!(status, 200);
            let scrape = text::parse(&scrape_body).expect("scrape parses");
            assert_eq!(
                scrape.value("relgo_http_deadline_expirations_total", &[]),
                Some(1.0)
            );
        }));
        let (status, _) = http(&addr, "POST", "/shutdown", "");
        assert_eq!(status, 200);
        server.join().expect("server thread");
        client
    });
    if let Err(p) = client {
        std::panic::resume_unwind(p);
    }
}
