//! `snb_serve`: the HTTP edge over a small database, where a request is
//! mostly framing, wire codec, admission, parameterize, cache probe and
//! rebind, and execution is tens of microseconds.
//!
//! `relgo-server` runs in this process on an ephemeral port with 2 workers;
//! 2 keep-alive connections each send their next request when the previous
//! reply is complete (closed loop). 70 % `POST /query` (plan-cache hit
//! path), 30 % `POST /execute` (prepared handles), over the 5 SNB templates
//! and a seeded pool of literal draws.

use crate::layers::{self, Dataset, TraceAcc};
use crate::spec::Ledger;
use crate::stats::Samples;
use crate::util::{
    mean_time, micros, millis, peak_rss_mb, secs, session_options, timed, Rng, RunArgs, Tally,
};
use crate::{Res, RunOutput};
use relgo::metrics::text;
use relgo::prelude::*;
use relgo::workloads::templates::snb_templates;
use relgo_server::{wire, ServeStats, Server, ServerConfig};
use std::hash::Hasher;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const DATASET: Dataset = Dataset::Snb(1.0);
const MODE: OptimizerMode = OptimizerMode::RelGo;
const SETUPS: usize = 15;
const CONNECTIONS: usize = 2;
/// Literal draws per template. Every (template, draw) answer is checked
/// against an in-process `Session::run` before the window opens, which is
/// also the warm-up: 5 templates × 200 draws × 2 endpoints = 2 000 requests.
const DRAWS: usize = 200;
const QUERY_SHARE_PERCENT: usize = 70;

fn server_config() -> ServerConfig {
    // Every cap raised, so no request of the window is refused or cut off.
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: CONNECTIONS,
        max_inflight_per_tenant: 64,
        tenant_row_budget: usize::MAX,
        idle_timeout: Duration::from_secs(60),
        max_requests_per_connection: usize::MAX,
        ..ServerConfig::default()
    }
}

/// A blocking HTTP/1.1 client on one persistent connection.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    body: Vec<u8>,
}

impl Client {
    fn connect(addr: &str) -> Res<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            stream,
            line: String::new(),
            body: Vec::new(),
        })
    }

    /// Send one pre-rendered request and read the whole response; the body
    /// stays in `self.body`. Returns the status code.
    fn exchange(&mut self, request: &[u8]) -> Res<u16> {
        self.stream.write_all(request)?;
        read_response(&mut self.reader, &mut self.line, &mut self.body)
    }

    fn send(&mut self, method: &str, path: &str) -> Res<u16> {
        self.exchange(&render_request(method, path))
    }

    fn body_text(&self) -> Res<&str> {
        std::str::from_utf8(&self.body).map_err(|e| format!("response body: {e}").into())
    }
}

fn render_request(method: &str, path: &str) -> Vec<u8> {
    format!("{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n").into_bytes()
}

fn read_response(reader: &mut impl BufRead, line: &mut String, body: &mut Vec<u8>) -> Res<u16> {
    let mut status = None;
    let mut content_length = 0usize;
    loop {
        line.clear();
        if reader.read_line(line)? == 0 {
            return Err("server closed the connection mid-response".into());
        }
        if line == "\r\n" {
            break;
        }
        if status.is_none() {
            status = line.split_whitespace().nth(1).and_then(|s| s.parse().ok());
            if status.is_none() {
                return Err(format!("malformed status line {line:?}").into());
            }
        } else if let Some(v) = line.strip_prefix("Content-Length: ") {
            content_length = v.trim().parse().map_err(|_| "bad Content-Length")?;
        }
    }
    body.resize(content_length, 0);
    reader.read_exact(body)?;
    status.ok_or_else(|| "response without a status line".into())
}

/// The rows of a query response: everything after the `ok rows=N …` meta
/// line, minus the JSON profile tail line of a `profile=1` request.
fn rows_part(body: &[u8], profiled: bool) -> Option<(usize, &[u8])> {
    let newline = body.iter().position(|b| *b == b'\n')?;
    let meta = std::str::from_utf8(&body[..newline]).ok()?;
    let rows = meta
        .strip_prefix("ok rows=")?
        .split(' ')
        .next()?
        .parse()
        .ok()?;
    let mut rest = &body[newline + 1..];
    if profiled {
        let tail_start = rest[..rest.len().checked_sub(1)?]
            .iter()
            .rposition(|b| *b == b'\n')
            .map_or(0, |p| p + 1);
        rest = &rest[..tail_start];
    }
    Some((rows, rest))
}

fn bytes_hash(bytes: &[u8]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    h.write(bytes);
    h.finish()
}

/// Run `body` against a server bound over `session`, then shut the server
/// down through `POST /shutdown` whatever `body` returned, join it, and
/// hold its `ServeStats` to the invariants of a clean run.
fn with_server<T>(
    session: &Session,
    templates: &[QueryTemplate],
    body: impl FnOnce(&str) -> Res<T>,
) -> Res<(T, ServeStats)> {
    let bound = Server::new(session, templates, server_config()).bind()?;
    let addr = bound.local_addr().to_string();
    std::thread::scope(|scope| {
        let server = scope.spawn(move || bound.run());
        // The scope cannot end before the server does, and the server only
        // ends on a shutdown request: send it even if `body` panicked.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&addr)));
        // All of `body`'s connections are closed by now, so a worker is free
        // to accept this one.
        let shutdown = Client::connect(&addr).and_then(|mut c| c.send("POST", "/shutdown"));
        let result = result.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        let stats = server
            .join()
            .map_err(|_| "server thread panicked".to_string())??;
        let value = result?;
        if shutdown? != 200 {
            return Err("POST /shutdown was not answered 200".into());
        }
        if stats.requests != stats.ok_responses + stats.rejected + stats.failed
            || stats.failed != 0
            || stats.rejected != 0
        {
            return Err(format!("server did not run clean: {stats:?}").into());
        }
        Ok((value, stats))
    })
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    Query,
    Execute,
}

/// The answers the window is held to and the requests that ask for them.
struct Plan {
    /// `draws[i]` is the i-th literal draw of the pool, the same for every
    /// template.
    draws: Vec<u64>,
    /// `expected[template][draw index]`: row count and hash of the rows.
    expected: Vec<Vec<(usize, u64)>>,
    /// `requests[profiled][endpoint][template][draw index]`, pre-rendered so
    /// the timed loop formats nothing.
    requests: [[Vec<Vec<Vec<u8>>>; 2]; 2],
}

impl Plan {
    fn request(&self, profiled: bool, endpoint: Endpoint, template: usize, draw: usize) -> &[u8] {
        &self.requests[profiled as usize][endpoint as usize][template][draw]
    }
}

/// What one client connection measured.
#[derive(Default)]
struct ClientReport {
    tally: Tally,
    /// Right answers, and the wall they were completed in.
    correct: u64,
    elapsed_s: f64,
    /// Latency of every plain request that was answered right, ns.
    plain_ns: Vec<u32>,
    /// Traced runs only: the same in ms by endpoint, and the latencies of
    /// the `profile=1` requests.
    query_ms: Samples,
    execute_ms: Samples,
    profiled_ms: Samples,
    body_bytes: u64,
    rows: u64,
    /// `POST /query` requests sent, plain and profiled.
    query_requests: u64,
}

/// One closed-loop client: next request when the previous reply is whole.
/// A traced run sends every other request with `profile=1`.
fn client_loop(
    addr: &str,
    plan: &Plan,
    args: RunArgs,
    start: Instant,
    mut rng: Rng,
) -> Res<ClientReport> {
    let mut client = Client::connect(addr)?;
    // Room for every sample, touched up front, so `peak_rss_mb` holds the
    // same harness memory whether the host let 250 000 requests through or
    // 300 000, and no buffer doubles in the middle of the window. Past
    // 12 500 requests a second and connection it grows like any other.
    let mut plain_ns = vec![u32::MAX; (args.seconds * 12_500.0) as usize];
    plain_ns.clear();
    let mut report = ClientReport {
        plain_ns,
        ..ClientReport::default()
    };
    let mut sent = 0usize;
    // For `--smoke`, one pass is as many requests as there are answers.
    while args.keep_going(start, sent / (plan.expected.len() * plan.draws.len())) {
        let endpoint = if rng.below(100) < QUERY_SHARE_PERCENT {
            Endpoint::Query
        } else {
            Endpoint::Execute
        };
        let template = rng.below(plan.expected.len());
        let draw = rng.below(plan.draws.len());
        let profiled = args.traced && sent % 2 == 1;
        let request = plan.request(profiled, endpoint, template, draw);
        let (d, status) = timed(|| client.exchange(request));
        sent += 1;
        let status = status?;
        let answer = rows_part(&client.body, profiled).map(|(n, rows)| (n, bytes_hash(rows)));
        let ok = report.tally.check(
            status == 200 && answer == Some(plan.expected[template][draw]),
            || format!("template {template} draw {draw}: status {status}, wrong or no rows"),
        );
        report.correct += ok as u64;
        if ok && !profiled {
            let ns = u32::try_from(d.as_nanos()).unwrap_or(u32::MAX);
            report.plain_ns.push(ns);
        }
        if !args.traced {
            continue;
        }
        report.body_bytes += client.body.len() as u64;
        report.rows += plan.expected[template][draw].0 as u64;
        report.query_requests += (endpoint == Endpoint::Query) as u64;
        if profiled {
            report.profiled_ms.push(millis(d));
        } else if endpoint == Endpoint::Query {
            report.query_ms.push(millis(d));
        } else {
            report.execute_ms.push(millis(d));
        }
    }
    report.elapsed_s = secs(start.elapsed());
    Ok(report)
}

/// Check every (template, draw) answer of both endpoints against an
/// in-process `Session::run`, prepare the statement handles, and render the
/// window's requests. Doubles as the warm-up.
fn verify_and_plan(
    addr: &str,
    session: &Session,
    templates: &[QueryTemplate],
    seed: u64,
    tally: &mut Tally,
) -> Res<Plan> {
    let mut rng = Rng::new(seed);
    let draws: Vec<u64> = (0..DRAWS).map(|_| rng.next_u64() >> 1).collect();
    let mut client = Client::connect(addr)?;
    let mut expected = Vec::new();
    let mut requests: [[Vec<Vec<Vec<u8>>>; 2]; 2] = Default::default();
    for t in templates {
        let status = client.send("POST", &format!("/prepare?template={}", t.name()))?;
        let stmt = client
            .body_text()?
            .trim()
            .strip_prefix("ok stmt=")
            .filter(|_| status == 200)
            .ok_or_else(|| format!("prepare {}: status {status}", t.name()))?
            .to_string();
        let paths = |draw: u64| {
            [
                format!("/query?template={}&draw={draw}", t.name()),
                format!("/execute?stmt={stmt}&draw={draw}"),
            ]
        };
        let mut answers = Vec::with_capacity(draws.len());
        for &draw in &draws {
            let want = session
                .run(&t.instantiate(draw)?, MODE)?
                .table
                .sorted_rows();
            let mut answer = (0, 0);
            for path in paths(draw) {
                let status = client.send("POST", &path)?;
                let rows = rows_part(&client.body, false);
                let mut got = Vec::new();
                if let Some((_, rows)) = rows {
                    for line in std::str::from_utf8(rows).unwrap_or("").lines() {
                        got.push(wire::decode_row(line)?);
                    }
                    got.sort();
                }
                let ok = tally.check(status == 200 && rows.is_some() && got == want, || {
                    format!("{path}: status {status}, rows differ from Session::run")
                });
                if let (true, Some((n, rows))) = (ok, rows) {
                    answer = (n, bytes_hash(rows));
                }
            }
            answers.push(answer);
        }
        expected.push(answers);
        for (profiled, suffix) in [(0, ""), (1, "&profile=1")] {
            for endpoint in [Endpoint::Query, Endpoint::Execute] {
                requests[profiled][endpoint as usize].push(
                    draws
                        .iter()
                        .map(|&d| {
                            let path = &paths(d)[endpoint as usize];
                            render_request("POST", &format!("{path}{suffix}"))
                        })
                        .collect(),
                );
            }
        }
    }
    Ok(Plan {
        draws,
        expected,
        requests,
    })
}

pub fn run(args: RunArgs) -> Res<RunOutput> {
    let Dataset::Snb(sf) = DATASET else {
        unreachable!("snb_serve runs on SNB")
    };
    let mut tally = Tally::default();
    let mut ledger = Ledger::default();
    let mut setup_s = Samples::default();
    let mut cold_s = Samples::default();

    // Set-up (datagen, session, bind, first health check answered) and the
    // cold pass (first request of each template on the fresh server). The
    // middle set-up carries the window, so half of them run before it and
    // half after it: a burst of interference has to outlast the window to
    // slow them all.
    let setups = if args.smoke { 1 } else { SETUPS };
    for i in 0..setups {
        let start = Instant::now();
        let (session, schema) = Session::snb_with(sf, args.data_seed, session_options())?;
        let templates = snb_templates(&schema);
        let measured = i == setups / 2;
        let ((), stats) = with_server(&session, &templates, |addr| {
            let mut client = Client::connect(addr)?;
            let healthy = client.send("GET", "/healthz")? == 200;
            setup_s.push(secs(start.elapsed()));
            tally.check(healthy, || "GET /healthz was not answered 200".to_string());
            let (d, cold) = timed(|| -> Res<bool> {
                let mut all_ok = true;
                for t in &templates {
                    let path = format!("/query?template={}&draw=0", t.name());
                    all_ok &= client.send("POST", &path)? == 200;
                }
                Ok(all_ok)
            });
            cold_s.push(secs(d));
            let cold = cold?;
            tally.check(cold, || {
                "a cold-pass request was not answered 200".to_string()
            });
            drop(client);
            if measured {
                measure(addr, &session, &templates, args, &mut tally, &mut ledger)?;
            }
            Ok(())
        })?;
        if measured && args.traced {
            ledger.set("server.connections", stats.connections as f64);
            ledger.set(
                "server.non2xx",
                (stats.requests - stats.ok_responses) as f64,
            );
        }
    }

    if args.smoke {
        return Ok(RunOutput::smoke(tally));
    }
    if args.traced {
        ledger.set("cold_pass_s", cold_s.min());
        let view = layers::setup_layers(DATASET, args.data_seed, &mut ledger)?;
        layers::storage_layers(DATASET, &view, &mut ledger)?;
    } else {
        ledger.set("setup_s", setup_s.median());
    }
    Ok(RunOutput { tally, ledger })
}

/// Everything that happens against the measured server: verification and
/// warm-up, the window, the scrape, and in a traced run the in-process
/// replay the HTTP numbers are compared with.
fn measure(
    addr: &str,
    session: &Session,
    templates: &[QueryTemplate],
    args: RunArgs,
    tally: &mut Tally,
    ledger: &mut Ledger,
) -> Res<()> {
    let plan = verify_and_plan(addr, session, templates, args.seed, tally)?;
    let before = session.cache_metrics();

    let window = Instant::now();
    let reports = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let rng = Rng::new(args.seed ^ (0xc11e_0000 + c as u64));
                let plan = &plan;
                scope.spawn(move || client_loop(addr, plan, args, window, rng))
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().map_err(|_| "client thread panicked".to_string())?)
            .collect::<Res<Vec<_>>>()
    })?;

    // Memory is read here: set-ups, verification and the window are the
    // workload's; pooling the samples below is the benchmark's own.
    let peak_rss = peak_rss_mb()?;

    let mut all = ClientReport::default();
    let mut pooled = Samples::default();
    let mut per_s = 0.0;
    for r in reports {
        // Each connection's right answers over its own wall.
        per_s += r.correct as f64 / r.elapsed_s;
        r.plain_ns
            .iter()
            .for_each(|ns| pooled.push(*ns as f64 / 1e6));
        all.tally.merge(r.tally);
        all.query_ms.extend(&r.query_ms);
        all.execute_ms.extend(&r.execute_ms);
        all.profiled_ms.extend(&r.profiled_ms);
        all.body_bytes += r.body_bytes;
        all.rows += r.rows;
        all.query_requests += r.query_requests;
    }
    tally.merge(std::mem::take(&mut all.tally));
    if args.smoke {
        return Ok(());
    }
    if !args.traced {
        ledger.set("queries_per_s", per_s);
        ledger.set("query_ms_p50", crate::pooled_median(&pooled)?);
        ledger.set("peak_rss_mb", peak_rss);
        return Ok(());
    }
    crate::set_tail_percentiles(ledger, &pooled);

    // One scrape over the wire, now that the clients have hung up.
    let mut client = Client::connect(addr)?;
    let (d, status) = timed(|| client.send("GET", "/metrics"));
    let scrape = text::parse(client.body_text()?)?;
    tally.check(status? == 200, || {
        "GET /metrics was not answered 200".to_string()
    });
    drop(client);
    ledger.set("metrics.scrape_ms", millis(d));
    ledger.set("metrics.series", scrape.names().len() as f64);
    ledger.set(
        "server.keepalive_reuse_ratio",
        scrape.sum("relgo_http_keepalive_reuses_total") / scrape.sum("relgo_http_requests_total"),
    );
    // Only `POST /query` probes the plan cache (`/execute` runs a pinned
    // plan), so counts are per `/query` request of the window and its
    // length does not show in them.
    let probes = all.query_requests as f64;
    let cache = session.cache_metrics().since(&before);
    ledger.set("cache.hits", cache.hits as f64 / probes);
    ledger.set("cache.misses", cache.misses as f64 / probes);
    ledger.set("cache.invalidations", cache.invalidations as f64 / probes);
    ledger.set("cache.hit_ratio", cache.hit_ratio());

    ledger.set("server.endpoint.query_ms_p50", all.query_ms.median());
    ledger.set("server.endpoint.execute_ms_p50", all.execute_ms.median());
    ledger.set(
        "server.response_bytes_per_row",
        all.body_bytes as f64 / all.rows.max(1) as f64,
    );
    ledger.set("bench.query_samples", pooled.len() as f64);
    ledger.set("bench.passes", 1.0);
    ledger.set("bench.untraced_wall_s", pooled.mean() / 1e3);
    ledger.set("bench.traced_wall_s", all.profiled_ms.mean() / 1e3);
    if pooled.mean() > 0.0 {
        ledger.set(
            "metrics.profile_overhead_ratio",
            all.profiled_ms.mean() / pooled.mean(),
        );
    }

    // The same mix in process, profiled: stage timings and operator
    // profiles of the requests' queries, and the in-process latency the
    // HTTP median is compared with.
    let mut acc = TraceAcc::default();
    let mut in_process_ms = Samples::default();
    let mut rng = Rng::new(args.seed ^ 0xc11e_0000);
    let statements = templates
        .iter()
        .map(|t| session.prepare(&t.instantiate(0)?, MODE))
        .collect::<Result<Vec<_>>>()?;
    for i in 0..4000 {
        // A fixed number of requests from a seeded schedule: all counted.
        acc.start_pass(i % 2 == 1, true);
        let execute = rng.below(100) >= QUERY_SHARE_PERCENT;
        let t = rng.below(templates.len());
        let draw = plan.draws[rng.below(plan.draws.len())];
        let profiled = i % 2 == 1;
        let (d, result) = timed(|| -> Res<_> {
            Ok(match (execute, profiled) {
                (false, false) => (
                    session.run_cached(&templates[t].instantiate(draw)?, MODE)?,
                    None,
                ),
                (false, true) => {
                    let q = templates[t].instantiate(draw)?;
                    let (o, r) = session.run_cached_profiled(&q, MODE, None)?;
                    (o, Some(r))
                }
                (true, false) => (statements[t].execute(&templates[t].bindings(draw)?)?, None),
                (true, true) => {
                    let (o, r) =
                        statements[t].execute_profiled(&templates[t].bindings(draw)?, None)?;
                    (o, Some(r))
                }
            })
        });
        let (outcome, report) = result?;
        if !profiled {
            in_process_ms.push(millis(d));
        }
        acc.record(&outcome, d, report.as_ref());
    }
    acc.report(ledger);
    let unknown = acc.unknown_kinds();
    tally.check(unknown.is_empty(), || {
        format!("operator kinds without a metric: {unknown:?}")
    });
    ledger.set(
        "server.http_overhead_us",
        (pooled.median() - in_process_ms.median()) * 1e3,
    );

    // Direct calls: the wire codec on real result rows, the request path on
    // pairs of draws, and the client's own share of a request.
    let sample = session
        .run(&templates[0].instantiate(plan.draws[0])?, MODE)?
        .table;
    let rows: Vec<Vec<Value>> = (0..sample.num_rows().min(256) as u32)
        .map(|r| sample.row(r))
        .collect();
    let lines: Vec<String> = rows.iter().map(|r| wire::encode_row(r)).collect();
    if !rows.is_empty() {
        let n = rows.len();
        let encode = mean_time(n * 50, |i| wire::encode_row(&rows[i % n]));
        let decode = mean_time(n * 50, |i| wire::decode_row(&lines[i % n]));
        ledger.set("server.wire_encode_us_per_row", micros(encode));
        ledger.set("server.wire_decode_us_per_row", micros(decode));
    }
    let pairs = templates
        .iter()
        .map(|t| Ok((t.instantiate(plan.draws[0])?, t.instantiate(plan.draws[1])?)))
        .collect::<Res<Vec<_>>>()?;
    layers::request_path_layers(session, &pairs, MODE, ledger)?;
    let queries: Vec<&SpjmQuery> = pairs.iter().map(|(q, _)| q).collect();
    ledger.set(
        "core.optimize_aware_us",
        layers::optimize_layer(session, &queries, MODE)?,
    );
    ledger.set(
        "glogue.cached_patterns",
        session.glogue().cached_patterns() as f64,
    );
    layers::pattern_layers(&session.view(), &queries, ledger)?;

    // What the client itself costs per request: parsing a canned response
    // of typical size and hashing its rows, with no socket in the way.
    let body = format!(
        "ok rows={} cached=true epoch=0 mode=relgo\n{}\n",
        lines.len(),
        lines.join("\n")
    );
    let canned = format!(
        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .into_bytes();
    let (mut line, mut body) = (String::new(), Vec::new());
    let client_cost = mean_time(2000, |_| {
        let mut reader = canned.as_slice();
        let status = read_response(&mut reader, &mut line, &mut body);
        (
            status.is_ok(),
            rows_part(&body, false).map(|(_, r)| bytes_hash(r)),
        )
    });
    ledger.set("bench.client_us_per_req", micros(client_cost));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// "Corrupting one expected checksum makes the command fail", for the
    /// HTTP workload: one pass of requests against a live server passes as
    /// verified, and fails once one template's expected rows are spoiled.
    #[test]
    fn a_spoiled_expected_reply_fails_the_requests_that_ask_for_it() {
        let args = RunArgs {
            seed: 7,
            data_seed: 42,
            seconds: 1.0,
            traced: false,
            smoke: true,
        };
        let (session, schema) = Session::snb_with(1.0, args.data_seed, session_options()).unwrap();
        let templates = snb_templates(&schema);
        let ((clean, spoiled), _) = with_server(&session, &templates, |addr| {
            let mut tally = Tally::default();
            let mut plan = verify_and_plan(addr, &session, &templates, args.seed, &mut tally)?;
            assert!(tally.passed(), "{:?}", tally.first_failure);
            let pass = |plan: &Plan| {
                client_loop(addr, plan, args, Instant::now(), Rng::new(args.seed)).map(|r| r.tally)
            };
            let clean = pass(&plan)?;
            plan.expected[0].iter_mut().for_each(|e| e.1 ^= 1);
            Ok((clean, pass(&plan)?))
        })
        .unwrap();
        assert_eq!(clean.attempted, (templates.len() * DRAWS) as u64);
        assert!(clean.passed(), "{:?}", clean.first_failure);
        assert_eq!(spoiled.attempted, clean.attempted);
        // One template in five was spoiled; the seeded schedule asks for it.
        assert!(spoiled.failed > 0 && spoiled.failed < spoiled.attempted);
        assert!(!spoiled.passed(), "and the run exits non-zero");
    }

    #[test]
    fn response_reader_takes_exactly_one_response() {
        let two = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nConnection: keep-alive\r\n\r\nhelloHTTP/1.1 429 Too Many Requests\r\nContent-Length: 0\r\n\r\n";
        let mut reader = two.as_slice();
        let (mut line, mut body) = (String::new(), Vec::new());
        assert_eq!(
            read_response(&mut reader, &mut line, &mut body).unwrap(),
            200
        );
        assert_eq!(body, b"hello");
        assert_eq!(
            read_response(&mut reader, &mut line, &mut body).unwrap(),
            429
        );
        assert!(body.is_empty());
        assert!(
            read_response(&mut reader, &mut line, &mut body).is_err(),
            "EOF"
        );
    }

    #[test]
    fn rows_part_strips_meta_line_and_profile_tail() {
        let plain = b"ok rows=2 cached=true epoch=0 mode=relgo\ni:1\ni:2\n";
        assert_eq!(rows_part(plain, false), Some((2, &b"i:1\ni:2\n"[..])));
        let tailed = b"ok rows=2 cached=true epoch=0 mode=relgo\ni:1\ni:2\n[{\"op\":0}]\n";
        assert_eq!(rows_part(tailed, true), Some((2, &b"i:1\ni:2\n"[..])));
        let empty_tailed = b"ok rows=0 cached=true epoch=0 mode=relgo\n[]\n";
        assert_eq!(rows_part(empty_tailed, true), Some((0, &b""[..])));
        assert_eq!(rows_part(b"error: nope\n", false), None);
        assert_eq!(rows_part(b"", false), None);
    }
}
