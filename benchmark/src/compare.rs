//! The full run (`bench` with no `--workload`) and `bench compare`.
//!
//! A full run starts one child process per (workload, untraced | traced),
//! prints every metric by name with its unit, and with `--out` leaves a
//! machine-readable point behind. `compare` reads two such points and
//! judges the second against the first by the bounds `BENCHMARK.json`
//! fixes — the `bench-diff` of ROADMAP item 1.

use crate::json::{self, Json};
use crate::spec::{spec, Better, Metric};
use crate::stats::{median, quartile_spread};
use crate::util::RunArgs;
use crate::Res;
use std::process::{Command, ExitCode, Stdio};

/// Runs per workload of a full run unless `--runs` says otherwise: `compare`
/// needs [`MIN_RUNS`] values a side to know their spread.
pub const DEFAULT_RUNS: usize = 5;

/// Fewer values than this on either side and a row is `unresolved`: the
/// spread of one or two runs is not known, so "no worse" cannot be told
/// from the luck of the draw.
pub const MIN_RUNS: usize = 4;
const _: () = assert!(DEFAULT_RUNS >= MIN_RUNS, "a default full run can be judged");

/// Per-layer metrics `compare` holds to a bound as well, as
/// `(workload, metric, bound)`: the end-to-end metrics of ISSUE 11 that one
/// workload defines. The benchmark contract wants every end-to-end metric
/// from every workload, each steady over ten runs, so they are listed per
/// layer in `BENCHMARK.json`, where a metric has no bound, and bounded here.
pub const GUARDS: [(&str, &str, f64); 4] = [
    ("snb_adhoc", "cold_pass_s", 0.25),
    ("snb_ingest_mixed", "ingest.commit_ms_p50", 0.25),
    ("snb_ingest_mixed", "ingest.checkpoint_s", 0.25),
    ("snb_ingest_mixed", "ingest.recover_s", 0.25),
];

/// What two points must have in common to be compared: a row judged across
/// different inputs or window lengths says nothing about the code.
const SAME_CONDITIONS: [&str; 5] = ["seed", "data_seed", "seconds", "runs", "nproc"];

/// Run one child and parse the result line it prints last.
fn child_run(workload: &str, args: RunArgs) -> Res<Json> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--data-seed", &args.data_seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or_else(|| {
        format!(
            "{workload}: the child printed no result ({})",
            output.status
        )
    })?;
    let result = json::parse(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    // A child that found wrong answers still prints its line and exits 1;
    // its `failed` count is what the summary reports.
    if result.get("failed").and_then(Json::as_f64).is_none() {
        return Err(format!("{workload}: result line has no failed count").into());
    }
    Ok(result)
}

/// `{metric: {"unit": u, "values": [one per run]}}` for the listed metrics.
fn collect(listed: &[Metric], runs: &[Json]) -> Json {
    Json::obj(listed.iter().map(|m| {
        let values = runs
            .iter()
            .filter_map(|r| r.get("metrics")?.get(&m.name)?.get("value")?.as_f64())
            .map(Json::Num)
            .collect();
        let entry = Json::obj([
            ("unit", Json::Str(m.unit.clone())),
            ("values", Json::Arr(values)),
        ]);
        (m.name.clone(), entry)
    }))
}

fn values_of(entry: Option<&Json>) -> Vec<f64> {
    entry
        .and_then(|e| e.get("values"))
        .and_then(Json::as_arr)
        .map(|vs| vs.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

pub fn run_all(args: RunArgs, runs: usize, out: Option<&str>) -> ExitCode {
    match run_all_inner(args, runs.max(1), out) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {}", e.0);
            ExitCode::FAILURE
        }
    }
}

fn run_all_inner(args: RunArgs, runs: usize, out: Option<&str>) -> Res<bool> {
    let s = spec();
    let RunArgs {
        seed,
        data_seed,
        seconds,
        smoke,
        ..
    } = args;
    // Runs are the outer loop, so the runs of one workload are spread over
    // the whole session and a slow spell of the host falls on one run of
    // every workload, not on every run of one.
    let mut results = vec![(Vec::new(), Vec::new()); s.workloads.len()];
    let rounds = if smoke { 1 } else { runs };
    for round in 1..=rounds {
        for ((name, _), (untraced, traced_runs)) in s.workloads.iter().zip(&mut results) {
            eprintln!("bench: run {round} of {rounds}: {name}");
            untraced.push(child_run(
                name,
                RunArgs {
                    traced: false,
                    ..args
                },
            )?);
            if !smoke {
                traced_runs.push(child_run(
                    name,
                    RunArgs {
                        traced: true,
                        ..args
                    },
                )?);
            }
        }
    }
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for ((name, _), (untraced, traced_runs)) in s.workloads.iter().zip(&results) {
        let total = |key: &str| -> f64 {
            untraced
                .iter()
                .chain(traced_runs)
                .filter_map(|r| r.get(key)?.as_f64())
                .sum()
        };
        let (attempted, failed) = (total("attempted"), total("failed"));
        all_correct &= failed == 0.0;
        println!(
            "{name}: {} ({failed} of {attempted} checks failed)",
            if failed == 0.0 { "correct" } else { "WRONG" }
        );
        let end_to_end = collect(&s.end_to_end, untraced);
        let per_layer = collect(&s.per_layer, traced_runs);
        for (section, metrics) in [(&s.end_to_end, &end_to_end), (&s.per_layer, &per_layer)] {
            for m in section.iter() {
                let values = values_of(metrics.get(&m.name));
                if !values.is_empty() {
                    println!(
                        "{name}  {:<34} {:>14.4} {}",
                        m.name,
                        median(&values),
                        m.unit
                    );
                }
            }
        }
        workloads.push((
            name.clone(),
            Json::obj([
                ("correct", Json::Bool(failed == 0.0)),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("fail_ratio", Json::Num(failed / attempted.max(1.0))),
                ("end_to_end", end_to_end),
                ("per_layer", per_layer),
            ]),
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let summary = Json::obj([
        (
            "commit",
            Json::Str(std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string())),
        ),
        ("seed", Json::Num(seed as f64)),
        ("data_seed", Json::Num(data_seed as f64)),
        ("nproc", Json::Num(nproc as f64)),
        ("seconds", Json::Num(seconds)),
        ("runs", Json::Num(runs as f64)),
        ("smoke", Json::Bool(smoke)),
        ("workloads", Json::Obj(workloads)),
        // A benchmark point claims nothing; a PR that claims a gain says so
        // in its own text, with two of these files behind it.
        ("claim", Json::Null),
    ]);
    if let Some(path) = out {
        std::fs::write(path, summary.render() + "\n")?;
    }
    println!("{}", summary.render());
    Ok(all_correct)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge the change's values against the base's. `unresolved` when a side
/// has fewer than [`MIN_RUNS`] values; `worse` when the change's median is
/// worse than the base's by more than `bound` of the base; otherwise
/// `unresolved` when either side's run-to-run spread is wider than the
/// bound (so "no worse" would be an accident of the draw); otherwise `ok`.
pub fn judge(better: Better, bound: f64, base: &[f64], change: &[f64]) -> Verdict {
    if base.len() < MIN_RUNS || change.len() < MIN_RUNS {
        return Verdict::Unresolved;
    }
    let (a, b) = (median(base), median(change));
    let worsening = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if worsening > bound * a.abs() {
        return Verdict::Worse;
    }
    let wide = |values: &[f64]| quartile_spread(values).is_some_and(|s| s > bound);
    if wide(base) || wide(change) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// How far the change's median lies from the base's, in units of the wider
/// of the two sides' quartile distances. The bounds have to be wide enough
/// for this host's slow spells; this column is not. Above 1 the two sets of
/// runs hardly overlap, which is the second half of the rule for a claim
/// (choosing-metrics §8), so a shift of a tenth inside a bound of a quarter
/// still shows when the runs were steady. It changes no verdict.
pub fn shift_in_spreads(base: &[f64], change: &[f64]) -> Option<f64> {
    let (ma, mb) = (median(base), median(change));
    let wider = f64::max(
        quartile_spread(base)? * ma.abs(),
        quartile_spread(change)? * mb.abs(),
    );
    (wider > 0.0).then(|| (mb - ma).abs() / wider)
}

pub fn main(base_path: &str, change_path: &str) -> ExitCode {
    match compare_files(base_path, change_path) {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench compare: {}", e.0);
            ExitCode::from(2)
        }
    }
}

/// Print the table; `true` when any row is `worse`.
fn compare_files(base_path: &str, change_path: &str) -> Res<bool> {
    let read = |path: &str| -> Res<Json> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Ok(json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
    };
    let (base, change) = (read(base_path)?, read(change_path)?);
    for key in SAME_CONDITIONS {
        let (a, b) = (base.get(key), change.get(key));
        if a.is_none() || a != b {
            let show = |v: Option<&Json>| v.map_or("nothing".to_string(), Json::render);
            return Err(format!(
                "{key} is {} in {base_path} and {} in {change_path}: \
                 compare points taken under the same conditions",
                show(a),
                show(b)
            )
            .into());
        }
    }
    let s = spec();
    let mut any_worse = false;
    println!(
        "{:<18} {:<20} {:>12} {:>12}  {:<22} {:<11}shift",
        "workload", "metric", "base", "change", "change/base", "verdict"
    );
    for (name, _) in &s.workloads {
        let side = |doc: &Json, section: &str, metric: &str| -> Vec<f64> {
            values_of(
                doc.get("workloads")
                    .and_then(|w| w.get(name))
                    .and_then(|w| w.get(section))
                    .and_then(|s| s.get(metric)),
            )
        };
        let bounded = s
            .end_to_end
            .iter()
            .map(|m| ("end_to_end", m, m.bound.unwrap_or(0.0)));
        let guarded = GUARDS.iter().filter(|g| g.0 == name).filter_map(|g| {
            let m = s.per_layer.iter().find(|m| m.name == g.1)?;
            Some(("per_layer", m, g.2))
        });
        for (section, m, bound) in bounded.chain(guarded) {
            let (a, b) = (
                side(&base, section, &m.name),
                side(&change, section, &m.name),
            );
            let verdict = judge(m.better, bound, &a, &b);
            any_worse |= verdict == Verdict::Worse;
            let (ma, mb) = (median(&a), median(&b));
            println!(
                "{name:<18} {:<20} {ma:>12.4} {mb:>12.4}  {:<22} {:<11}{}",
                m.name,
                format!("{:.3} of {ma:.4} {}", mb / ma, m.unit),
                verdict.label(),
                shift_in_spreads(&a, &b).map_or(String::new(), |x| format!("{x:.1} spreads"))
            );
        }
        // Wrong answers have no bound to stay within: any more than the
        // base had is a regression.
        let fail_ratio = |doc: &Json| {
            doc.get("workloads")
                .and_then(|w| w.get(name))
                .and_then(|w| w.get("fail_ratio"))
                .and_then(Json::as_f64)
        };
        let verdict = match (fail_ratio(&base), fail_ratio(&change)) {
            (Some(a), Some(b)) if b > a => Verdict::Worse,
            (Some(_), Some(_)) => Verdict::Ok,
            _ => Verdict::Unresolved,
        };
        any_worse |= verdict == Verdict::Worse;
        println!(
            "{name:<18} {:<20} {:>12} {:>12}  {:<22} {}",
            "fail_ratio",
            fail_ratio(&base).map_or("-".to_string(), |v| v.to_string()),
            fail_ratio(&change).map_or("-".to_string(), |v| v.to_string()),
            "",
            verdict.label()
        );
        // Counts made by the program repeat exactly on one seed; one that
        // moved is worth a line even though no bound applies to it.
        // (`bench.*` are the harness's own sample counts and follow the clock.)
        let counts = |m: &&Metric| m.unit == "count" && !m.name.starts_with("bench.");
        for m in s.per_layer.iter().filter(counts) {
            let (a, b) = (
                side(&base, "per_layer", &m.name),
                side(&change, "per_layer", &m.name),
            );
            if !a.is_empty() && !b.is_empty() && median(&a) != median(&b) {
                println!(
                    "{name:<18} count moved: {} {} -> {}",
                    m.name,
                    median(&a),
                    median(&b)
                );
            }
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_the_bound_in_the_metrics_direction() {
        use Better::{Higher, Lower};
        let base = [100.0; MIN_RUNS];
        let at = |v: f64| [v; MIN_RUNS];
        assert_eq!(judge(Lower, 0.1, &base, &at(109.0)), Verdict::Ok);
        assert_eq!(judge(Lower, 0.1, &base, &at(111.0)), Verdict::Worse);
        assert_eq!(
            judge(Lower, 0.1, &base, &at(50.0)),
            Verdict::Ok,
            "a gain is not worse"
        );
        assert_eq!(judge(Higher, 0.1, &base, &at(91.0)), Verdict::Ok);
        assert_eq!(judge(Higher, 0.1, &base, &at(89.0)), Verdict::Worse);
    }

    #[test]
    fn shift_is_counted_in_quartile_distances() {
        // The quartile distance of both sides is 5.5: a move of 11 is two of
        // them, though it is inside a bound of a quarter.
        let base: Vec<f64> = (96..=105).map(f64::from).collect();
        let moved: Vec<f64> = base.iter().map(|v| v + 11.0).collect();
        assert_eq!(judge(Better::Lower, 0.25, &base, &moved), Verdict::Ok);
        let shift = shift_in_spreads(&base, &moved).unwrap();
        assert!((shift - 2.0).abs() < 1e-9, "{shift}");
        assert_eq!(shift_in_spreads(&base, &base), Some(0.0));
        assert_eq!(shift_in_spreads(&base[..3], &moved), None, "too few runs");
        assert_eq!(shift_in_spreads(&[5.0; 4], &[6.0; 4]), None, "no spread");
    }

    #[test]
    fn too_few_runs_to_know_the_spread_is_unresolved() {
        let base = [100.0; MIN_RUNS];
        let few = [100.0; MIN_RUNS - 1];
        for (a, b) in [
            (&base[..], &few[..]),
            (&few[..], &base[..]),
            (&[][..], &[][..]),
        ] {
            assert_eq!(judge(Better::Lower, 0.1, a, b), Verdict::Unresolved);
        }
        // Not even a change that looks three times slower: one run each is
        // an anecdote on a machine whose runs differ by a fifth.
        assert_eq!(
            judge(Better::Lower, 0.1, &[100.0], &[300.0]),
            Verdict::Unresolved
        );
    }

    #[test]
    fn guards_name_listed_per_layer_metrics() {
        for (workload, metric, bound) in GUARDS {
            assert!(spec().workloads.iter().any(|(w, _)| w == workload));
            assert!(
                spec().per_layer.iter().any(|m| m.name == metric),
                "{metric}"
            );
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    #[test]
    fn points_taken_under_different_conditions_are_refused() {
        let dir = crate::util::ScratchDir::create("compare-conditions").unwrap();
        let point = |name: &str, seed: u64, seconds: u64| {
            let path = dir.path().join(name);
            let doc = Json::obj([
                ("seed", Json::Num(seed as f64)),
                ("data_seed", Json::Num(42.0)),
                ("seconds", Json::Num(seconds as f64)),
                ("runs", Json::Num(5.0)),
                ("nproc", Json::Num(2.0)),
                ("workloads", Json::Obj(Vec::new())),
            ]);
            std::fs::write(&path, doc.render()).unwrap();
            path.to_string_lossy().into_owned()
        };
        let (a, same) = (point("a.json", 42, 20), point("same.json", 42, 20));
        let (seed, seconds) = (point("seed.json", 7, 20), point("seconds.json", 42, 5));
        assert!(!compare_files(&a, &same).unwrap(), "nothing to call worse");
        for other in [&seed, &seconds] {
            let refused = compare_files(&a, other).unwrap_err();
            assert!(refused.0.contains("same conditions"), "{}", refused.0);
        }
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_ok() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5, 99.5];
        let noisy = [80.0, 120.0, 90.0, 110.0, 70.0, 130.0];
        assert_eq!(judge(Better::Lower, 0.1, &steady, &steady), Verdict::Ok);
        assert_eq!(
            judge(Better::Lower, 0.1, &steady, &noisy),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Lower, 0.1, &noisy, &steady),
            Verdict::Unresolved
        );
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.3).collect();
        assert_eq!(judge(Better::Lower, 0.1, &steady, &slower), Verdict::Worse);
    }

    #[test]
    fn summary_round_trips_through_the_compare_reader() {
        let runs = [
            json::parse(r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.5125,"unit":"s"}}}"#).unwrap(),
            json::parse(r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.4875,"unit":"s"}}}"#).unwrap(),
        ];
        let collected = collect(&spec().end_to_end, &runs);
        let reread = json::parse(&collected.render()).unwrap();
        assert_eq!(values_of(reread.get("setup_s")), [0.5125, 0.4875]);
        assert_eq!(
            reread
                .get("setup_s")
                .and_then(|e| e.get("unit"))
                .and_then(Json::as_str),
            Some("s")
        );
        assert!(
            values_of(reread.get("queries_per_s")).is_empty(),
            "absent stays absent"
        );
    }
}
