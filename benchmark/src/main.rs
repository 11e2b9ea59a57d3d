//! The fixed perf harness of this repository (`benchmark/README.md`).
//!
//! ```text
//! bench --workload W --seed N --seconds S --trace 0|1   one run, one JSON result line
//! bench [--seed N] [--seconds S] [--runs R] [--out F]   every workload, untraced then traced
//! bench --smoke                                         every correctness check, no timings
//! bench compare A.json B.json                           B against A, by the fixed bounds
//! ```
//!
//! `--data-seed N` generates another dataset, in any of the first three.

mod compare;
mod ingest;
mod json;
mod layers;
mod serve;
mod spec;
mod stats;
mod suite;
mod util;

use json::Json;
use spec::{spec, Ledger};
use stats::Samples;
use std::collections::BTreeMap;
use std::process::ExitCode;
use util::{RunArgs, Tally};

/// An error of the benchmark itself or of a call it made, as the message
/// that is all any caller does with one. It has no `Display` of its own so
/// that every error that has one converts into it through `?`.
#[derive(Debug)]
pub struct BenchError(pub String);

pub type Res<T> = Result<T, BenchError>;

impl<E: std::fmt::Display> From<E> for BenchError {
    fn from(e: E) -> Self {
        BenchError(e.to_string())
    }
}

/// What one workload run produced.
pub struct RunOutput {
    pub tally: Tally,
    pub ledger: Ledger,
}

impl RunOutput {
    /// A `--smoke` run has checks and no timings.
    pub fn smoke(tally: Tally) -> RunOutput {
        RunOutput {
            tally,
            ledger: Ledger::default(),
        }
    }
}

/// `query_ms_p50`: the median over every right answer of the window,
/// refused below the sample count a median needs ([`stats::MIN_BEYOND`]
/// beyond it) rather than reported more quietly.
pub fn pooled_median(latency_ms: &Samples) -> Res<f64> {
    latency_ms.percentile(0.5).ok_or_else(|| {
        format!(
            "query_ms_p50: {} right answers in the window, too few for a median; run longer",
            latency_ms.len()
        )
        .into()
    })
}

/// `query_ms_p95` and `query_ms_p99` of a traced run's plain requests. The
/// tails do not repeat within their bound from run to run on this machine
/// (README, "Demoted"), so they are per-layer metrics; one the window has
/// too few samples for is left unset and reads 0.
pub fn set_tail_percentiles(ledger: &mut Ledger, latency_ms: &Samples) {
    for (name, p) in [("query_ms_p95", 0.95), ("query_ms_p99", 0.99)] {
        if let Some(value) = latency_ms.percentile(p) {
            ledger.set(name, value);
        }
    }
}

fn run_workload(name: &str, args: RunArgs) -> Res<RunOutput> {
    match name {
        "snb_adhoc" => suite::SNB_ADHOC.run(args),
        "job_agnostic" => suite::JOB_AGNOSTIC.run(args),
        "snb_serve" => serve::run(args),
        "snb_ingest_mixed" => ingest::run(args),
        other => Err(format!("unknown workload {other}").into()),
    }
}

/// The command line, parsed.
#[derive(Debug, Default)]
struct Cli {
    compare: Vec<String>,
    workload: Option<String>,
    seed: Option<u64>,
    data_seed: Option<u64>,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    runs: Option<usize>,
    out: Option<String>,
}

fn parse_cli(args: &[String]) -> Res<Cli> {
    let mut cli = Cli::default();
    if args.first().is_some_and(|a| a == "compare") {
        cli.compare = args[1..].to_vec();
        if cli.compare.len() != 2 {
            return Err("usage: bench compare A.json B.json".into());
        }
        return Ok(cli);
    }
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| BenchError(format!("{flag} needs a value")))
        };
        let bad = |what: &str| BenchError(format!("{flag}: {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = Some(value()?.parse().map_err(|_| bad("not a whole number"))?),
            "--data-seed" => {
                cli.data_seed = Some(value()?.parse().map_err(|_| bad("not a whole number"))?);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("out of range"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("is 0 or 1")),
                }
            }
            "--runs" => {
                cli.runs = Some(value()?.parse().map_err(|_| bad("not a whole number"))?);
            }
            "--out" => cli.out = Some(value()?.clone()),
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other}").into()),
        }
    }
    Ok(cli)
}

/// One workload, one result line — the form the benchmark contract fixes.
fn single_run(workload: &str, args: RunArgs) -> ExitCode {
    let output = run_workload(workload, args).and_then(|out| {
        let values = if args.smoke {
            BTreeMap::new()
        } else {
            out.ledger.finish(args.traced)?
        };
        Ok((out.tally, values))
    });
    let (tally, values) = match output {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench: {workload}: {}", e.0);
            return ExitCode::FAILURE;
        }
    };
    if let Some(first) = &tally.first_failure {
        eprintln!(
            "bench: {workload}: {} of {} checks failed, first: {first}",
            tally.failed, tally.attempted
        );
    }
    let unit_of = |name: &str| {
        spec()
            .find(name)
            .map(|m| m.unit.clone())
            .unwrap_or_default()
    };
    let line = Json::obj([
        ("correct", Json::Bool(tally.passed())),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", Json::metrics(&values, unit_of)),
    ]);
    println!("{}", line.render());
    if tally.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("bench: {}", e.0);
            return ExitCode::from(2);
        }
    };
    if !cli.compare.is_empty() {
        return compare::main(&cli.compare[0], &cli.compare[1]);
    }
    let args = RunArgs {
        seed: cli.seed.unwrap_or(42),
        data_seed: cli.data_seed.unwrap_or(layers::DEFAULT_DATA_SEED),
        seconds: cli.seconds.unwrap_or(spec().run_seconds as f64),
        traced: cli.traced,
        smoke: cli.smoke,
    };
    match &cli.workload {
        Some(workload) => single_run(workload, args),
        None => compare::run_all(
            args,
            cli.runs.unwrap_or(compare::DEFAULT_RUNS),
            cli.out.as_deref(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Res<Cli> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line_of_the_contract() {
        let c = cli(&[
            "--workload",
            "snb_serve",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("snb_serve"));
        assert_eq!((c.seed, c.seconds, c.traced), (Some(7), Some(10.0), true));
        assert_eq!(c.data_seed, None);
        assert_eq!(cli(&["--data-seed", "7"]).unwrap().data_seed, Some(7));
        assert!(cli(&["--trace", "2"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
        assert!(cli(&["compare", "a.json"]).is_err());
        assert_eq!(cli(&["compare", "a", "b"]).unwrap().compare, ["a", "b"]);
    }

    #[test]
    fn every_listed_workload_has_a_runner() {
        for (name, _) in &spec().workloads {
            assert!(
                ["snb_adhoc", "job_agnostic", "snb_serve", "snb_ingest_mixed"]
                    .contains(&name.as_str()),
                "{name}"
            );
        }
        let none = RunArgs {
            seed: 1,
            data_seed: 1,
            seconds: 1.0,
            traced: false,
            smoke: true,
        };
        assert!(run_workload("no_such_workload", none).is_err());
    }

    #[test]
    fn an_unsupported_percentile_is_refused_or_left_unset() {
        let mut few = Samples::default();
        (0..19).for_each(|i| few.push(i as f64));
        assert!(pooled_median(&few).is_err());
        few.push(19.0);
        assert_eq!(pooled_median(&few).unwrap(), 9.0);

        let mut some = Samples::default();
        (0..500).for_each(|i| some.push(i as f64));
        let mut ledger = Ledger::default();
        set_tail_percentiles(&mut ledger, &some);
        let values = ledger.finish(true).unwrap();
        assert_eq!(values["query_ms_p95"], 474.0);
        assert_eq!(
            values["query_ms_p99"], 0.0,
            "500 samples do not support p99"
        );
    }
}
