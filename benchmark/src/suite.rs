//! The two ad-hoc workloads: a fixed suite of queries, each optimized fresh
//! and executed through `Session::run`, one client, no plan cache.
//!
//! `snb_adhoc` runs the 18 LDBC interactive queries under the converged
//! optimizer (`RelGo`); `job_agnostic` runs the 33 JOB queries under the
//! graph-agnostic baseline (`DuckDbLike`). Each is the other's control:
//! what moves one should leave the other flat.

use crate::layers::{self, Dataset, TraceAcc};
use crate::spec::Ledger;
use crate::stats::Samples;
use crate::util::{
    millis, peak_rss_mb, secs, session_options, table_digest, timed, Rng, RunArgs, Tally,
};
use crate::{Res, RunOutput};
use relgo::prelude::*;
use relgo::workloads::{job_queries, snb_queries, Workload};
use std::time::{Duration, Instant};

pub struct Suite {
    dataset: Dataset,
    /// The optimizer the measured queries run under.
    mode: OptimizerMode,
    /// The other optimizer family, whose rows the answers must equal.
    check_mode: OptimizerMode,
    /// Fresh sessions per run: each gives one set-up and one cold pass.
    setups: usize,
}

pub const SNB_ADHOC: Suite = Suite {
    dataset: Dataset::Snb(30.0),
    mode: OptimizerMode::RelGo,
    check_mode: OptimizerMode::DuckDbLike,
    setups: 3,
};

pub const JOB_AGNOSTIC: Suite = Suite {
    dataset: Dataset::Imdb(10.0),
    mode: OptimizerMode::DuckDbLike,
    check_mode: OptimizerMode::RelGo,
    // Cheap here (0.1 s + 0.55 s each), and the fastest of five cold passes
    // repeats better than the fastest of three.
    setups: 5,
};

impl Suite {
    fn open(&self, data_seed: u64) -> Res<(Session, Vec<Workload>)> {
        Ok(match self.dataset {
            Dataset::Snb(sf) => {
                let (session, schema) = Session::snb_with(sf, data_seed, session_options())?;
                let queries = snb_queries::ldbc_interactive(&schema)?;
                (session, queries)
            }
            Dataset::Imdb(sf) => {
                let (session, schema) = Session::imdb_with(sf, data_seed, session_options())?;
                let queries = job_queries::job_queries(&schema)?;
                (session, queries)
            }
        })
    }

    /// One set-up and its cold pass: a fresh session counts its GLogue
    /// patterns lazily, so the first pass over the suite pays for them. The
    /// first cold pass of a run fixes the digests every later answer is held
    /// to; the other optimizer family vouches for them after the window.
    fn fresh(
        &self,
        data_seed: u64,
        setup_s: &mut Samples,
        cold_s: &mut Samples,
        expected: &mut Vec<(usize, u64)>,
        tally: &mut Tally,
    ) -> Res<(Session, Vec<Workload>)> {
        let (d, session) = timed(|| self.open(data_seed));
        let (session, queries) = session?;
        setup_s.push(secs(d));
        let (d, digests) = timed(|| {
            queries
                .iter()
                .map(|w| Ok(table_digest(&session.run(&w.query, self.mode)?.table)))
                .collect::<Res<Vec<_>>>()
        });
        cold_s.push(secs(d));
        let digests = digests?;
        if expected.is_empty() {
            *expected = digests;
        } else {
            for (w, (got, want)) in queries.iter().zip(digests.iter().zip(expected.iter())) {
                tally.check(got == want, || {
                    format!("{}: cold pass answer differs", w.name)
                });
            }
        }
        Ok((session, queries))
    }

    /// One query of the window: the wall of the `run` call alone, and the
    /// outcome if it answered. The answer is held to the digest fixed for it;
    /// an error and a wrong answer both count as failed.
    fn ask(
        &self,
        session: &Session,
        w: &Workload,
        want: (usize, u64),
        profiled: bool,
        tally: &mut Tally,
    ) -> (Duration, Option<(QueryOutcome, Option<PlanReport>)>) {
        let (d, result) = timed(|| -> Res<_> {
            Ok(if profiled {
                let (outcome, report) = session.run_profiled(&w.query, self.mode)?;
                (outcome, Some(report))
            } else {
                (session.run(&w.query, self.mode)?, None)
            })
        });
        let answered = match result {
            Ok(answered) => {
                let right = tally.check(table_digest(&answered.0.table) == want, || {
                    format!("{}: answer differs from the cold pass", w.name)
                });
                right.then_some(answered)
            }
            Err(e) => {
                tally.check(false, || format!("{}: {}", w.name, e.0));
                None
            }
        };
        (d, answered)
    }

    pub fn run(&self, args: RunArgs) -> Res<RunOutput> {
        let mut tally = Tally::default();
        let mut ledger = Ledger::default();
        let mut setup_s = Samples::default();
        let mut cold_s = Samples::default();
        let mut expected = Vec::new();

        // Half of the set-ups run before the window and half after it, so a
        // burst of interference has to outlast the window to slow them all.
        let setups = if args.smoke { 1 } else { self.setups };
        let setups_after = setups / 2;
        let mut opened = None;
        for _ in setups_after..setups {
            drop(opened.take());
            opened = Some(self.fresh(
                args.data_seed,
                &mut setup_s,
                &mut cold_s,
                &mut expected,
                &mut tally,
            )?);
        }
        let (session, queries) = opened.expect("at least one set-up");
        let cached_patterns = session.glogue().cached_patterns();

        // `--seed` fixes the order the suite is asked in.
        let mut order: Vec<usize> = (0..queries.len()).collect();
        let mut rng = Rng::new(args.seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }

        // The measured window: whole passes over the suite until the time
        // is up. Only the `run` calls are timed; checking an answer is the
        // benchmark's own cost and stays out of every metric. A traced run
        // alternates plain and profiled passes, so both see the same drift.
        let mut latency_ms = Samples::default();
        let mut plain_pass_s = Samples::default();
        let mut profiled_pass_s = Samples::default();
        let mut acc = TraceAcc::default();
        let window = Instant::now();
        let mut passes = 0;
        while args.keep_going(window, passes) {
            let profiled = args.traced && passes % 2 == 1;
            // Every pass asks the same queries, so every pass is counted.
            acc.start_pass(profiled, true);
            let mut pass_s = 0.0;
            for &i in &order {
                let (d, outcome) =
                    self.ask(&session, &queries[i], expected[i], profiled, &mut tally);
                pass_s += secs(d);
                let Some((outcome, report)) = outcome else {
                    continue;
                };
                if !profiled {
                    latency_ms.push(millis(d));
                }
                if args.traced {
                    acc.record(&outcome, d, report.as_ref());
                }
            }
            if profiled {
                profiled_pass_s.push(pass_s);
            } else {
                plain_pass_s.push(pass_s);
            }
            passes += 1;
        }
        // Memory is read here, before the differential check below runs
        // every query under the other optimizer: that is the checker's
        // memory, not the workload's.
        let peak_rss = peak_rss_mb()?;

        // Each query's rows under the measured optimizer must equal its rows
        // under the other family's, and be the rows the window was held to.
        for (w, want) in queries.iter().zip(&expected) {
            let got = session.run(&w.query, self.mode)?.table;
            let other = session.run(&w.query, self.check_mode)?.table;
            tally.check(
                got.sorted_rows() == other.sorted_rows() && table_digest(&got) == *want,
                || {
                    format!(
                        "{}: {} and {} disagree",
                        w.name,
                        self.mode.name(),
                        self.check_mode.name()
                    )
                },
            );
        }

        if args.smoke {
            return Ok(RunOutput::smoke(tally));
        }
        if !args.traced {
            drop((session, queries));
            for _ in 0..setups_after {
                self.fresh(
                    args.data_seed,
                    &mut setup_s,
                    &mut cold_s,
                    &mut expected,
                    &mut tally,
                )?;
            }
            ledger.set("setup_s", setup_s.median());
            ledger.set("query_ms_p50", crate::pooled_median(&latency_ms)?);
            // Right answers over the time spent answering, the whole window:
            // a wrong or failed query adds its time and no answer.
            ledger.set(
                "queries_per_s",
                latency_ms.len() as f64 / plain_pass_s.sum(),
            );
            ledger.set("peak_rss_mb", peak_rss);
            return Ok(RunOutput { tally, ledger });
        }

        let unknown = acc.unknown_kinds();
        tally.check(unknown.is_empty(), || {
            format!("operator kinds without a metric: {unknown:?}")
        });
        acc.report(&mut ledger);
        crate::set_tail_percentiles(&mut ledger, &latency_ms);
        ledger.set("cold_pass_s", cold_s.min());
        ledger.set("glogue.cached_patterns", cached_patterns as f64);
        ledger.set("bench.passes", passes as f64);
        ledger.set("bench.query_samples", latency_ms.len() as f64);
        ledger.set("bench.untraced_wall_s", plain_pass_s.median());
        ledger.set("bench.traced_wall_s", profiled_pass_s.median());
        if plain_pass_s.median() > 0.0 {
            ledger.set(
                "metrics.profile_overhead_ratio",
                profiled_pass_s.median() / plain_pass_s.median(),
            );
        }
        layers::scrape_layer(&session, &mut ledger);
        let plain: Vec<&SpjmQuery> = queries.iter().map(|w| &w.query).collect();
        let optimize_us = layers::optimize_layer(&session, &plain, self.mode)?;
        ledger.set(
            if self.mode == OptimizerMode::RelGo {
                "core.optimize_aware_us"
            } else {
                "core.optimize_agnostic_us"
            },
            optimize_us,
        );
        // The measured session is done; the direct calls below build their
        // own view so they never share state with it.
        drop(session);
        let view = layers::setup_layers(self.dataset, args.data_seed, &mut ledger)?;
        layers::storage_layers(self.dataset, &view, &mut ledger)?;
        layers::pattern_layers(&view, &plain, &mut ledger)?;
        Ok(RunOutput { tally, ledger })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// "Corrupting one expected checksum makes the command fail", for both
    /// suite workloads: a query held to a spoiled digest is a failed check,
    /// counts no answer, and `main` turns a failed check into exit 1.
    #[test]
    fn a_spoiled_expected_digest_fails_the_query() {
        let small = Suite {
            dataset: Dataset::Snb(1.0),
            ..SNB_ADHOC
        };
        let (mut setup_s, mut cold_s) = (Samples::default(), Samples::default());
        let (mut expected, mut tally) = (Vec::new(), Tally::default());
        let (session, queries) = small
            .fresh(42, &mut setup_s, &mut cold_s, &mut expected, &mut tally)
            .unwrap();
        assert_eq!(expected.len(), queries.len());
        for profiled in [false, true] {
            let (_, right) = small.ask(&session, &queries[0], expected[0], profiled, &mut tally);
            assert!(right.is_some());
        }
        assert_eq!((tally.attempted, tally.failed), (2, 0));
        let spoiled = (expected[0].0, expected[0].1 ^ 1);
        let (_, wrong) = small.ask(&session, &queries[0], spoiled, false, &mut tally);
        assert!(wrong.is_none());
        assert_eq!((tally.attempted, tally.failed), (3, 1));
        assert!(!tally.passed(), "and the run exits non-zero");
    }
}
