//! Query-lifecycle tracing: a [`QueryTrace`] times each stage a query
//! passes through (parse → parameterize → cache probe → optimize/rebind →
//! execute → materialize → serialize, plus the ingest-side WAL append) and
//! folds into [`StageTimings`], whose [`StageTimings::coverage`]
//! quantifies how much of the measured end-to-end latency the stages
//! account for — the benchmark's `relgo.trace_coverage` row.

use std::time::{Duration, Instant};

/// A stage of the query lifecycle, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Query construction / template instantiation.
    Parse,
    /// Literal extraction into a parameterized cache key.
    Parameterize,
    /// Plan-cache lookup (hit or miss).
    CacheProbe,
    /// Full optimization on a cache miss.
    Optimize,
    /// Parameter rebinding of a cached/pinned plan.
    Rebind,
    /// Physical-plan execution.
    Execute,
    /// Result materialization / response encoding.
    Materialize,
    /// Wire serialization of the response body at the serving edge.
    Serialize,
    /// Write-ahead-log append + group-commit sync of an ingest commit.
    WalAppend,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 9] = [
        Stage::Parse,
        Stage::Parameterize,
        Stage::CacheProbe,
        Stage::Optimize,
        Stage::Rebind,
        Stage::Execute,
        Stage::Materialize,
        Stage::Serialize,
        Stage::WalAppend,
    ];

    /// Stable label value used in metric series (`stage="execute"`).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Parameterize => "parameterize",
            Stage::CacheProbe => "cache_probe",
            Stage::Optimize => "optimize",
            Stage::Rebind => "rebind",
            Stage::Execute => "execute",
            Stage::Materialize => "materialize",
            Stage::Serialize => "serialize",
            Stage::WalAppend => "wal_append",
        }
    }

    fn idx(self) -> usize {
        match self {
            Stage::Parse => 0,
            Stage::Parameterize => 1,
            Stage::CacheProbe => 2,
            Stage::Optimize => 3,
            Stage::Rebind => 4,
            Stage::Execute => 5,
            Stage::Materialize => 6,
            Stage::Serialize => 7,
            Stage::WalAppend => 8,
        }
    }
}

/// An in-flight trace of one query. Start it before the first stage, charge
/// stage durations as they happen, and [`QueryTrace::finish`] to freeze the
/// wall-clock total alongside the per-stage breakdown.
#[derive(Debug)]
pub struct QueryTrace {
    started: Instant,
    stages: [Duration; 9],
}

impl QueryTrace {
    /// Begin tracing now.
    pub fn start() -> QueryTrace {
        QueryTrace {
            started: Instant::now(),
            stages: [Duration::ZERO; 9],
        }
    }

    /// When the trace began (so a caller can date its own measurements
    /// from the same clock read).
    pub fn started(&self) -> Instant {
        self.started
    }

    /// Run `f`, charging its wall time to `stage`.
    #[inline]
    pub fn time<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(stage, t0.elapsed());
        out
    }

    /// Charge an externally measured duration to `stage` (for code paths
    /// that already time themselves, e.g. `QueryOutcome::exec_time`).
    #[inline]
    pub fn add(&mut self, stage: Stage, d: Duration) {
        self.stages[stage.idx()] += d;
    }

    /// Freeze the trace: per-stage durations plus total wall time since
    /// [`QueryTrace::start`].
    pub fn finish(self) -> StageTimings {
        StageTimings {
            stages: self.stages,
            total: self.started.elapsed(),
        }
    }
}

/// A completed trace: per-stage durations and the end-to-end wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    stages: [Duration; 9],
    /// End-to-end wall time of the traced region.
    pub total: Duration,
}

impl StageTimings {
    /// The time charged to `stage`.
    pub fn get(&self, stage: Stage) -> Duration {
        self.stages[stage.idx()]
    }

    /// Charge an after-the-fact stage measured *outside* the traced region
    /// (e.g. response serialization at the serving edge, which happens
    /// after the session froze the trace). The total extends by the same
    /// amount so coverage stays consistent.
    pub fn add(&mut self, stage: Stage, d: Duration) {
        self.stages[stage.idx()] += d;
        self.total += d;
    }

    /// `(stage, duration)` for every stage with nonzero time, in pipeline
    /// order.
    pub fn nonzero(&self) -> Vec<(Stage, Duration)> {
        Stage::ALL
            .iter()
            .filter_map(|&s| {
                let d = self.get(s);
                (!d.is_zero()).then_some((s, d))
            })
            .collect()
    }

    /// Sum of all per-stage durations.
    pub fn accounted(&self) -> Duration {
        self.stages.iter().sum()
    }

    /// Fraction of the end-to-end total the stages account for, in
    /// `[0, 1]`-ish (can exceed 1 slightly if stages overlap). `1.0` when
    /// the total is zero.
    pub fn coverage(&self) -> f64 {
        if self.total.is_zero() {
            1.0
        } else {
            self.accounted().as_secs_f64() / self.total.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn stage_names_are_distinct() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
    }

    #[test]
    fn trace_accumulates_and_covers() {
        let mut t = QueryTrace::start();
        t.time(Stage::Execute, || {
            std::thread::sleep(Duration::from_millis(5))
        });
        t.add(Stage::Optimize, Duration::from_millis(2));
        t.add(Stage::Execute, Duration::from_millis(1));
        let timings = t.finish();
        assert!(timings.get(Stage::Execute) >= Duration::from_millis(6));
        assert_eq!(timings.get(Stage::Parse), Duration::ZERO);
        // Total covers the timed sleep but not externally `add`ed durations.
        assert!(timings.total >= Duration::from_millis(5));
        assert!(timings.accounted() >= Duration::from_millis(8));
        assert_eq!(timings.nonzero().len(), 2);
    }

    #[test]
    fn coverage_of_empty_trace_is_one() {
        assert_eq!(StageTimings::default().coverage(), 1.0);
    }

    #[test]
    fn post_finish_add_extends_stage_and_total() {
        let timings = {
            let mut t = QueryTrace::start();
            t.add(Stage::Execute, Duration::from_millis(4));
            t.finish()
        };
        let mut with_edge = timings;
        with_edge.add(Stage::Serialize, Duration::from_millis(2));
        assert_eq!(with_edge.get(Stage::Serialize), Duration::from_millis(2));
        assert_eq!(
            with_edge.total,
            timings.total + Duration::from_millis(2),
            "the total tracks the after-the-fact charge"
        );
        assert_eq!(with_edge.nonzero().len(), 2);
    }
}
