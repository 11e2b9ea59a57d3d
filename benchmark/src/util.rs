//! What every workload shares: the argument record, the seeded generator,
//! the correctness tally, result checksums, a self-removing scratch
//! directory and the process's peak memory.

use crate::Res;
use relgo::prelude::*;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The arguments of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Drives everything asked of the data: query order, literal draws,
    /// request schedule, update stream.
    pub seed: u64,
    /// Generator seed of the dataset (`--data-seed`).
    pub data_seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Per-layer run (`--trace 1`) instead of the end-to-end run.
    pub traced: bool,
    /// One pass, every correctness check, no timings (`--smoke`).
    pub smoke: bool,
}

impl RunArgs {
    /// Whether a measured loop that started at `start` and has completed
    /// `passes` whole passes goes on.
    pub fn keep_going(&self, start: Instant, passes: usize) -> bool {
        if self.smoke {
            passes == 0
        } else {
            start.elapsed().as_secs_f64() < self.seconds
        }
    }
}

/// Session options every workload runs under: one intra-query thread, set
/// explicitly so `RELGO_THREADS` in the environment changes nothing.
pub fn session_options() -> SessionOptions {
    SessionOptions {
        threads: 1,
        ..SessionOptions::default()
    }
}

/// SplitMix64: the literal draws and request schedules of a run are a pure
/// function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0; the modulo bias is irrelevant at the
    /// pool sizes used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Operations attempted and failed: errors, refusals and wrong answers all
/// count as failed, and the first one is kept for the report.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    /// Count one operation; `what` describes it when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(what());
            }
        }
        ok
    }

    /// Whether every operation counted so far was right; a run that did not
    /// pass prints `"correct": false` and exits 1.
    pub fn passed(&self) -> bool {
        self.failed == 0
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// Row count and an order-independent checksum of a result table: the sum
/// of the rows' hashes, so two tables with the same bag of rows agree.
pub fn table_digest(table: &Table) -> (usize, u64) {
    let mut sum = 0u64;
    for r in 0..table.num_rows() as u32 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for c in 0..table.num_columns() {
            table.value(r, c).hash(&mut h);
        }
        sum = sum.wrapping_add(h.finish());
    }
    (table.num_rows(), sum)
}

/// Same rows in the same order, value for value.
pub fn tables_identical(a: &Table, b: &Table) -> bool {
    a.num_rows() == b.num_rows()
        && a.num_columns() == b.num_columns()
        && (0..a.num_rows() as u32).all(|r| a.row(r) == b.row(r))
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Wall time of `f` and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

/// Mean wall time of `f` over `reps` calls, for layer calls too short to
/// time one by one. The result goes through `black_box` so the call stays.
pub fn mean_time<T>(reps: usize, mut f: impl FnMut(usize) -> T) -> Duration {
    let start = Instant::now();
    for i in 0..reps {
        std::hint::black_box(f(i));
    }
    start.elapsed() / reps.max(1) as u32
}

/// A scratch directory for WAL and checkpoint files, removed when dropped —
/// on success, on an error return and on a panic that unwinds. It lives
/// next to the benchmark's executable, inside the build directory, so a run
/// writes nowhere outside its checkout.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(label: &str) -> std::io::Result<ScratchDir> {
        let exe = std::env::current_exe()?;
        let base = exe.parent().unwrap_or(Path::new("."));
        let dir = base.join(format!("bench-tmp-{label}-{}", std::process::id()));
        // A leftover from a killed run with a recycled pid is not ours to keep.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `VmHWM` of this process in MB: the peak resident set since it started.
pub fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgo::common::DataType;

    #[test]
    fn rng_is_a_function_of_the_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(7));
        let mut r = Rng::new(1);
        assert!((0..1000).all(|_| r.below(5) < 5));
    }

    #[test]
    fn digest_ignores_row_order_and_sees_a_changed_value() {
        let spec = [("a", DataType::Int), ("b", DataType::Str)];
        let t = |rows: Vec<Vec<Value>>| table_of("t", &spec, rows);
        let a = t(vec![vec![1.into(), "x".into()], vec![2.into(), "y".into()]]);
        let b = t(vec![vec![2.into(), "y".into()], vec![1.into(), "x".into()]]);
        let c = t(vec![vec![1.into(), "x".into()], vec![2.into(), "z".into()]]);
        assert_eq!(table_digest(&a), table_digest(&b));
        assert_ne!(table_digest(&a), table_digest(&c));
        assert!(tables_identical(&a, &a) && !tables_identical(&a, &b));
    }

    #[test]
    fn tally_counts_failures_and_keeps_the_first() {
        let mut t = Tally::default();
        assert!(t.check(true, || unreachable!()));
        assert!(!t.check(false, || "first".into()));
        t.check(false, || "second".into());
        assert_eq!((t.attempted, t.failed), (3, 2));
        assert!(!t.passed() && Tally::default().passed());
        assert_eq!(t.first_failure.as_deref(), Some("first"));
    }

    #[test]
    fn scratch_dir_removes_itself() {
        let path = {
            let dir = ScratchDir::create("unit").unwrap();
            std::fs::write(dir.path().join("wal"), b"x").unwrap();
            dir.path().to_path_buf()
        };
        assert!(!path.exists());
    }

    #[test]
    fn peak_rss_reads() {
        assert!(peak_rss_mb().unwrap() > 1.0);
    }
}
