//! # relgo-metrics
//!
//! A std-only metrics registry for the serving stack: atomic [`Counter`]s
//! and [`Gauge`]s, fixed-bucket latency [`Histogram`]s with quantile
//! extraction, and a [`Registry`] that hands out cheap typed handles and
//! renders everything in the Prometheus text exposition format.
//!
//! Design constraints, in order:
//!
//! * **Hot-path cost** — a handle is an `Arc` around one (or a few) atomic
//!   integers; recording is a relaxed `fetch_add`. No locks, no allocation,
//!   no formatting anywhere near query execution. All string work happens at
//!   scrape time.
//! * **No dependencies** — the build container has no crates.io access, so
//!   everything (including the exposition-format renderer and the little
//!   scrape parser used by tests) is hand-rolled on `std`.
//! * **Foldability** — subsystems that already keep their own counters
//!   (plan-cache metrics, WAL stats) are *folded into a snapshot* at scrape
//!   time via [`Snapshot::push_counter`]/[`Snapshot::push_gauge`] rather
//!   than double-counted at record time.
//!
//! The sibling [`trace`] module adds [`trace::QueryTrace`], a span recorder
//! for the query lifecycle (parse → parameterize → cache probe →
//! optimize/rebind → execute → materialize) whose per-stage durations land
//! in registry histograms.

pub mod text;
pub mod trace;

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A monotonically increasing counter (Prometheus `counter`).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh, unregistered counter (registry-issued handles are shared).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (Prometheus `gauge`).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A fresh, unregistered gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `d` (may be negative via [`Gauge::sub`]).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Subtract `d`.
    #[inline]
    pub fn sub(&self, d: i64) {
        self.0.fetch_sub(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Default latency bucket upper bounds in microseconds: powers of four from
/// 1 µs to ~16.8 s. Fourteen finite buckets plus the implicit `+Inf`
/// overflow bucket — wide enough that a scheduler hiccup lands in a finite
/// bucket while p50 on a µs-scale path still has resolution.
pub const DEFAULT_LATENCY_BOUNDS_US: [u64; 14] = [
    1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304, 16_777_216,
    67_108_864,
];

/// A fixed-bucket histogram of durations (Prometheus `histogram`). Bounds
/// are inclusive upper bounds in microseconds; one extra overflow bucket
/// catches everything above the last bound. Recording is two relaxed
/// `fetch_add`s plus a branchless-ish bucket scan over ≤ 15 bounds.
#[derive(Debug)]
pub struct Histogram {
    bounds_us: Vec<u64>,
    /// `bounds_us.len() + 1` buckets; the last is the overflow bucket.
    buckets: Vec<AtomicU64>,
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// A histogram over explicit bucket bounds (sorted ascending, deduped).
    pub fn new(bounds_us: &[u64]) -> Histogram {
        let mut bounds: Vec<u64> = bounds_us.to_vec();
        bounds.sort_unstable();
        bounds.dedup();
        let buckets = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds_us: bounds,
            buckets,
            sum_us: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// A histogram over [`DEFAULT_LATENCY_BOUNDS_US`].
    pub fn latency() -> Histogram {
        Histogram::new(&DEFAULT_LATENCY_BOUNDS_US)
    }

    /// Record a duration.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_us(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Record a raw microsecond value.
    #[inline]
    pub fn record_us(&self, us: u64) {
        let idx = self
            .bounds_us
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(self.bounds_us.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds_us: self.bounds_us.clone(),
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`], with quantile extraction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Inclusive bucket upper bounds (µs); one overflow bucket follows.
    pub bounds_us: Vec<u64>,
    /// Per-bucket (non-cumulative) observation counts; `bounds_us.len() + 1`
    /// entries, the last being the overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all recorded values (µs).
    pub sum_us: u64,
    /// Total observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0 < q <= 1`) as the upper bound of the bucket the
    /// rank falls into — a conservative estimate. `None` when nothing was
    /// recorded or the rank falls into the overflow bucket (the latency is
    /// then not provably finite within the bucket range).
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.bounds_us.get(i).map(|&b| Duration::from_micros(b));
            }
        }
        None
    }

    /// The 99th percentile ([`HistogramSnapshot::quantile`] at 0.99).
    pub fn p99(&self) -> Option<Duration> {
        self.quantile(0.99)
    }
}

/// The value a sample carries.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Monotonic counter.
    Counter(u64),
    /// Up/down gauge.
    Gauge(i64),
    /// Bucketed distribution.
    Histogram(HistogramSnapshot),
}

/// One named series in a [`Snapshot`].
#[derive(Debug, Clone)]
pub struct Sample {
    /// Metric name (Prometheus conventions: `snake_case`, `_total` suffix
    /// for counters).
    pub name: String,
    /// One-line help text.
    pub help: String,
    /// Label pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: SampleValue,
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

struct Series {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    metric: Metric,
}

/// A registry of named metric series. Handles are issued once per
/// `(name, labels)` pair — asking again returns the *same* underlying
/// atomic, so any subsystem can look up "its" counter without coordinating
/// ownership. The registry itself is only locked at registration and
/// scrape time, never on the record path.
#[derive(Default)]
pub struct Registry {
    series: Mutex<Vec<Series>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("series", &self.series.lock().unwrap().len())
            .finish()
    }
}

fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert<T>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        extract: impl Fn(&Metric) -> Option<Arc<T>>,
        make: impl FnOnce() -> (Arc<T>, Metric),
    ) -> Arc<T> {
        let labels = owned_labels(labels);
        let mut series = self.series.lock().unwrap();
        if let Some(s) = series.iter().find(|s| s.name == name && s.labels == labels) {
            return extract(&s.metric).unwrap_or_else(|| {
                panic!("metric {name} already registered with a different type")
            });
        }
        let (handle, metric) = make();
        // A Prometheus family (one name) has exactly one type, regardless
        // of labels — a mixed family renders one `# TYPE` line over
        // samples of different kinds, which strict scrapers reject. Catch
        // it at registration, not scrape time.
        if let Some(conflict) = series.iter().find(|s| s.name == name) {
            if conflict.metric.kind() != metric.kind() {
                panic!(
                    "metric {name} already registered as a {}, cannot re-register as a {}",
                    conflict.metric.kind(),
                    metric.kind()
                );
            }
        }
        series.push(Series {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            metric,
        });
        handle
    }

    /// Register (or look up) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Register (or look up) a labeled counter.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.get_or_insert(
            name,
            help,
            labels,
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
            || {
                let c = Arc::new(Counter::new());
                (Arc::clone(&c), Metric::Counter(c))
            },
        )
    }

    /// Register (or look up) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Register (or look up) a labeled gauge.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.get_or_insert(
            name,
            help,
            labels,
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
            || {
                let g = Arc::new(Gauge::new());
                (Arc::clone(&g), Metric::Gauge(g))
            },
        )
    }

    /// Register (or look up) an unlabeled latency histogram over
    /// [`DEFAULT_LATENCY_BOUNDS_US`].
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[])
    }

    /// Register (or look up) a labeled latency histogram.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        self.get_or_insert(
            name,
            help,
            labels,
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
            || {
                let h = Arc::new(Histogram::latency());
                (Arc::clone(&h), Metric::Histogram(h))
            },
        )
    }

    /// Point-in-time copy of every registered series, in registration
    /// order. External counters can be folded in afterwards via
    /// [`Snapshot::push_counter`] before rendering.
    pub fn snapshot(&self) -> Snapshot {
        let series = self.series.lock().unwrap();
        Snapshot {
            samples: series
                .iter()
                .map(|s| Sample {
                    name: s.name.clone(),
                    help: s.help.clone(),
                    labels: s.labels.clone(),
                    value: match &s.metric {
                        Metric::Counter(c) => SampleValue::Counter(c.get()),
                        Metric::Gauge(g) => SampleValue::Gauge(g.get()),
                        Metric::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

/// A point-in-time collection of samples, renderable as Prometheus text.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// The samples, grouped by name at render time.
    pub samples: Vec<Sample>,
}

impl Snapshot {
    /// Fold an externally collected counter into the snapshot (subsystems
    /// like the plan cache keep their own atomics; scrape time is when they
    /// join the registry's view).
    pub fn push_counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.samples.push(Sample {
            name: name.to_string(),
            help: help.to_string(),
            labels: owned_labels(labels),
            value: SampleValue::Counter(value),
        });
    }

    /// Fold an externally collected gauge into the snapshot.
    pub fn push_gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: i64) {
        self.samples.push(Sample {
            name: name.to_string(),
            help: help.to_string(),
            labels: owned_labels(labels),
            value: SampleValue::Gauge(value),
        });
    }

    /// The distinct series names in the snapshot.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for s in &self.samples {
            if !names.contains(&s.name.as_str()) {
                names.push(&s.name);
            }
        }
        names
    }

    /// The value of the first sample matching `name` and all of
    /// `label_filter` (test/reconciliation helper).
    pub fn get(&self, name: &str, label_filter: &[(&str, &str)]) -> Option<&SampleValue> {
        self.samples
            .iter()
            .find(|s| {
                s.name == name
                    && label_filter
                        .iter()
                        .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
            })
            .map(|s| &s.value)
    }

    /// Sum of every counter sample named `name`, across labels.
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| match &s.value {
                SampleValue::Counter(v) => *v,
                _ => 0,
            })
            .sum()
    }

    /// Render in the Prometheus text exposition format (version 0.0.4):
    /// `# HELP` / `# TYPE` per family, histograms expanded into cumulative
    /// `_bucket{le=...}` series plus `_sum` and `_count`, durations in
    /// seconds.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for name in self.names() {
            let family: Vec<&Sample> = self.samples.iter().filter(|s| s.name == name).collect();
            let first = family[0];
            let kind = match first.value {
                SampleValue::Counter(_) => "counter",
                SampleValue::Gauge(_) => "gauge",
                SampleValue::Histogram(_) => "histogram",
            };
            writeln!(out, "# HELP {name} {}", escape_help(&first.help)).unwrap();
            writeln!(out, "# TYPE {name} {kind}").unwrap();
            for s in family {
                match &s.value {
                    SampleValue::Counter(v) => {
                        writeln!(out, "{}{} {v}", name, label_block(&s.labels, &[])).unwrap();
                    }
                    SampleValue::Gauge(v) => {
                        writeln!(out, "{}{} {v}", name, label_block(&s.labels, &[])).unwrap();
                    }
                    SampleValue::Histogram(h) => {
                        let mut cumulative = 0u64;
                        for (i, &c) in h.counts.iter().enumerate() {
                            cumulative += c;
                            let le = match h.bounds_us.get(i) {
                                Some(&b) => format_seconds(b),
                                None => "+Inf".to_string(),
                            };
                            writeln!(
                                out,
                                "{}_bucket{} {cumulative}",
                                name,
                                label_block(&s.labels, &[("le", &le)])
                            )
                            .unwrap();
                        }
                        writeln!(
                            out,
                            "{}_sum{} {}",
                            name,
                            label_block(&s.labels, &[]),
                            format_seconds(h.sum_us)
                        )
                        .unwrap();
                        writeln!(
                            out,
                            "{}_count{} {}",
                            name,
                            label_block(&s.labels, &[]),
                            h.count
                        )
                        .unwrap();
                    }
                }
            }
        }
        out
    }
}

/// Microseconds as a seconds literal (`1_500_000` → `"1.5"`).
fn format_seconds(us: u64) -> String {
    let mut s = format!("{}", us as f64 / 1e6);
    if !s.contains('.') && !s.contains('e') {
        s.push_str(".0"); // keep `le` values unambiguous floats
    }
    s
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Render `{k="v",...}` from the sample labels plus extras (`le`), or an
/// empty string when there are none.
fn label_block(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    parts.extend(
        extra
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v))),
    );
    format!("{{{}}}", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("relgo_test_total", "test counter");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registration returns the same underlying atomic.
        let c2 = r.counter("relgo_test_total", "test counter");
        c2.inc();
        assert_eq!(c.get(), 6);
        let g = r.gauge("relgo_test_gauge", "test gauge");
        g.set(7);
        g.sub(3);
        g.add(1);
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn labeled_series_are_distinct() {
        let r = Registry::new();
        let a = r.counter_with("relgo_q_total", "q", &[("path", "run")]);
        let b = r.counter_with("relgo_q_total", "q", &[("path", "cached")]);
        a.inc();
        b.add(2);
        let snap = r.snapshot();
        assert_eq!(
            snap.get("relgo_q_total", &[("path", "run")]),
            Some(&SampleValue::Counter(1))
        );
        assert_eq!(
            snap.get("relgo_q_total", &[("path", "cached")]),
            Some(&SampleValue::Counter(2))
        );
        assert_eq!(snap.counter_sum("relgo_q_total"), 3);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new(&[10, 100, 1000]);
        for us in [5, 7, 50, 500, 800] {
            h.record_us(us);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.counts, vec![2, 1, 2, 0]);
        assert_eq!(s.sum_us, 5 + 7 + 50 + 500 + 800);
        // Ranks: p50 → rank 3 → bucket ≤100; p99 → rank 5 → bucket ≤1000.
        assert_eq!(s.quantile(0.5), Some(Duration::from_micros(100)));
        assert_eq!(s.p99(), Some(Duration::from_micros(1000)));
    }

    #[test]
    fn quantile_edge_cases() {
        let h = Histogram::new(&[10]);
        assert_eq!(h.snapshot().p99(), None, "empty histogram");
        h.record_us(100); // overflow bucket
        assert_eq!(h.snapshot().p99(), None, "overflow rank is not finite");
        h.record_us(1);
        // p50 rank 1 lands in the finite bucket.
        assert_eq!(h.snapshot().quantile(0.5), Some(Duration::from_micros(10)));
    }

    #[test]
    fn default_latency_bounds_are_wide() {
        let h = Histogram::latency();
        h.record(Duration::from_secs(30));
        assert_eq!(
            h.snapshot().quantile(1.0),
            Some(Duration::from_micros(67_108_864)),
            "30 s lands in a finite bucket"
        );
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let r = Registry::new();
        r.counter_with("relgo_q_total", "queries", &[("path", "run")])
            .add(3);
        r.gauge("relgo_conn", "connections").set(2);
        let h = r.histogram("relgo_lat_seconds", "latency");
        h.record_us(3);
        h.record_us(70_000_000); // overflow
        let mut snap = r.snapshot();
        snap.push_counter("relgo_cache_hits_total", "cache hits", &[], 9);
        let text = snap.render_prometheus();
        assert!(text.contains("# TYPE relgo_q_total counter"));
        assert!(text.contains("relgo_q_total{path=\"run\"} 3"));
        assert!(text.contains("# TYPE relgo_conn gauge"));
        assert!(text.contains("relgo_conn 2"));
        assert!(text.contains("# TYPE relgo_lat_seconds histogram"));
        assert!(text.contains("relgo_lat_seconds_bucket{le=\"0.000001\"} 0"));
        assert!(text.contains("relgo_lat_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("relgo_lat_seconds_count 2"));
        assert!(text.contains("relgo_cache_hits_total 9"));
        text::validate(&text).expect("exposition format is valid");
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn cross_label_type_conflict_panics() {
        let r = Registry::new();
        r.counter_with("relgo_mixed_family", "as counter", &[("path", "a")]);
        // Same family name, different labels, different type: still a
        // malformed family — must panic rather than render mixed kinds.
        r.gauge_with("relgo_mixed_family", "as gauge", &[("path", "b")]);
    }

    #[test]
    fn snapshot_names_preserve_first_seen_order() {
        let r = Registry::new();
        r.counter("b_total", "b");
        r.counter("a_total", "a");
        r.counter_with("b_total", "b", &[("x", "1")]);
        assert_eq!(r.snapshot().names(), vec!["b_total", "a_total"]);
    }
}
