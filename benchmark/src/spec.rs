//! `BENCHMARK.json` is the one list of workloads, metrics, units and bounds.
//! It is compiled in, so a result line can only carry the names it fixes.

use crate::json::{self, Json};
use std::collections::BTreeMap;
use std::sync::OnceLock;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the base's value by which the metric may worsen before it
    /// counts as a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Spec {
    /// `(name, why)` in file order.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub run_seconds: u64,
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: {key} is not a list"))
        };
        let text_of = |item: &Json, key: &str| -> Result<String, String> {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without a {key}"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|item| {
                    let better = match text_of(item, "better")?.as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                    };
                    Ok(Metric {
                        name: text_of(item, "name")?,
                        unit: text_of(item, "unit")?,
                        better,
                        bound: item.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: run_seconds missing")? as u64,
        })
    }

    pub fn metrics(&self, traced: bool) -> &[Metric] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    pub fn find(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| Spec::parse(BENCHMARK_JSON).expect("the committed BENCHMARK.json parses"))
}

/// The values one run reports, by metric name.
#[derive(Debug, Default)]
pub struct Ledger(BTreeMap<String, f64>);

impl Ledger {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// Check the ledger against the list `BENCHMARK.json` fixes for this
    /// kind of run and return exactly that list's values.
    ///
    /// A name the file does not have is a bug in the benchmark. An
    /// end-to-end metric must be measured, finite and above zero on every
    /// workload. A per-layer metric a workload never set reads 0: the
    /// workload does not cross that layer (README, "Per-layer metrics").
    pub fn finish(self, traced: bool) -> Result<BTreeMap<String, f64>, String> {
        let listed = spec().metrics(traced);
        if let Some(stray) = self
            .0
            .keys()
            .find(|name| !listed.iter().any(|m| &m.name == *name))
        {
            return Err(format!("metric {stray} is not in BENCHMARK.json"));
        }
        listed
            .iter()
            .map(|m| match self.0.get(&m.name) {
                Some(v) if !v.is_finite() => Err(format!("metric {} is not finite", m.name)),
                Some(v) if !traced && *v <= 0.0 => {
                    Err(format!("end-to-end metric {} reads {v}", m.name))
                }
                Some(v) => Ok((m.name.clone(), *v)),
                None if traced => Ok((m.name.clone(), 0.0)),
                None => Err(format!("end-to-end metric {} was not measured", m.name)),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_counts_stay_within_the_contract() {
        let s = spec();
        assert!((2..=8).contains(&s.workloads.len()));
        assert!((1..=16).contains(&s.end_to_end.len()));
        assert!((1..=128).contains(&s.per_layer.len()));
        assert!((1..=60).contains(&s.run_seconds));
        let mut names: Vec<&str> = s.workloads.iter().map(|(n, _)| n.as_str()).collect();
        names.extend(
            s.end_to_end
                .iter()
                .chain(&s.per_layer)
                .map(|m| m.name.as_str()),
        );
        for name in &names {
            assert!(well_formed(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        for (_, why) in &s.workloads {
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
        for m in s.end_to_end.iter().chain(&s.per_layer) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
    }

    #[test]
    fn bounds_are_on_end_to_end_metrics_only() {
        let s = spec();
        for m in &s.end_to_end {
            let b = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            // 0.25 is the most the benchmark contract accepts, not a target:
            // each bound is argued from measured spread in the README.
            assert!(b > 0.0 && b <= 0.25, "{}: {b}", m.name);
        }
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = s.find("setup_s").expect("setup_s is listed");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        let widest = s
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
    }

    #[test]
    fn name_check_rejects_what_the_contract_rejects() {
        for bad in ["", ".x", "a b", "a/b", &"x".repeat(65)] {
            assert!(!well_formed(bad), "{bad:?}");
        }
        assert!(well_formed("exec.op.hash_join_ms") && well_formed("9lives"));
    }

    #[test]
    fn ledger_holds_a_run_to_the_listed_names() {
        let mut stray = Ledger::default();
        stray.set("no.such.metric", 1.0);
        assert!(stray.finish(true).is_err());

        let mut traced = Ledger::default();
        traced.set("cache.hits", 5.0);
        let values = traced.finish(true).unwrap();
        assert_eq!(values.len(), spec().per_layer.len());
        assert_eq!(values["cache.hits"], 5.0);
        assert_eq!(values["cache.misses"], 0.0, "an unset layer metric reads 0");

        let mut partial = Ledger::default();
        partial.set("setup_s", 1.0);
        assert!(
            partial.finish(false).is_err(),
            "every end-to-end metric is required"
        );

        let mut zero = Ledger::default();
        for m in &spec().end_to_end {
            zero.set(m.name.clone(), 0.0);
        }
        assert!(
            zero.finish(false).is_err(),
            "an end-to-end metric is never 0"
        );
    }
}
