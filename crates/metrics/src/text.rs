//! A minimal parser/validator for the Prometheus text exposition format,
//! used by integration tests to reconcile scraped values against
//! client-side tallies. Hand-rolled on
//! `std` because the build environment has no crates.io access.

use std::collections::HashMap;

/// One parsed sample line: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSample {
    /// Full series name as written, including `_bucket`/`_sum`/`_count`
    /// suffixes for histogram lines.
    pub name: String,
    /// Label pairs, unescaped, in the order written.
    pub labels: Vec<(String, String)>,
    /// The sample value (`+Inf`-aware).
    pub value: f64,
}

impl ParsedSample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed scrape: samples plus the `# TYPE` declarations seen.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    /// Every sample line, in document order.
    pub samples: Vec<ParsedSample>,
    /// Family name → declared type (`counter` / `gauge` / `histogram`).
    pub types: HashMap<String, String>,
}

impl Scrape {
    /// The first sample whose name matches and whose labels include all of
    /// `label_filter`.
    pub fn get(&self, name: &str, label_filter: &[(&str, &str)]) -> Option<&ParsedSample> {
        self.samples
            .iter()
            .find(|s| s.name == name && label_filter.iter().all(|(k, v)| s.label(k) == Some(v)))
    }

    /// The value of [`Scrape::get`], if found.
    pub fn value(&self, name: &str, label_filter: &[(&str, &str)]) -> Option<f64> {
        self.get(name, label_filter).map(|s| s.value)
    }

    /// Sum of every sample named `name` (across labels). Histogram suffix
    /// names (`..._count`) are distinct names here, so this never mixes
    /// buckets into counters.
    pub fn sum(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    }

    /// The distinct sample names present.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for s in &self.samples {
            if !names.contains(&s.name.as_str()) {
                names.push(&s.name);
            }
        }
        names
    }
}

/// Parse a text-format scrape body. Returns an error describing the first
/// malformed line, if any.
pub fn parse(body: &str) -> Result<Scrape, String> {
    let mut scrape = Scrape::default();
    for (ln, raw) in body.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it
                .next()
                .ok_or_else(|| format!("line {}: TYPE without name", ln + 1))?;
            let kind = it
                .next()
                .ok_or_else(|| format!("line {}: TYPE without kind", ln + 1))?;
            scrape.types.insert(name.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or free-form comment
        }
        scrape
            .samples
            .push(parse_sample(line).map_err(|e| format!("line {}: {e}", ln + 1))?);
    }
    Ok(scrape)
}

fn parse_sample(line: &str) -> Result<ParsedSample, String> {
    if let Some(open) = line.find('{') {
        let close = line
            .rfind('}')
            .ok_or_else(|| "unclosed label block".to_string())?;
        Ok(ParsedSample {
            name: name_part_checked(&line[..open])?,
            labels: parse_labels(&line[open + 1..close])?,
            value: parse_value(line[close + 1..].trim())?,
        })
    } else {
        let mut it = line.split_whitespace();
        let name = it.next().ok_or_else(|| "empty line".to_string())?;
        let value = it.next().ok_or_else(|| "missing value".to_string())?;
        Ok(ParsedSample {
            name: name_part_checked(name)?,
            labels: Vec::new(),
            value: parse_value(value)?,
        })
    }
}

fn name_part_checked(name: &str) -> Result<String, String> {
    let name = name.trim();
    if name.is_empty() {
        return Err("empty metric name".into());
    }
    let ok = name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
    if !ok {
        return Err(format!("invalid metric name {name:?}"));
    }
    Ok(name.to_string())
}

fn parse_value(src: &str) -> Result<f64, String> {
    match src {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        _ => src
            .split_whitespace()
            .next()
            .unwrap_or("")
            .parse::<f64>()
            .map_err(|_| format!("bad value {src:?}")),
    }
}

fn parse_labels(src: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = src.chars().peekable();
    loop {
        // key
        let mut key = String::new();
        while let Some(&c) = chars.peek() {
            if c == '=' {
                break;
            }
            key.push(c);
            chars.next();
        }
        if key.is_empty() {
            break;
        }
        if chars.next() != Some('=') || chars.next() != Some('"') {
            return Err(format!("label {key:?} missing =\""));
        }
        // quoted value with escapes
        let mut val = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => val.push('\\'),
                    Some('"') => val.push('"'),
                    Some('n') => val.push('\n'),
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some('"') => break,
                Some(c) => val.push(c),
                None => return Err("unterminated label value".into()),
            }
        }
        labels.push((key.trim().to_string(), val));
        match chars.next() {
            Some(',') => continue,
            None => break,
            Some(c) => return Err(format!("unexpected {c:?} after label value")),
        }
    }
    Ok(labels)
}

/// Validate a scrape body: every sample parses, every sample's family has a
/// preceding `# TYPE`, histogram families carry `+Inf` buckets with
/// monotonically non-decreasing cumulative counts, and `_count` matches the
/// `+Inf` bucket.
pub fn validate(body: &str) -> Result<(), String> {
    let scrape = parse(body)?;
    for s in &scrape.samples {
        let family = histogram_family(&scrape, &s.name).unwrap_or(&s.name);
        if !scrape.types.contains_key(family) {
            return Err(format!("sample {} has no # TYPE declaration", s.name));
        }
    }
    // Histogram checks per (family, non-le labels).
    for (family, kind) in &scrape.types {
        if kind != "histogram" {
            continue;
        }
        let bucket_name = format!("{family}_bucket");
        // One entry per distinct non-`le` label set: (labels, cumulative
        // bucket values in document order, the `+Inf` bucket's value).
        type BucketGroup = (Vec<(String, String)>, Vec<f64>, Option<f64>);
        let mut groups: Vec<BucketGroup> = Vec::new();
        for s in scrape.samples.iter().filter(|s| s.name == bucket_name) {
            let base: Vec<(String, String)> = s
                .labels
                .iter()
                .filter(|(k, _)| k != "le")
                .cloned()
                .collect();
            let is_inf = s.label("le") == Some("+Inf");
            match groups.iter_mut().find(|(b, _, _)| *b == base) {
                Some((_, counts, inf)) => {
                    counts.push(s.value);
                    if is_inf {
                        *inf = Some(s.value);
                    }
                }
                None => groups.push((base, vec![s.value], is_inf.then_some(s.value))),
            }
        }
        for (base, counts, inf) in &groups {
            let inf = inf.ok_or_else(|| format!("{bucket_name}{base:?} lacks le=\"+Inf\""))?;
            if counts.windows(2).any(|w| w[1] < w[0]) {
                return Err(format!("{bucket_name}{base:?} buckets not cumulative"));
            }
            let filter: Vec<(&str, &str)> =
                base.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            let count = scrape
                .value(&format!("{family}_count"), &filter)
                .ok_or_else(|| format!("{family}_count missing for {base:?}"))?;
            if (count - inf).abs() > f64::EPSILON {
                return Err(format!(
                    "{family}_count ({count}) != +Inf bucket ({inf}) for {base:?}"
                ));
            }
        }
    }
    Ok(())
}

/// If `name` looks like a histogram suffix series of a declared histogram
/// family, return that family name.
fn histogram_family<'s>(scrape: &'s Scrape, name: &str) -> Option<&'s str> {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stem) = name.strip_suffix(suffix) {
            if let Some((family, kind)) = scrape.types.get_key_value(stem) {
                if kind == "histogram" {
                    return Some(family);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_and_labeled_samples() {
        let body = "# HELP a_total help text\n# TYPE a_total counter\na_total 5\n\
                    # TYPE b_total counter\nb_total{path=\"run\",t=\"x y\"} 2.5\n";
        let s = parse(body).unwrap();
        assert_eq!(s.value("a_total", &[]), Some(5.0));
        assert_eq!(s.value("b_total", &[("path", "run")]), Some(2.5));
        assert_eq!(s.get("b_total", &[]).unwrap().label("t"), Some("x y"));
        assert_eq!(s.types.get("a_total").map(String::as_str), Some("counter"));
        validate(body).unwrap();
    }

    #[test]
    fn parses_escaped_labels_and_inf() {
        let body = "# TYPE h histogram\nh_bucket{le=\"0.001\"} 1\nh_bucket{le=\"+Inf\"} 2\n\
                    h_sum 0.5\nh_count 2\n# TYPE c counter\nc{v=\"a\\\"b\\\\c\"} 1\n";
        let s = parse(body).unwrap();
        assert_eq!(s.value("h_bucket", &[("le", "+Inf")]), Some(2.0));
        assert_eq!(s.get("c", &[]).unwrap().label("v"), Some("a\"b\\c"));
        validate(body).unwrap();
    }

    #[test]
    fn rejects_missing_type_and_broken_buckets() {
        assert!(validate("a_total 1\n").is_err(), "no TYPE");
        let non_cumulative = "# TYPE h histogram\nh_bucket{le=\"0.1\"} 5\n\
                              h_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n";
        assert!(validate(non_cumulative).is_err(), "non-cumulative buckets");
        let no_inf = "# TYPE h histogram\nh_bucket{le=\"0.1\"} 1\nh_sum 1\nh_count 1\n";
        assert!(validate(no_inf).is_err(), "missing +Inf");
        let bad_count = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n";
        assert!(validate(bad_count).is_err(), "count mismatch");
    }

    #[test]
    fn sum_across_labels() {
        let body = "# TYPE q counter\nq{p=\"a\"} 1\nq{p=\"b\"} 2\n";
        assert_eq!(parse(body).unwrap().sum("q"), 3.0);
    }
}
