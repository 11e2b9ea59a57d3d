//! Sample statistics: raw latencies stay in the benchmark (the session's own
//! histogram has buckets 4× apart), and every number printed is one of these.

/// Fewer samples than this beyond a percentile and it is not reported
/// (choosing-metrics §1): p99 needs 1000 samples, p95 needs 200.
pub const MIN_BEYOND: usize = 10;

/// Raw samples of one timing, in the unit its metric prints.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// The least of a handful of whole-phase timings: the run's one
    /// undisturbed cold pass, if it had one.
    pub fn min(&self) -> f64 {
        self.0.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Nearest-rank percentile `p` in (0, 1); `None` unless at least
    /// [`MIN_BEYOND`] samples lie beyond it — a tail of three samples is an
    /// anecdote.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.0.len();
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
        if n < rank + MIN_BEYOND {
            return None;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        Some(sorted[rank - 1])
    }

    /// The median of a handful of whole-phase timings (set-ups, cold
    /// passes), where the percentile rule above does not apply: each value
    /// is already one long measurement, not one request.
    pub fn median(&self) -> f64 {
        median(&self.0)
    }
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The distance between the first and third quartile as a share of the
/// median — the run-to-run spread. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), the rule the
/// acceptance check of the benchmark uses. `None` below four values.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n < 4 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    let mid = median(&sorted);
    if mid == 0.0 {
        return None;
    }
    Some((quartile(3) - quartile(1)) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        let mut s = Samples::default();
        for i in 1..=n {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(ramp(999).percentile(0.99), None, "9 beyond p99");
        assert_eq!(ramp(1000).percentile(0.99), Some(990.0));
        assert_eq!(ramp(199).percentile(0.95), None);
        assert_eq!(ramp(200).percentile(0.95), Some(190.0));
        assert_eq!(
            ramp(19).percentile(0.5),
            None,
            "a median of 19 has 9 beyond"
        );
        assert_eq!(ramp(20).percentile(0.5), Some(10.0));
        assert_eq!(Samples::default().percentile(0.5), None);
    }

    #[test]
    fn percentile_ignores_insertion_order() {
        let mut s = Samples::default();
        for i in (1..=100).rev() {
            s.push(i as f64);
        }
        assert_eq!(s.percentile(0.5), Some(50.0));
        assert_eq!(s.percentile(0.9), Some(90.0));
    }

    #[test]
    fn median_of_a_handful() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = quartile_spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{s}");
        assert_eq!(quartile_spread(&[1.0, 2.0, 3.0]), None);
        assert_eq!(quartile_spread(&[5.0; 10]), Some(0.0));
    }
}
