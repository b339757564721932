//! Integer sample statistics: nearest-rank percentiles with the
//! "ten samples beyond" rule, and medians of per-round values.

/// A bag of integer samples (nanoseconds or microseconds).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, v: u64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn values(&self) -> &[u64] {
        &self.values
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile: the smallest sample with at least
    /// `permille`/1000 of the samples at or below it. `None` when empty.
    pub fn percentile(&mut self, permille: u32) -> Option<u64> {
        self.sort();
        let n = self.values.len();
        if n == 0 {
            return None;
        }
        let rank = (n as u64 * u64::from(permille)).div_ceil(1000).max(1) as usize;
        Some(self.values[rank.min(n) - 1])
    }

    /// The tail percentile the sample supports: `wanted` if at least
    /// ten samples lie beyond its rank, else the highest of the lower
    /// standard steps that has ten beyond it. Returns `(permille,
    /// value)`; with fewer than twenty samples it degrades to the median.
    pub fn tail(&mut self, wanted: u32) -> Option<(u32, u64)> {
        const STEPS: [u32; 6] = [999, 990, 950, 900, 750, 500];
        let n = self.values.len() as u64;
        let supported = |p: u32| n - (n * u64::from(p)).div_ceil(1000) >= 10;
        let p = STEPS
            .into_iter()
            .filter(|p| *p <= wanted)
            .find(|p| supported(*p))
            .unwrap_or(500);
        self.percentile(p).map(|v| (p, v))
    }
}

/// Median of per-round values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Median of the last half of `ordered` over the median of its first
/// half, in permille: 1000 means the cost of an op did not drift as
/// the round went on.
pub fn drift_permille(ordered: &[u64]) -> Option<f64> {
    let (first, last) = ordered.split_at(ordered.len() / 2);
    let p50 = |half: &[u64]| {
        let mut s = Samples::default();
        half.iter().for_each(|v| s.push(*v));
        s.percentile(500)
    };
    Some(1000.0 * p50(last)? as f64 / p50(first)?.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bag(range: std::ops::RangeInclusive<u64>) -> Samples {
        let mut s = Samples::default();
        // Insert descending so sorting is exercised.
        for v in range.rev() {
            s.push(v);
        }
        s
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = bag(1..=100);
        assert_eq!(s.len(), 100);
        assert_eq!(s.percentile(500), Some(50));
        assert_eq!(s.percentile(990), Some(99));
        assert_eq!(s.percentile(1000), Some(100));
        assert_eq!(s.percentile(1), Some(1));
        let mut one = bag(7..=7);
        assert_eq!(one.percentile(500), Some(7));
        assert_eq!(one.percentile(990), Some(7));
        assert_eq!(Samples::default().percentile(500), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: rank(p99) = 990, ten beyond → p99 stands.
        assert_eq!(bag(1..=1000).tail(990), Some((990, 990)));
        // 999 samples: rank(p99) = 990, nine beyond → falls to p95.
        assert_eq!(bag(1..=999).tail(990), Some((950, 950)));
        // 100 samples: p90 is the highest step with ten beyond.
        assert_eq!(bag(1..=100).tail(990), Some((900, 90)));
        // p99.9 needs 10 000.
        assert_eq!(bag(1..=10_000).tail(999), Some((999, 9990)));
        // Too few for any tail: the median.
        assert_eq!(bag(1..=15).tail(990), Some((500, 8)));
        assert_eq!(Samples::default().tail(990), None);
    }

    #[test]
    fn extend_pools_samples() {
        let mut a = bag(1..=3);
        a.extend(&bag(4..=5));
        assert_eq!(a.len(), 5);
        assert_eq!(a.percentile(500), Some(3));
    }

    #[test]
    fn drift_compares_halves() {
        assert_eq!(drift_permille(&[10, 10, 10, 20, 20, 20]), Some(2000.0));
        assert_eq!(drift_permille(&[5, 5]), Some(1000.0));
        assert_eq!(drift_permille(&[5]), None);
    }

    #[test]
    fn median_of_rounds() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
