//! Seeded Zipf sampling over a ranked catalogue, by inverse CDF.

use rand::rngs::StdRng;
use rand::Rng;

/// A Zipf(`exponent`) distribution over ranks `0..n`: rank *r* is
/// drawn with probability proportional to `1 / (r + 1)^exponent`.
/// Sampling is a binary search over the precomputed CDF, so a
/// workload compile touches no floating-point accumulation order
/// that could differ between runs — same seed, same draws.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution; `None` when `n` is zero or the
    /// exponent is not a positive finite number.
    pub fn new(n: usize, exponent: f64) -> Option<Self> {
        if n == 0 || !exponent.is_finite() || exponent <= 0.0 {
            return None;
        }
        let weights: Vec<f64> = (0..n)
            .map(|rank| 1.0 / ((rank + 1) as f64).powf(exponent))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Some(Zipf { cdf })
    }

    /// Probability mass of rank `r`.
    #[cfg(test)]
    fn mass(&self, rank: usize) -> f64 {
        let below = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        self.cdf.get(rank).map_or(0.0, |c| c - below)
    }

    /// Draws a rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        // First rank whose cumulative mass covers the draw.
        let mut lo = 0;
        let mut hi = self.cdf.len() - 1;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.cdf[mid] < u {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(Zipf::new(0, 1.0).is_none());
        assert!(Zipf::new(4, 0.0).is_none());
        assert!(Zipf::new(4, f64::NAN).is_none());
        assert!(Zipf::new(4, -1.0).is_none());
    }

    #[test]
    fn mass_sums_to_one_and_decreases_with_rank() {
        let z = Zipf::new(8, 1.1).unwrap();
        let total: f64 = (0..8).map(|r| z.mass(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for r in 1..8 {
            assert!(z.mass(r) < z.mass(r - 1));
        }
    }

    #[test]
    fn sampling_tracks_the_analytic_head() {
        let z = Zipf::new(6, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let mut counts = [0usize; 6];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        // Head rank's empirical share within 15% of analytic mass.
        let head = counts[0] as f64 / n as f64;
        let expected = z.mass(0);
        assert!(
            (head - expected).abs() < 0.15 * expected,
            "head share {head:.3} vs analytic {expected:.3}"
        );
        // Monotone non-increasing counts, modulo sampling noise on
        // the tail: the head must dominate the tail outright.
        assert!(counts[0] > counts[2] && counts[0] > counts[5]);
    }
}
