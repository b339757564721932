//! Stochastic link models: packet loss and delay/jitter distributions.
//!
//! These parameterize the simulated network so that Table 1 of the paper
//! (requirements dichotomy between the reliable control stack and the
//! lossy isochronous stream stack) can be characterized quantitatively.

use crate::time::SimDuration;
use rand::Rng;

/// Packet-loss process for a simulated link.
#[derive(Debug, Clone)]
pub enum LossModel {
    /// No loss; every packet is delivered.
    None,
    /// Independent loss with probability `p` per packet.
    Bernoulli {
        /// Loss probability in `[0, 1]`.
        p: f64,
    },
    /// Two-state Gilbert–Elliott bursty loss.
    ///
    /// The link alternates between a *good* and a *bad* state with the
    /// given transition probabilities, evaluated per packet; each state
    /// has its own loss probability.
    GilbertElliott {
        /// Probability of moving good→bad on a packet.
        p_good_to_bad: f64,
        /// Probability of moving bad→good on a packet.
        p_bad_to_good: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
    },
}

impl LossModel {
    /// Creates an independent-loss model, clamping `p` to `[0, 1]`.
    pub fn bernoulli(p: f64) -> Self {
        LossModel::Bernoulli {
            p: p.clamp(0.0, 1.0),
        }
    }
}

/// Mutable per-link state for a [`LossModel`].
#[derive(Debug, Clone, Default)]
pub struct LossState {
    in_bad_state: bool,
}

impl LossModel {
    /// Decides whether the next packet is dropped, updating `state`.
    pub fn drops<R: Rng + ?Sized>(&self, state: &mut LossState, rng: &mut R) -> bool {
        match *self {
            LossModel::None => false,
            LossModel::Bernoulli { p } => p > 0.0 && rng.gen_bool(p.clamp(0.0, 1.0)),
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                if state.in_bad_state {
                    if rng.gen_bool(p_bad_to_good.clamp(0.0, 1.0)) {
                        state.in_bad_state = false;
                    }
                } else if rng.gen_bool(p_good_to_bad.clamp(0.0, 1.0)) {
                    state.in_bad_state = true;
                }
                let p = if state.in_bad_state {
                    loss_bad
                } else {
                    loss_good
                };
                p > 0.0 && rng.gen_bool(p.clamp(0.0, 1.0))
            }
        }
    }
}

/// Per-packet propagation-delay distribution for a simulated link.
#[derive(Debug, Clone)]
pub enum DelayModel {
    /// Fixed delay for every packet.
    Constant(SimDuration),
    /// Uniformly distributed delay in `[min, max]`.
    Uniform {
        /// Minimum delay.
        min: SimDuration,
        /// Maximum delay (inclusive).
        max: SimDuration,
    },
    /// Symmetric triangular distribution around `mean` with half-width
    /// `jitter` — a cheap bell-ish approximation adequate for jitter
    /// experiments.
    Jittered {
        /// Mean delay.
        mean: SimDuration,
        /// Half-width of the jitter band.
        jitter: SimDuration,
    },
}

impl DelayModel {
    /// Samples a delay for one packet.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        match *self {
            DelayModel::Constant(d) => d,
            DelayModel::Uniform { min, max } => {
                let (lo, hi) = (min.as_micros(), max.as_micros().max(min.as_micros()));
                SimDuration::from_micros(rng.gen_range(lo..=hi))
            }
            DelayModel::Jittered { mean, jitter } => {
                let j = jitter.as_micros() as i64;
                if j == 0 {
                    return mean;
                }
                // Sum of two uniforms => triangular around 0.
                let a = rng.gen_range(-j..=j);
                let b = rng.gen_range(-j..=j);
                let off = (a + b) / 2;
                let base = mean.as_micros() as i64;
                SimDuration::from_micros((base + off).max(0) as u64)
            }
        }
    }

    /// The smallest delay the model can produce.
    pub fn min_delay(&self) -> SimDuration {
        match *self {
            DelayModel::Constant(d) => d,
            DelayModel::Uniform { min, .. } => min,
            DelayModel::Jittered { mean, jitter } => mean.saturating_sub(jitter),
        }
    }
}

/// Complete stochastic description of one direction of a link.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Propagation-delay distribution.
    pub delay: DelayModel,
    /// Loss process.
    pub loss: LossModel,
    /// Link bandwidth in bits per second; `None` means infinite (no
    /// serialization delay).
    pub bandwidth_bps: Option<u64>,
    /// When true the link preserves FIFO order even under jitter
    /// (models a reliable in-order pipe); when false packets may
    /// reorder.
    pub fifo: bool,
}

impl LinkConfig {
    /// A perfect link: no loss, constant `delay`, in-order.
    pub fn perfect(delay: SimDuration) -> Self {
        LinkConfig {
            delay: DelayModel::Constant(delay),
            loss: LossModel::None,
            bandwidth_bps: None,
            fifo: true,
        }
    }

    /// A lossy, jittery datagram link (out-of-order delivery allowed).
    pub fn lossy(mean_delay: SimDuration, jitter: SimDuration, loss_p: f64) -> Self {
        LinkConfig {
            delay: DelayModel::Jittered {
                mean: mean_delay,
                jitter,
            },
            loss: LossModel::bernoulli(loss_p),
            bandwidth_bps: None,
            fifo: false,
        }
    }

    /// Serialization time for `len` bytes at the configured bandwidth.
    pub(crate) fn serialization(&self, len: usize) -> SimDuration {
        match self.bandwidth_bps {
            None | Some(0) => SimDuration::ZERO,
            Some(bps) => {
                let bits = (len as u64).saturating_mul(8);
                SimDuration::from_micros(bits.saturating_mul(1_000_000) / bps)
            }
        }
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig::perfect(SimDuration::from_micros(500))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bernoulli_extremes() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut st = LossState::default();
        let never = LossModel::bernoulli(0.0);
        let always = LossModel::bernoulli(1.0);
        for _ in 0..100 {
            assert!(!never.drops(&mut st, &mut rng));
            assert!(always.drops(&mut st, &mut rng));
        }
    }

    #[test]
    fn bernoulli_rate_is_close() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut st = LossState::default();
        let m = LossModel::bernoulli(0.2);
        let drops = (0..20_000).filter(|_| m.drops(&mut st, &mut rng)).count();
        let rate = drops as f64 / 20_000.0;
        assert!((rate - 0.2).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn gilbert_elliott_is_bursty() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut st = LossState::default();
        let m = LossModel::GilbertElliott {
            p_good_to_bad: 0.01,
            p_bad_to_good: 0.2,
            loss_good: 0.0,
            loss_bad: 0.9,
        };
        // Count runs of consecutive losses; bursty loss should produce
        // at least one run of length >= 2.
        let mut run = 0usize;
        let mut max_run = 0usize;
        let mut total = 0usize;
        for _ in 0..50_000 {
            if m.drops(&mut st, &mut rng) {
                run += 1;
                total += 1;
                max_run = max_run.max(run);
            } else {
                run = 0;
            }
        }
        assert!(total > 0);
        assert!(max_run >= 2, "expected bursts, max_run={max_run}");
    }

    #[test]
    fn delay_models_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(11);
        let uni = DelayModel::Uniform {
            min: SimDuration::from_micros(100),
            max: SimDuration::from_micros(200),
        };
        for _ in 0..1000 {
            let d = uni.sample(&mut rng).as_micros();
            assert!((100..=200).contains(&d));
        }
        let jit = DelayModel::Jittered {
            mean: SimDuration::from_micros(1000),
            jitter: SimDuration::from_micros(300),
        };
        for _ in 0..1000 {
            let d = jit.sample(&mut rng).as_micros();
            assert!((700..=1300).contains(&d), "d={d}");
        }
    }

    #[test]
    fn serialization_delay() {
        let mut cfg = LinkConfig::perfect(SimDuration::ZERO);
        cfg.bandwidth_bps = Some(8_000_000); // 8 Mbit/s => 1 byte/us
        assert_eq!(cfg.serialization(1000).as_micros(), 1000);
        cfg.bandwidth_bps = None;
        assert_eq!(cfg.serialization(1000), SimDuration::ZERO);
    }

    #[test]
    fn min_delay_matches_models() {
        assert_eq!(
            DelayModel::Jittered {
                mean: SimDuration::from_micros(100),
                jitter: SimDuration::from_micros(40)
            }
            .min_delay()
            .as_micros(),
            60
        );
    }
}
