//! The simulated clock, advanced by whoever drives the simulation.

use crate::time::SimTime;
use std::sync::atomic::{AtomicU64, Ordering};

/// A clock advanced explicitly by a simulation driver.
///
/// The network, the Estelle runtime and the journal all read the same
/// simulated time, which moves only when a driver advances it. The
/// clock is monotone: [`VirtualClock::advance_to`] ignores attempts to
/// move backwards.
///
/// # Examples
///
/// ```
/// use netsim::{VirtualClock, SimTime};
/// let clock = VirtualClock::new();
/// clock.advance_to(SimTime::from_millis(10));
/// assert_eq!(clock.now(), SimTime::from_millis(10));
/// ```
#[derive(Debug, Default)]
pub struct VirtualClock {
    micros: AtomicU64,
}

impl VirtualClock {
    /// Creates a clock positioned at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the current instant.
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.micros.load(Ordering::SeqCst))
    }

    /// Moves the clock forward to `t`; no-op if `t` is in the past.
    pub fn advance_to(&self, t: SimTime) {
        self.micros.fetch_max(t.as_micros(), Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_is_monotone() {
        let c = VirtualClock::new();
        c.advance_to(SimTime::from_micros(100));
        c.advance_to(SimTime::from_micros(50)); // ignored
        assert_eq!(c.now().as_micros(), 100);
        c.advance_to(SimTime::from_micros(125));
        assert_eq!(c.now().as_micros(), 125);
    }

    #[test]
    fn advances_from_many_threads_keep_the_furthest_instant() {
        let c = std::sync::Arc::new(VirtualClock::new());
        let threads: Vec<_> = (0..4u64)
            .map(|k| {
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    (0..1000).for_each(|i| c.advance_to(SimTime::from_micros(k * 1000 + i)))
                })
            })
            .collect();
        threads.into_iter().for_each(|t| t.join().unwrap());
        assert_eq!(c.now().as_micros(), 3999);
    }
}
