//! The simulated clock, advanced by whoever drives the simulation.

use crate::time::{SimDuration, SimTime};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A source of [`SimTime`] instants.
///
/// The one implementation is [`VirtualClock`]: the network, the
/// Estelle runtime and the journal all read the same simulated time,
/// which moves only when a driver advances it. The journal takes its
/// clock as `Arc<dyn Clock>`, so a caller can stamp records with any
/// other source.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Returns the current instant.
    fn now(&self) -> SimTime;
}

/// A clock advanced explicitly by a simulation driver.
///
/// The clock is monotone: [`VirtualClock::advance_to`] ignores attempts
/// to move backwards.
///
/// # Examples
///
/// ```
/// use netsim::{Clock, VirtualClock, SimTime};
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

    /// Moves the clock forward to `t`; no-op if `t` is in the past.
    pub fn advance_to(&self, t: SimTime) {
        self.micros.fetch_max(t.as_micros(), Ordering::SeqCst);
    }

    /// Moves the clock forward by `d`.
    pub fn advance(&self, d: SimDuration) {
        self.micros.fetch_add(d.as_micros(), Ordering::SeqCst);
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.micros.load(Ordering::SeqCst))
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
        c.advance(SimDuration::from_micros(25));
        assert_eq!(c.now().as_micros(), 125);
    }

    #[test]
    fn clocks_are_object_safe() {
        let clock: Box<dyn Clock> = Box::new(VirtualClock::new());
        assert_eq!(clock.now(), SimTime::ZERO);
    }
}
