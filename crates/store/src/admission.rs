//! Disk-bandwidth admission control.
//!
//! Every stream carries a bandwidth demand (the movie's mean bitrate
//! scaled by playback speed). The controller admits a stream only when
//! the aggregate committed demand stays within the store's deliverable
//! bandwidth; otherwise the request is rejected up the SUA agent path
//! so the client sees a negative response instead of a degraded
//! stream.

use std::collections::HashMap;

/// Why a stream was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejection {
    /// Bandwidth the stream would need, in bits/second.
    pub demanded_bps: u64,
    /// Bandwidth still uncommitted, in bits/second.
    pub available_bps: u64,
}

/// Counters kept by the admission controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Streams admitted (including successful re-negotiations).
    pub admitted: u64,
    /// Requests rejected.
    pub rejected: u64,
    /// Streams released.
    pub released: u64,
}

/// Tracks committed disk bandwidth against a fixed capacity.
#[derive(Debug)]
pub struct AdmissionController {
    capacity_bps: u64,
    committed_bps: u64,
    per_stream: HashMap<u32, u64>,
    /// Counters.
    pub stats: AdmissionStats,
}

impl AdmissionController {
    /// Creates a controller over `capacity_bps` of deliverable
    /// bandwidth.
    pub(crate) fn new(capacity_bps: u64) -> Self {
        AdmissionController {
            capacity_bps,
            committed_bps: 0,
            per_stream: HashMap::new(),
            stats: AdmissionStats::default(),
        }
    }

    /// Total deliverable bandwidth.
    pub(crate) fn capacity_bps(&self) -> u64 {
        self.capacity_bps
    }

    /// Resizes the deliverable bandwidth (a spindle died or came
    /// back). Existing commitments are untouched: the controller may
    /// be over-committed afterwards, in which case `available_bps`
    /// reads zero and every new admit is refused until enough streams
    /// release.
    pub(crate) fn set_capacity_bps(&mut self, capacity_bps: u64) {
        self.capacity_bps = capacity_bps;
    }

    /// Bandwidth currently committed to admitted streams.
    pub(crate) fn committed_bps(&self) -> u64 {
        self.committed_bps
    }

    /// Bandwidth still available for new streams.
    pub(crate) fn available_bps(&self) -> u64 {
        self.capacity_bps.saturating_sub(self.committed_bps)
    }

    /// Demand committed for one stream, if admitted.
    pub(crate) fn demand_of(&self, stream: u32) -> Option<u64> {
        self.per_stream.get(&stream).copied()
    }

    /// Admits `stream` at `demanded_bps`, or — when already admitted —
    /// re-negotiates its demand to the new value (e.g. a speed
    /// change). On rejection the previous commitment is untouched.
    ///
    /// # Errors
    ///
    /// Returns a [`Rejection`] when the new aggregate would exceed
    /// capacity.
    pub(crate) fn admit(&mut self, stream: u32, demanded_bps: u64) -> Result<(), Rejection> {
        let current = self.per_stream.get(&stream).copied().unwrap_or(0);
        let rest = self.committed_bps - current;
        if rest + demanded_bps > self.capacity_bps {
            self.stats.rejected += 1;
            return Err(Rejection {
                demanded_bps,
                available_bps: self.capacity_bps.saturating_sub(rest),
            });
        }
        self.committed_bps = rest + demanded_bps;
        self.per_stream.insert(stream, demanded_bps);
        self.stats.admitted += 1;
        Ok(())
    }

    /// Releases a stream's commitment (idempotent).
    pub(crate) fn release(&mut self, stream: u32) {
        if let Some(bps) = self.per_stream.remove(&stream) {
            self.committed_bps -= bps;
            self.stats.released += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_until_capacity_then_rejects() {
        let mut a = AdmissionController::new(100);
        a.admit(1, 40).unwrap();
        a.admit(2, 40).unwrap();
        let rej = a.admit(3, 40).unwrap_err();
        assert_eq!(
            rej,
            Rejection {
                demanded_bps: 40,
                available_bps: 20
            }
        );
        assert_eq!(a.committed_bps(), 80);
        assert_eq!(a.stats.rejected, 1);
    }

    #[test]
    fn release_readmits() {
        let mut a = AdmissionController::new(100);
        a.admit(1, 60).unwrap();
        assert!(a.admit(2, 60).is_err());
        a.release(1);
        a.admit(2, 60).unwrap();
        assert_eq!(a.demand_of(1), None);
        a.release(99); // unknown: no-op
        assert_eq!(a.committed_bps(), 60);
    }

    #[test]
    fn capacity_shrink_blocks_new_admits_only() {
        let mut a = AdmissionController::new(100);
        a.admit(1, 60).unwrap();
        a.set_capacity_bps(50);
        // Over-committed: nothing new fits, the old stream keeps
        // playing, and available reads zero (not underflow).
        assert_eq!(a.available_bps(), 0);
        assert!(a.admit(2, 1).is_err());
        a.release(1);
        a.admit(2, 50).unwrap();
        assert_eq!(a.committed_bps(), 50);
    }

    #[test]
    fn renegotiation_replaces_not_adds() {
        let mut a = AdmissionController::new(100);
        a.admit(1, 50).unwrap();
        // Doubling the speed doubles the demand — still fits.
        a.admit(1, 100).unwrap();
        assert_eq!(a.committed_bps(), 100);
        // Over-capacity renegotiation fails and keeps the old demand.
        assert!(a.admit(1, 150).is_err());
        assert_eq!(a.demand_of(1), Some(100));
        assert_eq!(a.committed_bps(), 100);
    }
}
