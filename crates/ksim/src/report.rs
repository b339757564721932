//! Replay results and derived metrics.

use netsim::SimDuration;

/// Result of replaying a trace on a simulated machine.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Completion time of the last firing.
    pub makespan: SimDuration,
    /// Number of firings replayed.
    pub firings: usize,
    /// Busy time per processor (work + local dispatch + switches).
    pub per_proc_busy: Vec<SimDuration>,
    /// Total useful transition work.
    pub work: SimDuration,
    /// Total dispatch (scheduler) time.
    pub dispatch_time: SimDuration,
    /// Total cross-unit synchronization time added to edges.
    pub sync_time: SimDuration,
    /// Context switches charged.
    pub ctx_switches: u64,
    /// Number of units the mapping produced.
    pub units: usize,
}

impl SimReport {
    /// Mean processor utilization over the makespan.
    pub fn utilization(&self) -> f64 {
        if self.makespan.is_zero() || self.per_proc_busy.is_empty() {
            return 0.0;
        }
        let busy: f64 = self.per_proc_busy.iter().map(|d| d.as_secs_f64()).sum();
        busy / (self.makespan.as_secs_f64() * self.per_proc_busy.len() as f64)
    }

    /// Load imbalance: busiest processor's busy time divided by the
    /// mean busy time. 1.0 is a perfectly balanced machine; large
    /// values mean one processor carries most of the work.
    pub fn imbalance(&self) -> f64 {
        if self.per_proc_busy.is_empty() {
            return 1.0;
        }
        let mean: f64 = self
            .per_proc_busy
            .iter()
            .map(|d| d.as_secs_f64())
            .sum::<f64>()
            / self.per_proc_busy.len() as f64;
        if mean == 0.0 {
            return 1.0;
        }
        let max = self
            .per_proc_busy
            .iter()
            .map(|d| d.as_secs_f64())
            .fold(0.0f64, f64::max);
        max / mean
    }
}

/// Speedup of `parallel` over `baseline` makespans.
pub fn speedup(baseline: &SimReport, parallel: &SimReport) -> f64 {
    if parallel.makespan.is_zero() {
        return 1.0;
    }
    baseline.makespan.as_secs_f64() / parallel.makespan.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(busy_us: &[u64], makespan_us: u64) -> SimReport {
        SimReport {
            makespan: SimDuration::from_micros(makespan_us),
            firings: 0,
            per_proc_busy: busy_us
                .iter()
                .map(|&u| SimDuration::from_micros(u))
                .collect(),
            work: SimDuration::ZERO,
            dispatch_time: SimDuration::ZERO,
            sync_time: SimDuration::ZERO,
            ctx_switches: 0,
            units: busy_us.len(),
        }
    }

    #[test]
    fn utilization_bounds() {
        let r = report(&[100, 100], 100);
        assert!((r.utilization() - 1.0).abs() < 1e-9);
        let half = report(&[100, 0], 100);
        assert!((half.utilization() - 0.5).abs() < 1e-9);
        assert_eq!(report(&[], 0).utilization(), 0.0);
    }

    #[test]
    fn imbalance_metric() {
        assert!((report(&[100, 100], 100).imbalance() - 1.0).abs() < 1e-9);
        assert!((report(&[300, 100], 300).imbalance() - 1.5).abs() < 1e-9);
        assert_eq!(report(&[], 0).imbalance(), 1.0);
        assert_eq!(report(&[0, 0], 10).imbalance(), 1.0);
    }

    #[test]
    fn speedup_guards_zero() {
        let a = report(&[100], 100);
        let z = report(&[0], 0);
        assert_eq!(speedup(&a, &z), 1.0);
        let b = report(&[50], 50);
        assert!((speedup(&a, &b) - 2.0).abs() < 1e-9);
    }
}
