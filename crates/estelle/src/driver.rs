//! Co-simulation driver: interleaves the Estelle scheduler with the
//! discrete-event network.
//!
//! Protocol stacks talk to each other through `netsim` pipes/datagrams.
//! The driver alternates: run the specification until quiescent, then
//! advance simulated time to the next event (a network delivery or a
//! module `delay` deadline), and repeat — a classic two-domain DES
//! co-simulation.

use crate::runtime::{Readiness, Runtime};
use crate::sched::{run_sequential, RunReport, SeqOptions, StopReason};
use netsim::{Network, SimTime};
use std::time::{Duration, Instant};

/// Report of a co-simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Total transition firings.
    pub firings: u64,
    /// Simulated completion time.
    pub sim_time: SimTime,
    /// Wall time spent driving.
    pub wall: Duration,
    /// True if the run ended because nothing remained to do (rather
    /// than hitting `limit`).
    pub completed: bool,
}

/// Runs `rt` against `net` until both are idle or simulated time
/// exceeds `limit`.
///
/// The runtime must share the network's virtual clock (construct it
/// with `Runtime::with_virtual_clock(net.clock())`).
///
/// # Panics
///
/// Panics if the runtime has no virtual clock.
pub fn run_sim(rt: &Runtime, net: &Network, opts: &SeqOptions, limit: SimTime) -> SimReport {
    assert!(
        rt.virtual_clock().is_some(),
        "run_sim requires a virtual-clock runtime sharing the network clock"
    );
    let t0 = Instant::now();
    let mut firings = 0u64;
    let mut inner_opts = opts.clone();
    // Time advancement is the driver's job here: the scheduler must
    // return Quiescent instead of skipping over pending network events.
    inner_opts.advance_time = false;
    let completed = loop {
        let report: RunReport = run_sequential(rt, &inner_opts);
        firings += report.firings;
        if report.stopped == StopReason::MaxFirings {
            break false;
        }
        let next_delay = match rt.readiness(inner_opts.dispatch) {
            Readiness::Enabled => continue,
            Readiness::IdleUntil(deadline) => deadline,
        };
        let next_net = net.next_event_at();
        let next = match (next_net, next_delay) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        match next {
            Some(t) if t <= limit => {
                if next_net.is_some_and(|a| a <= t) {
                    net.step();
                } else {
                    rt.advance_clock_to(t);
                }
            }
            Some(_) => break false, // next event beyond horizon
            None => break true,     // fully quiescent
        }
    };
    SimReport {
        firings,
        sim_time: rt.now(),
        wall: t0.elapsed(),
        completed,
    }
}
