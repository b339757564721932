//! Co-simulation driver: interleaves the Estelle scheduler with the
//! discrete-event network.
//!
//! Protocol stacks talk to each other through `netsim` pipes/datagrams.
//! The driver alternates: run the specification until quiescent, then
//! advance simulated time to the next event (a network delivery or a
//! module `delay` deadline), and repeat — a classic two-domain DES
//! co-simulation.

use crate::runtime::{Readiness, Runtime};
use crate::sched::{run_sequential, SeqOptions, StopReason};
use netsim::{Network, SimTime};

/// Runs `rt` against `net` until both are idle, simulated time would
/// pass `limit`, or `opts.max_firings` is spent by one scheduler run.
///
/// The runtime must share the network's virtual clock (construct it
/// with `Runtime::with_virtual_clock(net.clock())`).
pub fn run_sim(rt: &Runtime, net: &Network, opts: &SeqOptions, limit: SimTime) {
    let opts = SeqOptions {
        // Time advancement is the driver's job here: the scheduler
        // must return Quiescent instead of skipping over pending
        // network events.
        advance_time: false,
        ..opts.clone()
    };
    loop {
        if run_sequential(rt, &opts).stopped == StopReason::MaxFirings {
            return;
        }
        let next_delay = match rt.readiness(opts.dispatch) {
            Readiness::Enabled => continue,
            Readiness::IdleUntil(deadline) => deadline,
        };
        let next_net = net.next_event_at();
        let Some(next) = [next_net, next_delay].into_iter().flatten().min() else {
            return; // fully quiescent
        };
        if next > limit {
            return; // next event beyond the horizon
        }
        if next_net.is_some_and(|a| a <= next) {
            net.step();
        } else {
            rt.advance_clock_to(next);
        }
    }
}
