//! The simulated multiprocessor: processor count and overhead model.

use netsim::SimDuration;

/// Per-mechanism overhead parameters of the simulated multiprocessor.
#[derive(Debug, Clone, Copy)]
pub struct Overheads {
    /// Scheduler cost per firing (transition selection + dispatch).
    pub dispatch: SimDuration,
    /// Cost added to a dependency edge that crosses units (lock/queue
    /// synchronization between threads).
    pub sync: SimDuration,
    /// Cost charged when a processor switches from running one unit to
    /// another between consecutive firings.
    pub ctx_switch: SimDuration,
    /// When true, all dispatch work serializes through one coordinator
    /// (the centralized scheduler); when false each unit dispatches on
    /// its own processor (decentralized).
    pub centralized: bool,
    /// When true, the `sync` cost of a cross-unit dependency also
    /// occupies the consuming processor (thread wake-up work under
    /// OSF/1), rather than only delaying the edge. This is what kept
    /// the paper's module-per-thread speedups at 1.4–2.0 despite
    /// 16-way nominal parallelism.
    pub sync_occupies_cpu: bool,
}

impl Default for Overheads {
    fn default() -> Self {
        Overheads {
            dispatch: SimDuration::from_micros(10),
            sync: SimDuration::from_micros(20),
            ctx_switch: SimDuration::from_micros(15),
            centralized: false,
            sync_occupies_cpu: false,
        }
    }
}

impl Overheads {
    /// Overheads tuned to mimic the paper's KSR1/OSF-1 threads setup:
    /// noticeable synchronization and context-switch costs relative to
    /// small protocol transitions.
    pub fn ksr1_like() -> Self {
        Overheads {
            dispatch: SimDuration::from_micros(12),
            sync: SimDuration::from_micros(35),
            ctx_switch: SimDuration::from_micros(25),
            centralized: false,
            sync_occupies_cpu: false,
        }
    }

    /// Overheads modelling OSF/1 thread handoff occupying the
    /// receiving CPU — the regime of the paper's §5.1 measurement
    /// (1993-era mutex/condvar wake-ups cost hundreds of microseconds,
    /// far above a protocol transition).
    pub fn osf1_threads() -> Self {
        Overheads {
            dispatch: SimDuration::from_micros(12),
            sync: SimDuration::from_micros(400),
            ctx_switch: SimDuration::from_micros(150),
            centralized: false,
            sync_occupies_cpu: true,
        }
    }

    /// An idealized machine with free scheduling, synchronization and
    /// context switches — useful to isolate algorithmic parallelism
    /// from overhead effects in ablations.
    pub fn free() -> Self {
        Overheads {
            dispatch: SimDuration::ZERO,
            sync: SimDuration::ZERO,
            ctx_switch: SimDuration::ZERO,
            centralized: false,
            sync_occupies_cpu: false,
        }
    }
}

/// The simulated machine: processor count plus overheads.
#[derive(Debug, Clone, Copy)]
pub struct Machine {
    /// Number of processors (1–32 on the paper's KSR1).
    pub processors: usize,
    /// Overhead model.
    pub overheads: Overheads,
}

impl Machine {
    /// A machine with `processors` CPUs and default overheads.
    pub fn with_processors(processors: usize) -> Self {
        Machine {
            processors,
            overheads: Overheads::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        let free = Overheads::free();
        assert!(free.dispatch.is_zero() && free.sync.is_zero() && free.ctx_switch.is_zero());
        let osf = Overheads::osf1_threads();
        assert!(osf.sync > Overheads::default().sync);
        assert!(osf.sync_occupies_cpu);
    }
}
