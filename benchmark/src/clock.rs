//! The two host clocks a round is timed on.
//!
//! Wall time is what a user waits; but on a shared machine the
//! hypervisor takes the CPU away for seconds at a time (steal), and
//! wall time then reads several times too long. The process CPU clock
//! does not run while the process is off the CPU, and since nothing
//! measured here sleeps or waits for I/O it reads the same as wall time
//! on a quiet machine. The bounded end-to-end timings use it.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPUTIME: i32 = 2;

/// CPU time consumed by every thread of this process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` (two 64-bit fields on
    // the 64-bit Linux targets this benchmark runs on), and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Both clocks, started together.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu_ns: u64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu_ns: process_cpu_ns(),
        }
    }

    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    pub fn cpu_s(&self) -> f64 {
        (process_cpu_ns() - self.cpu_ns) as f64 / 1e9
    }

    /// Seconds from this stopwatch's start to `later`'s, on
    /// `(wall, cpu)`.
    pub fn until(&self, later: &Stopwatch) -> (f64, f64) {
        (
            (later.wall - self.wall).as_secs_f64(),
            (later.cpu_ns - self.cpu_ns) as f64 / 1e9,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Other tests run on sibling threads and the clock is the whole
    /// process's, so only its own progress can be asserted: busy work
    /// moves it, and `until` agrees with reading it twice.
    #[test]
    fn cpu_clock_advances_with_work() {
        let watch = Stopwatch::start();
        let mut x = 0u64;
        while watch.cpu_s() < 0.01 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let (wall, cpu) = watch.until(&Stopwatch::start());
        assert!(cpu >= 0.01 && wall > 0.0);
        assert!(watch.wall_s() >= wall);
    }
}
