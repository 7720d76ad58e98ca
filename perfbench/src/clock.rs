//! The clocks operations are timed on.
//!
//! Every in-process operation is timed twice: on the wall clock and on the
//! CPU time of the whole process (`CLOCK_PROCESS_CPUTIME_ID`, every thread
//! summed, so work a call hands to helper threads still counts). The gated
//! latencies are the CPU times. On a virtual machine whose host is shared,
//! the wall clock also counts the time the host gave this machine's cores
//! to someone else; with paravirtual steal accounting the process clock
//! does not. For a single-threaded operation with no I/O, as every timed
//! library call here is, the CPU time is the latency a user would see on a
//! core of their own. Wall times are printed beside them.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's id of the clock that sums the CPU time of every thread of the
/// calling process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has used so far.
pub fn cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Both clocks, started together.
#[derive(Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

/// What a [`Stopwatch`] read: wall and process CPU milliseconds.
#[derive(Clone, Copy, Debug)]
pub struct Lap {
    pub wall_ms: f64,
    pub cpu_ms: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu_secs(),
        }
    }

    pub fn lap(&self) -> Lap {
        Lap {
            cpu_ms: (cpu_secs() - self.cpu) * 1e3,
            wall_ms: self.wall.elapsed().as_secs_f64() * 1e3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Other tests run on other threads of this process and add to its CPU
    // clock, so only a lower bound holds here.
    #[test]
    fn cpu_clock_counts_work() {
        let watch = Stopwatch::start();
        let mut x = 1u64;
        while watch.lap().wall_ms < 20.0 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005));
        }
        assert!(watch.lap().cpu_ms > 5.0, "{x}");
    }
}
