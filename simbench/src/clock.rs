//! Process CPU time, the clock every timed pass is measured on.
//!
//! On a host shared with other load, wall time also counts the stretches
//! in which this process waits for a CPU. Process CPU time counts only the
//! time its threads ran, summed over threads, so a sweep's pool workers are
//! included.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds used so far by every thread of this process.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A started measurement of wall and CPU time.
pub struct Stopwatch {
    wall: std::time::Instant,
    cpu: f64,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Self {
        Self {
            wall: std::time::Instant::now(),
            cpu: process_cpu_s(),
        }
    }

    /// `(wall seconds, CPU seconds)` since the start.
    pub fn elapsed(&self) -> (f64, f64) {
        (
            self.wall.elapsed().as_secs_f64(),
            process_cpu_s() - self.cpu,
        )
    }
}
