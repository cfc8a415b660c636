//! Fixed reference kernels that measure how fast the host runs right now.
//!
//! The benchmark runs on a few CPUs of a host shared with other load. The
//! simulator's speed there drifts by 20% and more over minutes, with the
//! clock frequency and with the other tenants' use of the shared cache and
//! memory system. The simulator's access path is part arithmetic (random
//! number generation, hashing, set indexing) and part dependent loads from
//! tables larger than the per-core L2, so the speed is timed with two
//! kernels of those kinds and taken as the geometric mean of both timings:
//!
//! * four independent xorshift-multiply chains, for core speed;
//! * a dependent-load chase through an 8 MiB table (twice the L2), warmed
//!   before each timing so it measures the shared cache's latency whatever
//!   the last pass left behind.
//!
//! The kernels are written here, not in the simulator crates, so no change
//! to the simulator moves them. Timed between passes, their median over a
//! run gives the host's speed during that run.

use std::hint::black_box;

use crate::clock::process_cpu_s;

/// Entries of the chase table: 2^21 × 4 B = 8 MiB.
const ENTRIES: usize = 1 << 21;
/// Dependent loads per chase timing.
const CHASE_STEPS: u32 = 250_000;
/// Rounds of the four chains per arithmetic timing.
const ARITH_ROUNDS: u32 = 1_000_000;
/// The geometric mean of both timings, in seconds, on a host at reference
/// speed: a 2-vCPU slice of a shared Intel Xeon server when quiet. Rates
/// and times are scaled to this speed; see [`HostSpeed::factor`].
pub const REFERENCE_S: f64 = 0.0125;

/// One step of xorshift64*.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x >> 12;
    *x ^= *x << 25;
    *x ^= *x >> 27;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// The chase table and the timings taken so far.
pub struct HostSpeed {
    next: Vec<u32>,
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Builds the table from a fixed seed, so every run chases the same
    /// cycle. Sattolo's shuffle turns the identity into one random cycle
    /// through every entry, in place, so the table is the only allocation.
    pub fn new() -> Self {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next: Vec<u32> = (0..ENTRIES as u32).collect();
        for i in (1..ENTRIES).rev() {
            let r = xorshift(&mut state);
            next.swap(i, (r % i as u64) as usize);
        }
        Self {
            next,
            samples: Vec::new(),
        }
    }

    /// Bytes the table holds resident for the whole run.
    pub fn bytes(&self) -> usize {
        self.next.len() * std::mem::size_of::<u32>()
    }

    /// CPU seconds of the arithmetic kernel.
    fn arith_s() -> f64 {
        let t = process_cpu_s();
        let mut x = [1u64, 2, 3, 4];
        for _ in 0..ARITH_ROUNDS {
            for v in &mut x {
                *v = xorshift(v);
            }
        }
        black_box(x);
        process_cpu_s() - t
    }

    /// CPU seconds of the chase, after warming the table.
    fn chase_s(&self) -> f64 {
        black_box(self.next.iter().fold(0u32, |a, &b| a ^ b));
        let t = process_cpu_s();
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = self.next[at as usize];
        }
        black_box(at);
        process_cpu_s() - t
    }

    /// Times both kernels and keeps the geometric mean of their timings.
    pub fn sample(&mut self) {
        let secs = (Self::arith_s() * self.chase_s()).sqrt();
        self.samples.push(secs);
    }

    /// Forgets the timings so far.
    pub fn clear(&mut self) {
        self.samples.clear();
    }

    /// How much faster than reference speed the host ran: the reference
    /// timing over the median timing so far. A measured time times the
    /// factor is the time at reference speed; a measured rate divided by it
    /// is the rate at reference speed.
    pub fn factor(&self) -> f64 {
        REFERENCE_S / crate::stats::median(&self.samples)
    }
}
