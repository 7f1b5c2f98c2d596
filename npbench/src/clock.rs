//! The one place the benchmark reads the host clock.
//!
//! `npcheck`'s wall-clock rule exists to keep host state out of the
//! simulation. Host time is the quantity this package exists to
//! measure, and nothing read here is ever handed to the code under
//! test — so the read is allowed once, here, and every timing in the
//! package goes through [`Stopwatch`].

use std::time::Instant;

/// A started stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start now.
    pub fn start() -> Self {
        // npcheck: allow(wall-clock) — host time is what the benchmark measures; it never reaches a simulation
        Stopwatch(Instant::now())
    }

    /// Nanoseconds since the start.
    pub fn ns(self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Seconds since the start.
    pub fn secs(self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}
