//! Fixture: wall-clock and ambient-entropy APIs outside the exempt files.
use std::time::{Instant, SystemTime};

pub fn sample() -> u128 {
    let t0 = Instant::now();
    let wall = SystemTime::now();
    let mut rng = rand::thread_rng();
    let jitter: u64 = rand::random();
    let _ = (wall, rng.next_u64(), jitter);
    t0.elapsed().as_nanos()
}
