//! Offline stand-in for the subset of the `rand` crate API this
//! workspace uses.
//!
//! The build container has no crates.io access, so the real `rand`
//! cannot be fetched. This shim keeps the call sites source-compatible
//! (`Rng`, `SeedableRng`, `rngs::StdRng`) while being **deterministic
//! by construction**: `StdRng` is xoshiro256++ seeded via SplitMix64
//! from a caller-supplied `u64`. There is deliberately no `thread_rng`
//! and no `random()` — entropy-backed constructors are exactly what the
//! determinism contract forbids, so a call to one cannot compile.
//!
//! Draw sequences differ from upstream `rand`'s `StdRng` (ChaCha12);
//! everything in this workspace derives expectations from the seeded
//! stream itself, never from hard-coded upstream vectors.

use std::ops::{Range, RangeInclusive};

/// Minimal core RNG interface: a source of uniform 64-bit words.
pub trait RngCore {
    /// Next uniform 64-bit word.
    fn next_u64(&mut self) -> u64;

    /// Next uniform 32-bit word (upper half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Types that can be drawn uniformly from an RNG (the shim's analogue of
/// `Standard: Distribution<T>`).
pub trait Uniform: Sized {
    /// Draw one value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Uniform for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Uniform for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Uniform for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges that can be sampled from (`gen_range` argument), mirroring
/// `rand::distributions::uniform::SampleRange`.
pub trait SampleRange<T> {
    /// Draw one value from the range. Panics on an empty range, like
    /// upstream `rand`.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u128).wrapping_sub(self.start as u128) as u64;
                // Multiply-shift bounded draw (Lemire); bias is < 2^-64
                // per draw, far below anything a simulation can observe.
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                self.start.wrapping_add(hi as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                if lo == <$t>::MIN && hi == <$t>::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add((lo..hi.wrapping_add(1)).sample_from(rng).wrapping_sub(lo))
            }
        }
    )*};
}
sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + f64::draw(rng) * (self.end - self.start)
    }
}

/// The subset of `rand::Rng` this workspace calls.
pub trait Rng: RngCore {
    /// Uniform draw of `T` (integers: full range; floats: `[0, 1)`).
    fn gen<T: Uniform>(&mut self) -> T {
        T::draw(self)
    }

    /// Uniform draw from a half-open or inclusive range.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Bernoulli draw: `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p must be in [0,1]");
        f64::draw(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// RNGs constructible from a seed.
pub trait SeedableRng: Sized {
    /// Build from a 64-bit seed (the only constructor the workspace
    /// uses; full-width `from_seed` is intentionally omitted).
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    //! Named RNG implementations.

    use super::{RngCore, SeedableRng};

    /// Deterministic standard RNG: xoshiro256++ (Blackman & Vigna),
    /// seeded via SplitMix64. Not the upstream ChaCha12 `StdRng`, but a
    /// high-quality, reproducible stream — which is all the simulations
    /// require.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 seed expansion, per the xoshiro authors'
            // recommendation; guarantees a non-zero state.
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        let a1: u64 = a.gen();
        let c1: u64 = c.gen();
        assert_ne!(a1, c1);
    }

    use super::RngCore;

    #[test]
    fn floats_unit_interval() {
        let mut r = StdRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn ranges_respected() {
        let mut r = StdRng::seed_from_u64(9);
        let mut seen = [false; 4];
        for _ in 0..1_000 {
            let v = r.gen_range(0..4u8);
            assert!(v < 4);
            seen[v as usize] = true;
            let w = r.gen_range(10..=12u32);
            assert!((10..=12).contains(&w));
            let f = r.gen_range(-1.0..1.0f64);
            assert!((-1.0..1.0).contains(&f));
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(!r.gen_bool(0.0));
            assert!(r.gen_bool(1.0));
        }
    }
}
