//! Deterministic hashed collections.
//!
//! `std::collections::HashMap` seeds its SipHash keys from OS entropy at
//! process start, so *iteration order differs between runs*. Any code
//! that iterates such a map — to pick a victim flow, emit a report, or
//! drain a queue — silently breaks the byte-reproducibility the
//! simulation depends on (same seed ⇒ same report; see DESIGN.md,
//! "Determinism contract"). `clippy.toml` disallows raw
//! `HashMap`/`HashSet` workspace-wide for exactly this reason.
//!
//! [`DetHashMap`] and [`DetHashSet`] are drop-in aliases backed by
//! [`DetState`], a fixed-seed FxHash-style hasher: the same keys always
//! hash the same way, in every run, on every host. Iteration order is
//! still *arbitrary* (insertion history dependent) — but it is the same
//! arbitrary order every run, which is what reproducibility needs.
//! Where a *meaningful* order is required (reports, sorted output), use
//! `BTreeMap`/`BTreeSet` instead.

#[allow(clippy::disallowed_types, reason = "defines the deterministic aliases")]
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` with a fixed-seed hasher: reproducible across runs.
#[allow(clippy::disallowed_types, reason = "alias pins the hasher to DetState")]
pub type DetHashMap<K, V> = HashMap<K, V, DetState>;

/// A `HashSet` with a fixed-seed hasher: reproducible across runs.
#[allow(clippy::disallowed_types, reason = "alias pins the hasher to DetState")]
pub type DetHashSet<T> = HashSet<T, DetState>;

/// Fixed-seed `BuildHasher` for [`DetHashMap`] / [`DetHashSet`].
pub type DetState = BuildHasherDefault<FxHasher>;

/// 64-bit multiply-rotate hasher (the rustc FxHash recipe), seedless by
/// construction — `Default` always yields the identical initial state.
///
/// Not DoS-resistant; the simulator hashes its own flow IDs, not
/// attacker-controlled input, and determinism is worth more here than
/// flood resistance.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    state: u64,
}

const ROTATE: u32 = 5;
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.state = (self.state.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = [0u8; 8];
            // rem.len() < 8 by chunks_exact contract
            word[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// Construct an empty [`DetHashMap`].
///
/// `DetHashMap::new()` does not exist (std only offers `new` for the
/// `RandomState` default), so use this or `DetHashMap::default()`.
pub fn det_map<K, V>() -> DetHashMap<K, V> {
    DetHashMap::default()
}

/// Construct an empty [`DetHashSet`].
pub fn det_set<T>() -> DetHashSet<T> {
    DetHashSet::default()
}

/// Construct a [`DetHashMap`] with room for `cap` entries.
pub fn det_map_with_capacity<K, V>(cap: usize) -> DetHashMap<K, V> {
    DetHashMap::with_capacity_and_hasher(cap, DetState::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_one<T: Hash>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn identical_values_hash_identically() {
        assert_eq!(hash_one(&42u64), hash_one(&42u64));
        assert_eq!(hash_one(&"flow"), hash_one(&"flow"));
        assert_ne!(hash_one(&1u64), hash_one(&2u64));
    }

    #[test]
    fn build_hasher_default_is_stateless() {
        let s1 = DetState::default();
        let s2 = DetState::default();
        assert_eq!(s1.hash_one(1234u64), s2.hash_one(1234u64));
    }

    #[test]
    fn map_iteration_order_is_reproducible() {
        let build = || {
            let mut m: DetHashMap<u64, u64> = det_map();
            for k in 0..1000u64 {
                m.insert(k.wrapping_mul(0x9e37_79b9_7f4a_7c15), k);
            }
            m.keys().copied().collect::<Vec<_>>()
        };
        assert_eq!(build(), build(), "same inserts must iterate identically");
    }

    #[test]
    fn set_behaves_like_a_set() {
        let mut s: DetHashSet<u32> = det_set();
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.contains(&7));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn unaligned_byte_writes_are_stable() {
        // Exercises the chunks_exact remainder path.
        assert_eq!(hash_one(&[1u8, 2, 3]), hash_one(&[1u8, 2, 3]));
        assert_ne!(hash_one(&[1u8, 2, 3]), hash_one(&[1u8, 2, 4]));
    }
}
