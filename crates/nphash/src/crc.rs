//! Cyclic-redundancy-code hash functions.
//!
//! The paper hashes the 5-tuple with **CRC16** ("CRC16 is shown to provide
//! good performance for hashing IP headers" — Cao, Wang & Zegura,
//! INFOCOM 2000). The default entry point [`crc16_ccitt`] is
//! table-driven — a `const`-built 256-entry table — while
//! [`crc16_ccitt_bitwise`] remains as the independent oracle that unit
//! and property tests pin the table against, together with the published
//! check value.

/// Bitwise CRC16-CCITT-FALSE (poly `0x1021`, init `0xFFFF`, no reflection).
///
/// Check value: `crc16_ccitt_bitwise(b"123456789") == 0x29B1`. Reference
/// oracle for the table-driven [`crc16_ccitt`].
pub fn crc16_ccitt_bitwise(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &byte in data {
        crc ^= (byte as u16) << 8;
        for _ in 0..8 {
            if crc & 0x8000 != 0 {
                crc = (crc << 1) ^ 0x1021;
            } else {
                crc <<= 1;
            }
        }
    }
    crc
}

/// One table entry for the non-reflected CCITT polynomial.
const fn ccitt_entry(i: u16) -> u16 {
    let mut crc = i << 8;
    let mut bit = 0;
    while bit < 8 {
        if crc & 0x8000 != 0 {
            crc = (crc << 1) ^ 0x1021;
        } else {
            crc <<= 1;
        }
        bit += 1;
    }
    crc
}

/// The 256-entry CCITT table, built at compile time.
const fn ccitt_table() -> [u16; 256] {
    let mut table = [0u16; 256];
    let mut i = 0;
    while i < 256 {
        table[i] = ccitt_entry(i as u16);
        i += 1;
    }
    table
}

static CCITT_TABLE: [u16; 256] = ccitt_table();

/// Table-driven CRC16-CCITT-FALSE — the default fast path.
///
/// Check value: `crc16_ccitt(b"123456789") == 0x29B1`.
#[inline]
pub fn crc16_ccitt(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &byte in data {
        let idx = ((crc >> 8) ^ byte as u16) as usize & 0xFF;
        crc = (crc << 8) ^ CCITT_TABLE[idx];
    }
    crc
}

/// Table-driven CRC16-CCITT-FALSE over a batch of fixed-width keys,
/// four lanes in lockstep.
///
/// Each lane is the same table-driven recurrence as [`crc16_ccitt`] —
/// branchless per byte — but interleaving four independent shift
/// registers lets the four table loads of a byte step issue together,
/// hiding the load-to-use latency that serializes the one-key loop
/// (the classic multi-lane CRC idiom). Results are bit-exact
/// with the scalar path: the remainder (`keys.len() % 4`) falls back to
/// [`crc16_ccitt`] per key.
///
/// # Panics
/// Panics if `out.len() != keys.len()`.
pub fn crc16_ccitt_batch<const W: usize>(keys: &[[u8; W]], out: &mut [u16]) {
    assert_eq!(keys.len(), out.len(), "one output slot per key is required");
    let mut lanes = keys.chunks_exact(4).zip(out.chunks_exact_mut(4));
    for (k, o) in &mut lanes {
        let (mut a, mut b, mut c, mut d) = (0xFFFFu16, 0xFFFFu16, 0xFFFFu16, 0xFFFFu16);
        for j in 0..W {
            a = (a << 8) ^ CCITT_TABLE[(((a >> 8) ^ k[0][j] as u16) & 0xFF) as usize];
            b = (b << 8) ^ CCITT_TABLE[(((b >> 8) ^ k[1][j] as u16) & 0xFF) as usize];
            c = (c << 8) ^ CCITT_TABLE[(((c >> 8) ^ k[2][j] as u16) & 0xFF) as usize];
            d = (d << 8) ^ CCITT_TABLE[(((d >> 8) ^ k[3][j] as u16) & 0xFF) as usize];
        }
        o[0] = a;
        o[1] = b;
        o[2] = c;
        o[3] = d;
    }
    let done = keys.len() - keys.len() % 4;
    for (k, o) in keys[done..].iter().zip(out[done..].iter_mut()) {
        *o = crc16_ccitt(k);
    }
}

/// Table-driven CRC16-CCITT-FALSE as a value type.
///
/// This is the scheduler's hot path (§III-G: "the critical path is
/// dominated by hash delay"); the 256-entry table is shared and
/// `const`-built, so construction is free.
#[derive(Debug, Clone, Copy, Default)]
pub struct Crc16Ccitt;

impl Crc16Ccitt {
    /// Construct (the table is a compile-time constant; nothing to build).
    pub const fn new() -> Self {
        Crc16Ccitt
    }

    /// Hash a byte slice.
    #[inline]
    pub fn hash(&self, data: &[u8]) -> u16 {
        crc16_ccitt(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHECK: &[u8] = b"123456789";

    #[test]
    fn check_values_both_ways() {
        // Published check values, table-driven and bitwise.
        assert_eq!(crc16_ccitt(CHECK), 0x29B1);
        assert_eq!(crc16_ccitt_bitwise(CHECK), 0x29B1);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc16_ccitt(b""), 0xFFFF);
        assert_eq!(crc16_ccitt_bitwise(b""), 0xFFFF);
    }

    #[test]
    fn table_matches_bitwise_on_varied_inputs() {
        // Lengths 1..300 with pseudo-random bytes cover every table index.
        let mut data = Vec::new();
        for i in 0..300u32 {
            data.push((i.wrapping_mul(2654435761) >> 24) as u8);
            assert_eq!(
                crc16_ccitt(&data),
                crc16_ccitt_bitwise(&data),
                "ccitt len={}",
                data.len()
            );
        }
    }

    #[test]
    fn batch_matches_scalar_every_lane_and_tail() {
        // Batch sizes 0..13 cover empty input, every remainder lane
        // count, and multiple full 4-lane blocks; 13-byte keys match the
        // 5-tuple width the map tables hash.
        for n in 0..13usize {
            let keys: Vec<[u8; 13]> = (0..n)
                .map(|i| {
                    let mut k = [0u8; 13];
                    for (j, b) in k.iter_mut().enumerate() {
                        *b = ((i * 31 + j * 7) as u32).wrapping_mul(2654435761) as u8;
                    }
                    k
                })
                .collect();
            let mut out = vec![0u16; n];
            crc16_ccitt_batch(&keys, &mut out);
            for (k, &got) in keys.iter().zip(out.iter()) {
                assert_eq!(got, crc16_ccitt(k), "n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one output slot per key")]
    fn batch_rejects_mismatched_lengths() {
        let keys = [[0u8; 8]; 2];
        let mut out = [0u16; 3];
        crc16_ccitt_batch(&keys, &mut out);
    }

    #[test]
    fn crc16_value_type_matches_free_fn() {
        let t = Crc16Ccitt::new();
        assert_eq!(t.hash(CHECK), crc16_ccitt(CHECK));
        assert_eq!(t.hash(b""), 0xFFFF);
    }

    #[test]
    fn single_bit_sensitivity() {
        // Flipping any single bit of a 13-byte header changes the CRC
        // (CRC16 detects all single-bit errors).
        let base = [0u8; 13];
        let h0 = crc16_ccitt_bitwise(&base);
        for byte in 0..13 {
            for bit in 0..8 {
                let mut m = base;
                m[byte] ^= 1 << bit;
                assert_ne!(crc16_ccitt_bitwise(&m), h0);
            }
        }
    }
}
