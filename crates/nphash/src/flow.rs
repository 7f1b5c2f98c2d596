//! Flow identifiers.
//!
//! "In this work, a flow is a set of packets which have the same source
//! IP, destination IP, source port, destination port and protocol" (§I).

use crate::crc::Crc16Ccitt;
use core::fmt;
use serde::{Deserialize, Serialize};

/// A 5-tuple flow identifier (IPv4).
///
/// Stored as raw integers in host order; [`FlowId::to_bytes`] produces the
/// canonical 13-byte big-endian encoding hashed by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowId {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// IP protocol number (6 = TCP, 17 = UDP, …).
    pub protocol: u8,
}

impl FlowId {
    /// Construct from raw fields.
    pub const fn new(src_ip: u32, dst_ip: u32, src_port: u16, dst_port: u16, protocol: u8) -> Self {
        FlowId {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            protocol,
        }
    }

    /// Construct from dotted-quad octets.
    pub const fn v4(
        src: [u8; 4],
        dst: [u8; 4],
        src_port: u16,
        dst_port: u16,
        protocol: u8,
    ) -> Self {
        FlowId {
            src_ip: u32::from_be_bytes(src),
            dst_ip: u32::from_be_bytes(dst),
            src_port,
            dst_port,
            protocol,
        }
    }

    /// Synthesize a flow ID from a dense index (used by the trace
    /// generator: flow *n* of a synthetic trace). The mapping is injective
    /// and scatters consecutive indices across the tuple space so that the
    /// CRC sees realistic-looking headers.
    pub fn from_index(index: u64) -> Self {
        // SplitMix64 finalizer: bijective on u64, well-scattered.
        let mut z = index.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        FlowId {
            src_ip: (z >> 32) as u32,
            dst_ip: z as u32,
            // Ports/protocol derived from the index itself keep the map
            // injective even across the (vanishingly unlikely) 64→64 bit
            // structure above.
            src_port: (index & 0xFFFF) as u16,
            dst_port: ((index >> 16) & 0xFFFF) as u16,
            protocol: if index & 1 == 0 { 6 } else { 17 },
        }
    }

    /// Canonical 13-byte big-endian header encoding (the hash input).
    pub fn to_bytes(self) -> [u8; 13] {
        let mut b = [0u8; 13];
        b[0..4].copy_from_slice(&self.src_ip.to_be_bytes());
        b[4..8].copy_from_slice(&self.dst_ip.to_be_bytes());
        b[8..10].copy_from_slice(&self.src_port.to_be_bytes());
        b[10..12].copy_from_slice(&self.dst_port.to_be_bytes());
        b[12] = self.protocol;
        b
    }

    /// CRC16-CCITT of the canonical encoding, using a caller-held table.
    #[inline]
    pub fn crc16(self, table: &Crc16Ccitt) -> u16 {
        table.hash(&self.to_bytes())
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.src_ip.to_be_bytes();
        let d = self.dst_ip.to_be_bytes();
        write!(
            f,
            "{}.{}.{}.{}:{} -> {}.{}.{}.{}:{} proto {}",
            s[0],
            s[1],
            s[2],
            s[3],
            self.src_port,
            d[0],
            d[1],
            d[2],
            d[3],
            self.dst_port,
            self.protocol
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn bytes_roundtrip_fields() {
        let f = FlowId::v4([192, 168, 1, 2], [10, 0, 0, 1], 443, 51000, 6);
        let b = f.to_bytes();
        assert_eq!(&b[0..4], &[192, 168, 1, 2]);
        assert_eq!(&b[4..8], &[10, 0, 0, 1]);
        assert_eq!(u16::from_be_bytes([b[8], b[9]]), 443);
        assert_eq!(u16::from_be_bytes([b[10], b[11]]), 51000);
        assert_eq!(b[12], 6);
    }

    #[test]
    fn from_index_is_injective_on_prefix() {
        let mut seen = BTreeSet::new();
        for i in 0..200_000u64 {
            assert!(seen.insert(FlowId::from_index(i)), "collision at {i}");
        }
    }

    #[test]
    fn from_index_crc_spread_is_uniformish() {
        // Hashing synthetic flows through CRC16 % 16 should hit all 16
        // buckets within a small sample — the property hash scheduling
        // relies on.
        let table = Crc16Ccitt::new();
        let mut counts = [0u32; 16];
        for i in 0..16_000u64 {
            counts[(FlowId::from_index(i).crc16(&table) % 16) as usize] += 1;
        }
        for (b, &c) in counts.iter().enumerate() {
            assert!(c > 700 && c < 1300, "bucket {b} count {c} far from uniform");
        }
    }

    #[test]
    fn display_is_human_readable() {
        let f = FlowId::v4([1, 2, 3, 4], [5, 6, 7, 8], 10, 20, 6);
        assert_eq!(format!("{f}"), "1.2.3.4:10 -> 5.6.7.8:20 proto 6");
    }
}
