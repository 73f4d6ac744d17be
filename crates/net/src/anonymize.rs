//! Destination-address anonymization.
//!
//! "For privacy reasons, Abilene anonymizes the last 11 bits of the
//! destination IP address. This is not a significant concern for egress PoP
//! resolution because there are few prefixes less than 11 bits in the
//! Abilene routing tables." (§2.1 — the paper means prefixes *longer* than
//! 32-11 = 21 bits, i.e. finer than /21, are rare.)
//!
//! [`anonymize_dst`] reproduces the masking; the measurement pipeline
//! applies it to every exported flow record before egress resolution, so the
//! reproduction inherits the same constraint the paper worked under.

use crate::prefix::IpAddr;

/// Number of low destination-address bits Abilene zeroed.
pub const ANON_BITS: u32 = 11;

/// Mask that clears the anonymized bits.
pub const ANON_MASK: u32 = !((1u32 << ANON_BITS) - 1);

/// Zeroes the last [`ANON_BITS`] bits of a destination address.
///
/// # Examples
///
/// ```
/// use odflow_net::{anonymize_dst, IpAddr};
///
/// let dst = IpAddr::from_octets(10, 1, 7, 213);
/// let anon = anonymize_dst(dst);
/// // 11 bits span the low octet and 3 bits of the third octet:
/// assert_eq!(anon.octets(), [10, 1, 0, 0]);
/// ```
pub fn anonymize_dst(dst: IpAddr) -> IpAddr {
    IpAddr(dst.0 & ANON_MASK)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_low_11_bits() {
        let ip = IpAddr(0xFFFF_FFFF);
        assert_eq!(anonymize_dst(ip).0, 0xFFFF_F800);
        let zero = IpAddr(0);
        assert_eq!(anonymize_dst(zero).0, 0);
    }

    #[test]
    fn idempotent() {
        let ip = IpAddr::from_octets(192, 168, 123, 45);
        let once = anonymize_dst(ip);
        assert_eq!(anonymize_dst(once), once);
    }

    #[test]
    fn preserves_prefix_bits() {
        // A /21 (or coarser) prefix is untouched by 11-bit anonymization.
        let ip = IpAddr::from_octets(10, 33, 0b1111_1000, 0xFF);
        let anon = anonymize_dst(ip);
        assert_eq!(anon.octets()[0], 10);
        assert_eq!(anon.octets()[1], 33);
        assert_eq!(anon.octets()[2] & 0b1111_1000, 0b1111_1000);
        assert_eq!(anon.octets()[3], 0);
    }

    #[test]
    fn block_equivalence() {
        let a = IpAddr::from_octets(10, 0, 0, 1);
        let b = IpAddr::from_octets(10, 0, 7, 255); // same /21 block
        let c = IpAddr::from_octets(10, 0, 8, 0); // next block
        assert_eq!(anonymize_dst(a), anonymize_dst(b));
        assert_ne!(anonymize_dst(a), anonymize_dst(c));
    }

    #[test]
    fn egress_resolution_survives_anonymization() {
        // A /16 route table resolves anonymized addresses identically.
        use crate::prefix::RouteTable;
        let t = RouteTable::from_routes(&[("10.5.0.0/16".parse().unwrap(), 3)]);
        let dst = IpAddr::from_octets(10, 5, 200, 77);
        assert_eq!(t.egress(dst), t.egress(anonymize_dst(dst)));
        assert_eq!(t.egress(anonymize_dst(dst)), Some(3));
    }
}
