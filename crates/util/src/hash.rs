//! Small, deterministic, dependency-free hashing (FNV-1a).
//!
//! Used by the monitoring stack to shard streams across runners: the
//! hash must be stable across runs, platforms, and processes (so a
//! stream lands on the same shard after a restart), which rules out
//! `std::collections::hash_map::RandomState`. FNV-1a on the 64-bit
//! offset-basis/prime pair is tiny, fast on short keys, and has
//! well-understood distribution for the handful of bytes a `u32`
//! stream id occupies.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes a byte slice with 64-bit FNV-1a.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_continue(FNV_OFFSET, bytes)
}

/// Continues a 64-bit FNV-1a hash `h` over `bytes`:
/// `fnv1a_continue(fnv1a(a), b) == fnv1a(a ++ b)`, so a key made of
/// several pieces hashes without first being copied into one buffer.
#[must_use]
pub fn fnv1a_continue(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hashes a `u64` (little-endian bytes) with 64-bit FNV-1a.
///
/// The go-to for sharding integer ids: `fnv1a_u64(id) % shards` is
/// stable across processes and spreads consecutive ids well (plain
/// `id % shards` would stripe them, which is fine until shard counts
/// correlate with id assignment patterns).
#[must_use]
pub fn fnv1a_u64(x: u64) -> u64 {
    fnv1a(&x.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_fnv1a_vectors() {
        // Reference vectors from the FNV specification.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        assert_eq!(fnv1a_continue(fnv1a(b"foo"), b"bar"), 0x85944171f73967e8);
    }

    #[test]
    fn u64_form_is_the_byte_form_on_le_bytes() {
        for x in [0u64, 1, 7, 0xDEAD_BEEF, u64::MAX] {
            assert_eq!(fnv1a_u64(x), fnv1a(&x.to_le_bytes()));
        }
    }

    #[test]
    fn consecutive_ids_spread_over_small_moduli() {
        // Sharding sanity: 256 consecutive ids over 4 shards should not
        // collapse onto one shard.
        for shards in [2u64, 3, 4, 8] {
            let mut counts = vec![0u32; shards as usize];
            for id in 0..256u64 {
                counts[(fnv1a_u64(id) % shards) as usize] += 1;
            }
            for (s, &c) in counts.iter().enumerate() {
                assert!(c > 0, "shard {s} of {shards} got no ids: {counts:?}");
            }
        }
    }
}
