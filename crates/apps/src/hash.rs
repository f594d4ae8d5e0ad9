//! 128-bit object-key hashing.
//!
//! Squirrel hashes object URLs with SHA-1 to obtain keys. A cryptographic
//! hash is overkill for the simulation (we only need uniform dispersion into
//! the identifier space), so we use two rounds of the SplitMix64 finaliser —
//! a well-known statistically strong mixer — over the object identifier.
//! DESIGN.md records this substitution.

use mspastry::{Id, Key};

/// SplitMix64 finaliser.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hashes an object identifier to a 128-bit overlay key.
pub fn object_key(object_id: u64) -> Key {
    let hi = mix64(object_id);
    let lo = mix64(object_id ^ 0xdead_beef_cafe_f00d);
    Id(((hi as u128) << 64) | lo as u128)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_deterministic_and_distinct() {
        assert_eq!(object_key(1), object_key(1));
        assert_ne!(object_key(1), object_key(2));
    }

    #[test]
    fn keys_disperse_across_the_ring() {
        // Bucket the top 4 bits of 4096 consecutive object ids; every bucket
        // should be populated roughly evenly.
        let mut buckets = [0u32; 16];
        for i in 0..4096u64 {
            let k = object_key(i);
            buckets[(k.0 >> 124) as usize] += 1;
        }
        for (i, &c) in buckets.iter().enumerate() {
            assert!((150..=370).contains(&c), "bucket {i} has {c}");
        }
    }
}
