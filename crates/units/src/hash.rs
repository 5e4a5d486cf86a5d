//! The workspace's one hasher for maps keyed by simulator state.
//!
//! Page tables, replacement policies, the GMS directory and the
//! recorders all key hash maps by page numbers, `(node, page)` pairs or
//! region numbers, and probe them on nearly every simulated fault. The
//! standard library's SipHash resists hash flooding, which these maps
//! do not need: their keys come from the simulated trace, so a crafted
//! trace can only slow its own run. [`FastHasher`] is a rotate-xor-multiply
//! per word instead, with no seed, so a map's layout — and with it its
//! iteration order — is a pure function of its insertion history.
//!
//! # Examples
//!
//! ```
//! use gms_units::FastMap;
//!
//! let mut resident: FastMap<u64, bool> = FastMap::default();
//! resident.insert(0x9_0000, true);
//! assert_eq!(resident.get(&0x9_0000), Some(&true));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier of the mix (wyhash's first secret). Together with
/// [`FOLD`] it spreads the ids of 64 nodes × 1024 pages over more than
/// 90% of the 16-bit bucket values (see the tests).
const MULTIPLIER: u64 = 0xa076_1d64_78bd_642f;

/// Rotation folding the high product bits, which every key bit
/// reaches, down into the low bits the table indexes by. Without it
/// the bucket of a key depends only on the key's low bits, so global
/// page ids that differ only in the node bits above bit 40 would all
/// share one bucket.
const FOLD: u32 = 30;

/// Multiply-rotate hasher for trusted simulator keys (page numbers,
/// `(node, page)` pairs, region numbers). Not flooding-resistant; see
/// the module docs for why that is acceptable here.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(MULTIPLIER);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(FOLD)
    }
}

/// A `HashMap` keyed through [`FastHasher`]. Build with
/// `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` keyed through [`FastHasher`]. Build with
/// `FastSet::default()`.
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    type Build = BuildHasherDefault<FastHasher>;

    fn hash<T: Hash>(key: &T) -> u64 {
        Build::default().hash_one(key)
    }

    #[test]
    fn separately_built_hashers_agree() {
        // Iteration order is reproducible only because every hasher
        // starts from the same state.
        let (a, b) = (Build::default(), Build::default());
        for key in [0u64, 1, 0x9_0000, (7 << 40) | 12, u64::MAX] {
            assert_eq!(a.hash_one(key), b.hash_one(key), "key {key:#x}");
        }
        let pair = (3u32, 0x9_0000u64);
        assert_eq!(a.hash_one(pair), b.hash_one(pair));
    }

    #[test]
    fn node_namespace_bits_reach_the_bucket_bits() {
        // Global page ids are `(node << 40) | page`. A bare multiply
        // leaves the low 16 bits a function of the page alone (1024
        // distinct values here); the finishing fold must spread the
        // node bits down so nearly every id lands apart.
        let mut seen = FastSet::default();
        for node in 0..64u64 {
            for page in 0..1024u64 {
                seen.insert(hash(&((node << 40) | page)) & 0xffff);
            }
        }
        let keys = 64 * 1024;
        assert!(
            seen.len() * 10 >= keys * 9,
            "only {} of {keys} low-16-bit values distinct",
            seen.len()
        );
    }

    #[test]
    fn node_page_pairs_depend_on_both_halves() {
        for node in 0..16u32 {
            for page in [0u64, 1, 63, 64, 0x9_0000, 1 << 39] {
                let key = hash(&(node, page));
                assert_ne!(key, hash(&(node + 1, page)), "node {node}, page {page:#x}");
                assert_ne!(key, hash(&(node, page + 1)), "node {node}, page {page:#x}");
            }
        }
        // And the pair is not just the two halves hashed apart.
        assert_ne!(hash(&(1u32, 2u64)), hash(&(2u32, 1u64)));
    }

    #[test]
    fn byte_keys_hash_every_byte() {
        let a = hash(&"sp_1024");
        assert_ne!(a, hash(&"sp_1025"));
        assert_ne!(a, hash(&"sp_10244"));
        assert_eq!(a, hash(&String::from("sp_1024")));
    }
}
