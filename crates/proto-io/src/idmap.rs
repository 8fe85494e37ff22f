//! The fixed-hash map for keys the simulator makes itself.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// An FxHash-style word hasher: each word is folded in with a rotate, an
/// xor and a multiply, and [`finish`](Hasher::finish) rotates the product
/// so its well-mixed high bits land in the low bits a table indexes by.
///
/// A release build has no seed, so equal keys hash equally in every
/// process, and it costs a few cycles where std's SipHash costs tens. The
/// price is that a peer who picks keys can pick colliding ones: use it
/// only for keys the program makes itself (see [`IdMap`]).
///
/// A debug build starts every hash from one random state drawn per
/// process, much as std's maps do. Equal keys still hash equally
/// within a process, but iteration order differs between two runs, so a
/// decision that wrongly depends on it makes debug tests flicker and two
/// debug runs of the same command differ.
///
/// ```
/// use proto_io::{IdMap, NodeId};
///
/// let mut roles: IdMap<NodeId, &str> = IdMap::default();
/// roles.insert(NodeId::new(7), "head");
/// assert_eq!(roles.get(&NodeId::new(7)), Some(&"head"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct IdHasher {
    hash: u64,
}

impl Default for IdHasher {
    fn default() -> Self {
        IdHasher {
            hash: Self::start(),
        }
    }
}

impl IdHasher {
    /// An odd constant with well-spread bits (FxHash's).
    const K: u64 = 0x517c_c1b7_2722_0a95;

    #[cfg(not(debug_assertions))]
    fn start() -> u64 {
        0
    }

    #[cfg(debug_assertions)]
    fn start() -> u64 {
        use std::hash::BuildHasher;
        static START: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
        *START.get_or_init(|| std::collections::hash_map::RandomState::new().hash_one(0u8))
    }

    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// std's `HashMap` under [`IdHasher`]: the map for every key the
/// simulator, the protocols, the oracle and the harness make themselves
/// (node ids, addresses, timer ids, vote ids and tuples of them).
///
/// The mesh transport's socket map is one too: it is keyed by the node
/// ids on the simulator's delivery paths, and a datagram's source address
/// is only compared, never hashed. A map fed keys from outside the
/// program would need std's keyed hasher instead.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// std's `HashSet` under [`IdHasher`]; see [`IdMap`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    /// The most keys any one of 4096 buckets gets when each key goes to
    /// the bucket its hash's low 12 bits name.
    fn max_load(hashes: impl Iterator<Item = u64>) -> usize {
        let mut load = vec![0; 4096];
        for h in hashes {
            load[(h & 4095) as usize] += 1;
        }
        load.into_iter().max().expect("4096 buckets")
    }

    /// Holds in debug too: the random start is drawn once per process.
    #[test]
    fn equal_keys_hash_equally_from_fresh_builders() {
        let (a, b) = (
            BuildHasherDefault::<IdHasher>::default(),
            BuildHasherDefault::<IdHasher>::default(),
        );
        for key in [NodeId::new(0), NodeId::new(1), NodeId::new(u64::MAX)] {
            assert_eq!(a.hash_one(key), b.hash_one(key));
        }
        assert_eq!(
            hash_of((NodeId::new(3), 9u32)),
            hash_of((NodeId::new(3), 9u32))
        );
        assert_ne!(hash_of(NodeId::new(1)), hash_of(NodeId::new(2)));
    }

    #[test]
    fn low_bits_spread_sequential_paired_and_block_aligned_keys() {
        let ids = max_load((0..4096).map(|k| hash_of(NodeId::new(k))));
        let pairs =
            max_load((0..4096).map(|k| hash_of((NodeId::new(k / 64), NodeId::new(k % 64)))));
        let blocks = max_load((0..4096u32).map(|k| hash_of(0x0A00_0000u32 + (k << 8))));
        // Uniform hashing puts at most about 7 keys in the fullest bucket
        // here; without the final rotate the block-aligned addresses
        // (low 8 bits zero) would share 16 buckets, 256 keys each.
        for (what, load) in [("ids", ids), ("pairs", pairs), ("blocks", blocks)] {
            assert!(load <= 8, "{what}: {load} keys in one bucket");
        }
    }
}
