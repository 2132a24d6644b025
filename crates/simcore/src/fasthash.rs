//! A fast, deterministic hasher for the controller's hot maps.
//!
//! Every per-period map in the control loop is keyed by small integer
//! ids ([`VcpuAddr`](crate::VcpuAddr), [`VmId`](crate::VmId)): two or
//! three 32-bit writes per key. `std`'s default SipHash spends more
//! time keying and finalizing than the lookup itself at that size, and
//! its per-instance random seed buys DoS resistance these maps do not
//! need — their keys come from the hypervisor inventory, not from
//! tenants. `FastHash` replaces it with a seedless multiply-xor mix
//! (SplitMix64-style finalizer), which also makes map *iteration* order
//! a pure function of the inserted keys — one less source of run-to-run
//! variation in tests.
//!
//! # When to use which
//!
//! * **`FastMap`/`FastSet`** — hot-path maps whose keys are
//!   allocator-assigned inventory ids and whose lookups happen every
//!   control period. The win is real: before the switch, SipHash
//!   keying + finalization dominated both the monitor and estimate
//!   stages at 160 vCPUs (DESIGN.md §12 records the before/after).
//! * **`std::collections::HashMap`** — anything keyed by data a tenant
//!   can influence (cgroup scope names, API payloads) or anything off
//!   the hot path. The default SipHash seed is the DoS defence; keep
//!   it there.
//!
//! # Determinism contract
//!
//! `FastHash` carries no per-instance seed, so a given key hashes to
//! the same `u64` in every process and every run. Two consequences the
//! rest of the tree relies on:
//!
//! * map iteration order is a pure function of the *set of inserted
//!   keys* (plus capacity history) — tests can iterate id-keyed maps
//!   without introducing run-to-run variation, though ordered output
//!   paths still sort explicitly rather than trusting bucket order
//!   across `std` versions;
//! * equal inventories hash identically on both sides of a comparison
//!   between two loops, so the equivalence proptests
//!   (`crates/controller/tests/hotpath.rs`) never chase hash-order
//!   ghosts.
//!
//! # Security caveat
//!
//! Not for attacker-controlled keys: without a random seed, a tenant
//! who could choose keys could precompute collisions and degrade a map
//! to a linked list. Inventory ids are allocator-assigned small
//! integers, so the controller is not exposed — re-evaluate before
//! keying any `FastMap` by externally supplied data.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// `BuildHasher` for [`FastHasher`]; the default hasher state is a
/// fixed odd constant, so hashes are stable across processes and runs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FastHash;

/// A `HashMap` keyed through [`FastHash`] — drop-in for the control
/// loop's id-keyed maps (construct with `FastMap::default()`).
pub type FastMap<K, V> = HashMap<K, V, FastHash>;

/// A `HashSet` keyed through [`FastHash`].
pub type FastSet<K> = HashSet<K, FastHash>;

impl BuildHasher for FastHash {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher(0x9E37_79B9_7F4A_7C15)
    }
}

/// Multiply-xor hasher: each write folds into a single `u64` word, and
/// `finish` runs a SplitMix64 finalizer so low bits avalanche (the map
/// indexes by the low bits of the hash).
#[derive(Debug, Clone)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 31)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (string keys, derived composites): FNV-1a
        // style byte fold into the same word.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{VcpuAddr, VcpuId, VmId};
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FastHash.hash_one(v)
    }

    #[test]
    fn deterministic_across_instances() {
        let a = VcpuAddr::new(VmId::new(3), VcpuId::new(1));
        assert_eq!(hash_of(&a), hash_of(&a));
    }

    #[test]
    fn order_sensitive() {
        // (vm 1, vcpu 2) must not collide with (vm 2, vcpu 1).
        let a = VcpuAddr::new(VmId::new(1), VcpuId::new(2));
        let b = VcpuAddr::new(VmId::new(2), VcpuId::new(1));
        assert_ne!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn sequential_ids_spread() {
        // Inventory ids are sequential; the finalizer must spread them
        // across the low bits the map actually indexes with.
        let mut low: FastSet<u64> = FastSet::default();
        for vm in 0..64u32 {
            for j in 0..4u32 {
                let h = hash_of(&VcpuAddr::new(VmId::new(vm), VcpuId::new(j)));
                low.insert(h & 0xFF);
            }
        }
        // 256 keys into 256 low-bit buckets: demand a healthy fill.
        assert!(low.len() > 140, "low-bit spread too poor: {}", low.len());
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FastMap<VcpuAddr, u64> = FastMap::default();
        for vm in 0..10u32 {
            for j in 0..8u32 {
                m.insert(
                    VcpuAddr::new(VmId::new(vm), VcpuId::new(j)),
                    u64::from(vm * 8 + j),
                );
            }
        }
        assert_eq!(m.len(), 80);
        for vm in 0..10u32 {
            for j in 0..8u32 {
                let k = VcpuAddr::new(VmId::new(vm), VcpuId::new(j));
                assert_eq!(m[&k], u64::from(vm * 8 + j));
            }
        }
    }
}
