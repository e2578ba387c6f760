//! KV front-end: memcached-style string keys mapped onto cache lines.
//!
//! ROADMAP item 2 (and the Multi-step LRU framing) treats an LLC policy as
//! a stand-in for a key-value cache's eviction policy. A KV-mode session
//! streams `(get|put, key)` pairs instead of pre-converted line addresses;
//! the server hashes each key with FNV-1a 64 and aligns the hash down to a
//! line boundary, so one key maps to one line and the whole roster sees
//! the identical address stream. Each operation counts as one
//! "instruction", making reported MPKI read as *misses per thousand
//! operations*.
//!
//! The hash is a fixed, documented function — not `DefaultHasher`, whose
//! output may change across Rust releases — because snapshots replay the
//! original key bytes through it and the resume bit-identity guarantee
//! must hold across daemon builds.

use crate::protocol::KvOp;
use sim_core::Access;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over the key bytes.
pub fn hash_key(key: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Maps a key to its line-aligned address for a cache with `line_bytes`
/// lines (a power of two, as `CacheGeometry` requires).
pub fn key_to_addr(key: &[u8], line_bytes: u64) -> u64 {
    hash_key(key) & !(line_bytes - 1)
}

/// Lowers one KV operation, given as its put flag and key bytes, to the
/// access every policy replays: a read for a get, a write for a put, one
/// instruction per operation.
pub fn lower(write: bool, key: &[u8], line_bytes: u64) -> Access {
    let addr = key_to_addr(key, line_bytes);
    let a = if write {
        Access::write(addr, 0)
    } else {
        Access::read(addr, 0)
    };
    a.with_icount_delta(1)
}

/// [`lower`] for a decoded [`KvOp`].
pub fn op_to_access(op: &KvOp, line_bytes: u64) -> Access {
    lower(op.write, op.key.as_bytes(), line_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::AccessKind;

    #[test]
    fn hash_is_the_documented_fnv1a() {
        // Published FNV-1a 64 vectors; the constants above are wrong if
        // any of these drift.
        assert_eq!(hash_key(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash_key(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash_key(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn addresses_are_line_aligned_and_stable() {
        for key in ["user:1", "user:2", "session:abc", ""] {
            let addr = key_to_addr(key.as_bytes(), 64);
            assert_eq!(addr % 64, 0, "{key}");
            assert_eq!(addr, key_to_addr(key.as_bytes(), 64), "hash must be pure");
        }
        assert_ne!(key_to_addr(b"user:1", 64), key_to_addr(b"user:2", 64));
    }

    #[test]
    fn ops_lower_to_reads_and_writes() {
        let get = op_to_access(
            &KvOp {
                write: false,
                key: "k".into(),
            },
            64,
        );
        assert_eq!(get.kind, AccessKind::Read);
        assert_eq!(get.icount_delta, 1);
        let put = op_to_access(
            &KvOp {
                write: true,
                key: "k".into(),
            },
            64,
        );
        assert_eq!(put.kind, AccessKind::Write);
        assert_eq!(put.addr, get.addr, "same key, same line");
    }
}
