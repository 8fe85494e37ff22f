//! FNV-1a 64-bit: the workspace's one fingerprint hash (stable,
//! dependency-free), behind every transcript, trace and artifact pin.

/// The FNV-1a offset basis: the state before any byte is hashed.
pub const FNV1A_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Hashes `bytes` into a running FNV-1a `state`, so a caller can
/// fingerprint a stream piece by piece without joining it first.
#[must_use]
pub fn fnv1a_extend(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a of `bytes` from the offset basis.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_INIT, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_vectors_and_streams() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }
}
