//! The authorized hash table the paper stores in secure memory (§VI-A2).
//!
//! "During the booting time, SATIN hashes these 19 areas and then saves these
//! hash values into an authorized hash table stored in the secure world."

use crate::HashAlgorithm;
use std::collections::BTreeMap;

/// Result of verifying an area's digest against its authorized value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// Digest matched the authorized value.
    Clean,
    /// Digest did not match: the area has been modified.
    Tampered {
        /// The authorized digest recorded at boot.
        expected: u64,
        /// The digest computed from current memory.
        observed: u64,
    },
    /// The area id was never enrolled, which is a configuration error.
    Unknown,
}

impl VerifyOutcome {
    /// `true` for [`VerifyOutcome::Tampered`].
    pub fn is_tampered(self) -> bool {
        matches!(self, VerifyOutcome::Tampered { .. })
    }
}

/// Boot-time table of authorized digests, keyed by area id.
///
/// # Example
///
/// ```
/// use satin_hash::{AuthorizedHashTable, HashAlgorithm, VerifyOutcome, hash_bytes};
/// let mut table = AuthorizedHashTable::new(HashAlgorithm::Djb2);
/// table.enroll(14, hash_bytes(HashAlgorithm::Djb2, b"syscall table"));
/// assert_eq!(
///     table.verify(14, hash_bytes(HashAlgorithm::Djb2, b"syscall table")),
///     VerifyOutcome::Clean
/// );
/// assert!(table.verify(14, 0xdead).is_tampered());
/// assert_eq!(table.verify(99, 0), VerifyOutcome::Unknown);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthorizedHashTable {
    algorithm: HashAlgorithm,
    digests: BTreeMap<usize, u64>,
}

impl AuthorizedHashTable {
    /// Creates an empty table for `algorithm`.
    pub fn new(algorithm: HashAlgorithm) -> Self {
        AuthorizedHashTable {
            algorithm,
            digests: BTreeMap::new(),
        }
    }

    /// The algorithm all digests were computed with.
    pub fn algorithm(&self) -> HashAlgorithm {
        self.algorithm
    }

    /// Records (or overwrites) the authorized digest for `area`.
    /// Returns the previously enrolled digest, if any.
    pub fn enroll(&mut self, area: usize, digest: u64) -> Option<u64> {
        self.digests.insert(area, digest)
    }

    /// Number of enrolled areas.
    pub fn len(&self) -> usize {
        self.digests.len()
    }

    /// `true` if no areas are enrolled.
    pub fn is_empty(&self) -> bool {
        self.digests.is_empty()
    }

    /// Verifies an observed digest against the authorized value.
    pub fn verify(&self, area: usize, observed: u64) -> VerifyOutcome {
        match self.digests.get(&area) {
            None => VerifyOutcome::Unknown,
            Some(&expected) if expected == observed => VerifyOutcome::Clean,
            Some(&expected) => VerifyOutcome::Tampered { expected, observed },
        }
    }

    /// Iterates enrolled `(area, digest)` pairs in area order.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.digests.iter().map(|(a, d)| (*a, *d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_bytes;

    #[test]
    fn enroll_verify_cycle() {
        let mut t = AuthorizedHashTable::new(HashAlgorithm::Djb2);
        assert!(t.is_empty());
        let d = hash_bytes(HashAlgorithm::Djb2, b"area zero");
        assert_eq!(t.enroll(0, d), None);
        assert_eq!(t.len(), 1);
        assert_eq!(t.digests.get(&0).copied(), Some(d));
        assert_eq!(t.verify(0, d), VerifyOutcome::Clean);
    }

    #[test]
    fn tampered_reports_both_digests() {
        let mut t = AuthorizedHashTable::new(HashAlgorithm::Djb2);
        t.enroll(3, 111);
        match t.verify(3, 222) {
            VerifyOutcome::Tampered { expected, observed } => {
                assert_eq!(expected, 111);
                assert_eq!(observed, 222);
            }
            other => panic!("expected tampered, got {other:?}"),
        }
    }

    #[test]
    fn unknown_area() {
        let t = AuthorizedHashTable::new(HashAlgorithm::Fnv1a);
        assert_eq!(t.verify(7, 0), VerifyOutcome::Unknown);
        assert!(!t.verify(7, 0).is_tampered());
    }

    #[test]
    fn re_enroll_returns_previous() {
        let mut t = AuthorizedHashTable::new(HashAlgorithm::Sdbm);
        t.enroll(1, 10);
        assert_eq!(t.enroll(1, 20), Some(10));
        assert_eq!(t.digests.get(&1).copied(), Some(20));
    }

    #[test]
    fn iter_in_area_order() {
        let mut t = AuthorizedHashTable::new(HashAlgorithm::Djb2);
        t.enroll(5, 50);
        t.enroll(1, 10);
        t.enroll(3, 30);
        let pairs: Vec<_> = t.iter().collect();
        assert_eq!(pairs, vec![(1, 10), (3, 30), (5, 50)]);
    }
}
