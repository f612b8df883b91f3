//! Secure memory cells: data the normal world structurally cannot reach.
//!
//! SATIN's security argument leans on two pieces of state living in secure
//! memory: the authorized hash table (§VI-A2) and the wake-up time queue
//! (§V-D — "SATIN stores the wake-up time of each core in the wake-up time
//! queue", protected so the normal world cannot learn the wake-up pattern).
//! [`SecureStorage`] enforces that with the type system: every access takes a
//! [`World`] witness, and normal-world accesses get an error, never data.

use satin_hw::{HwError, World};

/// A privilege-checked container for secure-world data.
///
/// # Example
///
/// ```
/// use satin_secure::SecureStorage;
/// use satin_hw::World;
///
/// let mut cell = SecureStorage::new("wake-up queue", vec![1u64, 2, 3]);
/// assert!(cell.read(World::Normal).is_err());     // attacker sees nothing
/// assert_eq!(cell.read(World::Secure).unwrap()[0], 1);
/// cell.write(World::Secure).unwrap().push(4);
/// assert_eq!(cell.read(World::Secure).unwrap().len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct SecureStorage<T> {
    /// Human-readable resource name used in access-denied errors.
    resource: &'static str,
    value: T,
}

impl<T> SecureStorage<T> {
    /// Wraps `value` in secure storage labelled `resource`.
    pub fn new(resource: &'static str, value: T) -> Self {
        SecureStorage { resource, value }
    }

    /// Reads the value.
    ///
    /// # Errors
    ///
    /// [`HwError::SecureAccessDenied`] if `from` is the normal world.
    pub fn read(&self, from: World) -> Result<&T, HwError> {
        if from.is_secure() {
            Ok(&self.value)
        } else {
            Err(HwError::SecureAccessDenied {
                from,
                resource: self.resource,
            })
        }
    }

    /// Mutable access to the value.
    ///
    /// # Errors
    ///
    /// [`HwError::SecureAccessDenied`] if `from` is the normal world.
    pub fn write(&mut self, from: World) -> Result<&mut T, HwError> {
        if from.is_secure() {
            Ok(&mut self.value)
        } else {
            Err(HwError::SecureAccessDenied {
                from,
                resource: self.resource,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_world_denied() {
        let mut cell = SecureStorage::new("hash table", 42u64);
        assert!(cell.read(World::Normal).is_err());
        assert!(cell.write(World::Normal).is_err());
    }

    #[test]
    fn secure_world_full_access() {
        let mut cell = SecureStorage::new("queue", vec![0u8]);
        cell.write(World::Secure).unwrap().push(1);
        assert_eq!(cell.read(World::Secure).unwrap(), &vec![0, 1]);
    }

    #[test]
    fn error_names_resource() {
        let cell = SecureStorage::new("wake-up queue", ());
        let err = cell.read(World::Normal).unwrap_err();
        assert!(err.to_string().contains("wake-up queue"));
    }
}
