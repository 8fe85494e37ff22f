use std::ops::{Deref, DerefMut};

/// A value that counts its mutable borrows.
///
/// Reading through [`Deref`] is free; every [`DerefMut`] bumps a private
/// counter that is never reset, so two equal [`version`](Versioned::version)s
/// mean nobody could have written the value in between. Protocols wrap
/// the state their conformance views read in it, and the oracle skips
/// rebuilding a view whose version did not move.
///
/// ```
/// use proto_io::Versioned;
///
/// let mut v = Versioned::<Vec<u32>>::default();
/// v.push(1);
/// assert_eq!((v.len(), v.version()), (1, 1));
/// ```
#[derive(Debug, Default)]
pub struct Versioned<T> {
    value: T,
    version: u64,
}

impl<T> Versioned<T> {
    /// How many times the value was mutably borrowed.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }
}

impl<T> Deref for Versioned<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for Versioned<T> {
    fn deref_mut(&mut self) -> &mut T {
        self.version += 1;
        &mut self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_keep_the_version_and_every_mutable_borrow_moves_it() {
        let mut v = Versioned::<crate::IdMap<u8, char>>::default();
        v.insert(1, 'a');
        let _ = (v.get(&1), v.len(), v.iter().count());
        assert_eq!(v.version(), 1);
        // A mutable borrow that writes nothing still counts.
        let _ = v.get_mut(&9);
        assert_eq!(v.version(), 2);
    }
}
