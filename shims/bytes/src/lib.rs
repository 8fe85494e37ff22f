//! Minimal stand-in for the `bytes` crate: just enough surface for the
//! workspace wire codec (big-endian integer reads over slices and
//! writes into `Vec<u8>`, plus a frozen byte buffer). Not a
//! general-purpose replacement.

use std::ops::Deref;

/// Read side: a cursor over bytes.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Reads one byte, advancing the cursor.
    fn get_u8(&mut self) -> u8;
    /// Reads a big-endian `u16`, advancing the cursor.
    fn get_u16(&mut self) -> u16;
    /// Reads a big-endian `u32`, advancing the cursor.
    fn get_u32(&mut self) -> u32;
    /// Reads a big-endian `u64`, advancing the cursor.
    fn get_u64(&mut self) -> u64;
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn get_u8(&mut self) -> u8 {
        let v = self[0];
        *self = &self[1..];
        v
    }

    fn get_u16(&mut self) -> u16 {
        let v = u16::from_be_bytes(self[..2].try_into().unwrap());
        *self = &self[2..];
        v
    }

    fn get_u32(&mut self) -> u32 {
        let v = u32::from_be_bytes(self[..4].try_into().unwrap());
        *self = &self[4..];
        v
    }

    fn get_u64(&mut self) -> u64 {
        let v = u64::from_be_bytes(self[..8].try_into().unwrap());
        *self = &self[8..];
        v
    }
}

/// Write side: an append-only byte sink.
pub trait BufMut {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16);
    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32);
    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64);
    /// Appends a byte slice.
    fn put_slice(&mut self, src: &[u8]);
}

impl BufMut for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_be_bytes());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Immutable byte buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Bytes {
    buf: Vec<u8>,
}

impl Bytes {
    /// Empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Bytes { buf: Vec::new() }
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(buf: Vec<u8>) -> Self {
        Bytes { buf }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes { buf: s.to_vec() }
    }
}
