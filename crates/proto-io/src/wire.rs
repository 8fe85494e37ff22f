//! The one message trait and the one codec declaration.
//!
//! Every protocol message has a binary wire form, [`WireMsg`]: the
//! transcript records it, and the UDP mesh carries it. No message type
//! writes its codec by hand. [`wire_codec!`](crate::wire_codec)
//! generates the encoder and the decoder from one declaration of the
//! layout, so the two halves cannot drift apart.

use std::error::Error;
use std::fmt::{self, Debug};

/// A protocol message with a binary wire form.
///
/// # Contract
///
/// * `wire_decode(wire_encode(m)) == m` for every message `m`.
/// * Decoding is canonical: bytes that decode re-encode to themselves.
/// * Bytes from outside (a socket, a fuzzer) end in `Err`, never in a
///   panic.
///
/// The transcript records a message as its encoding, so the mesh (which
/// records what it decoded off the socket) and the simulator (which
/// records what it encoded) agree only if the codec round-trips.
pub trait WireMsg: Clone + Debug + Sized {
    /// Appends the encoded message to `out`.
    fn wire_encode(&self, out: &mut Vec<u8>);

    /// Decodes one message off the front of `cur` and advances `cur`
    /// past it.
    ///
    /// # Errors
    ///
    /// [`WireError`] when `cur` does not start with a valid encoding.
    fn wire_take(cur: &mut &[u8]) -> Result<Self, WireError>;

    /// Decodes the one message `bytes` holds.
    ///
    /// # Errors
    ///
    /// [`WireError`] on an invalid encoding, and
    /// [`WireError::Trailing`] when bytes are left over: a datagram is
    /// exactly one encoding, so padding is an injection surface, not
    /// slack.
    fn wire_decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut cur = bytes;
        let msg = Self::wire_take(&mut cur)?;
        match cur.len() {
            0 => Ok(msg),
            n => Err(WireError::Trailing(n)),
        }
    }
}

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The buffer ended before the message did.
    Truncated,
    /// Unknown message or status tag.
    BadTag(u8),
    /// A flag byte (a `bool`, an `Option`'s presence) other than 0 or 1.
    BadFlag(u8),
    /// A decoded block was structurally invalid.
    BadBlock,
    /// A table's addresses do not strictly increase.
    Unsorted,
    /// A whole message decoded and this many bytes were left over.
    Trailing(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadTag(t) => write!(f, "unknown tag {t:#04x}"),
            WireError::BadFlag(b) => write!(f, "flag byte {b:#04x} is neither 0 nor 1"),
            WireError::BadBlock => write!(f, "invalid address block"),
            WireError::Unsorted => write!(f, "table addresses do not strictly increase"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after the message"),
        }
    }
}

impl Error for WireError {}

/// Takes the next `N` bytes off the front of `cur`.
///
/// # Errors
///
/// [`WireError::Truncated`] when fewer than `N` are left.
#[inline]
pub fn take<const N: usize>(cur: &mut &[u8]) -> Result<[u8; N], WireError> {
    let bytes: &[u8] = cur;
    let (head, rest) = bytes.split_first_chunk().ok_or(WireError::Truncated)?;
    *cur = rest;
    Ok(*head)
}

/// Takes a flag byte. Only 0 and 1 decode, so no message has two
/// encodings.
///
/// # Errors
///
/// [`WireError::Truncated`] at the end of `cur`, [`WireError::BadFlag`]
/// on any other byte.
#[inline]
pub fn take_flag(cur: &mut &[u8]) -> Result<bool, WireError> {
    match take(cur)? {
        [0] => Ok(false),
        [1] => Ok(true),
        [b] => Err(WireError::BadFlag(b)),
    }
}

impl WireMsg for () {
    fn wire_encode(&self, _out: &mut Vec<u8>) {}

    fn wire_take(_cur: &mut &[u8]) -> Result<Self, WireError> {
        Ok(())
    }
}

impl WireMsg for u8 {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn wire_take(cur: &mut &[u8]) -> Result<Self, WireError> {
        Ok(u8::from_be_bytes(take(cur)?))
    }
}

impl WireMsg for u64 {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }

    fn wire_take(cur: &mut &[u8]) -> Result<Self, WireError> {
        Ok(u64::from_be_bytes(take(cur)?))
    }
}

/// Declares the wire layout of one or more message enums and implements
/// [`WireMsg`] for each from that one declaration.
///
/// Each variant is `Variant = tag` or `Variant = tag { field: kind, … }`:
/// one tag byte, then the fields in declared order, integers big-endian.
/// The encoder destructures every variant whole (no `..`), so a variant
/// or a field left out of the declaration does not compile. The decoder
/// is canonical: flags other than 0/1 and tables whose addresses do not
/// strictly increase are errors, so bytes that decode re-encode to
/// themselves.
///
/// | kind | type | layout |
/// |---|---|---|
/// | `u8` `u16` `u32` `u64` | the integer | big-endian |
/// | `bool` | `bool` | one flag byte |
/// | `node` | [`NodeId`](crate::NodeId) | `u64` |
/// | `addr` | `addrspace::Addr` | `u32` |
/// | `opt_addr` | `Option<Addr>` | flag, then the address if set |
/// | `block` | `addrspace::AddrBlock` | base `addr`, length `u32` |
/// | `stamp` | `quorum::VersionStamp` | `u64` |
/// | `record` | `addrspace::AddrRecord` | status 0 free, 1 allocated + owner `u64`, 2 vacant; `stamp` |
/// | `table` | `addrspace::AllocationTable` | `u32` count, then ascending `addr`, `record` entries |
/// | `[n; k]` | `Vec<K>` | count as integer kind `n`, then each item |
/// | `[n; k1, k2]` | `Vec<(K1, K2)>` | count as `n`, then each pair |
/// | any other identifier | a type that declares its own codec here | its encoding, inline |
///
/// The address and stamp kinds expand to `::addrspace::…` and
/// `::quorum::…` paths, so a crate that uses them must depend on those
/// crates.
///
/// # Example
///
/// ```
/// use proto_io::{wire_codec, NodeId, WireError, WireMsg};
///
/// #[derive(Debug, Clone, PartialEq)]
/// enum Chat {
///     Hello { from: NodeId, urgent: bool },
///     Bye,
///     Batch { seqs: Vec<u16> },
/// }
///
/// wire_codec! {
///     Chat {
///         Hello = 0x01 { from: node, urgent: bool },
///         Bye = 0x02,
///         Batch = 0x03 { seqs: [u8; u16] },
///     }
/// }
///
/// let msg = Chat::Hello { from: NodeId::new(7), urgent: true };
/// let mut bytes = Vec::new();
/// msg.wire_encode(&mut bytes);
/// assert_eq!(bytes, [1, 0, 0, 0, 0, 0, 0, 0, 7, 1]);
/// assert_eq!(Chat::wire_decode(&bytes)?, msg);
/// assert_eq!(Chat::wire_decode(&[0x01, 0, 0, 0, 0, 0, 0, 0, 7, 2]), Err(WireError::BadFlag(2)));
/// # Ok::<(), WireError>(())
/// ```
#[macro_export]
macro_rules! wire_codec {
    ($($ty:ident {
        $($var:ident = $tag:literal $({ $($field:ident : $kind:tt),* $(,)? })?),* $(,)?
    })+) => {$(
        impl $crate::WireMsg for $ty {
            fn wire_encode(&self, out: &mut ::std::vec::Vec<u8>) {
                match self {
                    $($ty::$var $({ $($field),* })? => {
                        out.push($tag);
                        $($($crate::wire_codec!(@put out, $kind, $field);)*)?
                    })*
                }
            }

            fn wire_take(cur: &mut &[u8]) -> ::std::result::Result<Self, $crate::WireError> {
                ::std::result::Result::Ok(match $crate::wire_codec!(@take cur, u8) {
                    $($tag => $ty::$var $({
                        $($field: $crate::wire_codec!(@take cur, $kind)),*
                    })?,)*
                    tag => return ::std::result::Result::Err($crate::WireError::BadTag(tag)),
                })
            }
        }
    )+};

    // Encoders: `$v` is a reference to the value.
    (@put $out:ident, u8, $v:expr) => { $out.push(*$v) };
    (@put $out:ident, bool, $v:expr) => { $out.push(u8::from(*$v)) };
    (@put $out:ident, u16, $v:expr) => { $out.extend_from_slice(&$v.to_be_bytes()) };
    (@put $out:ident, u32, $v:expr) => { $out.extend_from_slice(&$v.to_be_bytes()) };
    (@put $out:ident, u64, $v:expr) => { $out.extend_from_slice(&$v.to_be_bytes()) };
    (@put $out:ident, node, $v:expr) => { $crate::wire_codec!(@put $out, u64, &$v.index()) };
    (@put $out:ident, addr, $v:expr) => { $crate::wire_codec!(@put $out, u32, &$v.bits()) };
    (@put $out:ident, opt_addr, $v:expr) => {
        match $v {
            ::std::option::Option::Some(addr) => {
                $out.push(1);
                $crate::wire_codec!(@put $out, addr, addr);
            }
            ::std::option::Option::None => $out.push(0),
        }
    };
    (@put $out:ident, block, $v:expr) => {{
        $crate::wire_codec!(@put $out, addr, &$v.base());
        $crate::wire_codec!(@put $out, u32, &$v.len());
    }};
    (@put $out:ident, stamp, $v:expr) => { $crate::wire_codec!(@put $out, u64, &$v.get()) };
    (@put $out:ident, record, $v:expr) => {{
        match $v.status {
            ::addrspace::AddrStatus::Free => $out.push(0),
            ::addrspace::AddrStatus::Allocated(owner) => {
                $out.push(1);
                $crate::wire_codec!(@put $out, u64, &owner);
            }
            ::addrspace::AddrStatus::Vacant => $out.push(2),
        }
        $crate::wire_codec!(@put $out, stamp, &$v.stamp);
    }};
    (@put $out:ident, table, $v:expr) => {{
        $crate::wire_codec!(@put $out, u32, &($v.len() as u32));
        for (addr, record) in $v.iter() {
            $crate::wire_codec!(@put $out, addr, &addr);
            $crate::wire_codec!(@put $out, record, &record);
        }
    }};
    (@put $out:ident, [$n:ident; $k:tt], $v:expr) => {{
        $crate::wire_codec!(@put $out, $n, &($v.len() as $n));
        for item in $v.iter() {
            $crate::wire_codec!(@put $out, $k, item);
        }
    }};
    (@put $out:ident, [$n:ident; $k1:tt, $k2:tt], $v:expr) => {{
        $crate::wire_codec!(@put $out, $n, &($v.len() as $n));
        for (first, second) in $v.iter() {
            $crate::wire_codec!(@put $out, $k1, first);
            $crate::wire_codec!(@put $out, $k2, second);
        }
    }};
    (@put $out:ident, $nested:ident, $v:expr) => { $crate::WireMsg::wire_encode($v, $out) };

    // Decoders: each expands to the decoded value, or returns the error.
    (@take $cur:ident, u8) => { u8::from_be_bytes($crate::wire::take($cur)?) };
    (@take $cur:ident, u16) => { u16::from_be_bytes($crate::wire::take($cur)?) };
    (@take $cur:ident, u32) => { u32::from_be_bytes($crate::wire::take($cur)?) };
    (@take $cur:ident, u64) => { u64::from_be_bytes($crate::wire::take($cur)?) };
    (@take $cur:ident, bool) => { $crate::wire::take_flag($cur)? };
    (@take $cur:ident, node) => { $crate::NodeId::new($crate::wire_codec!(@take $cur, u64)) };
    (@take $cur:ident, addr) => { ::addrspace::Addr::new($crate::wire_codec!(@take $cur, u32)) };
    (@take $cur:ident, opt_addr) => {
        match $crate::wire::take_flag($cur)? {
            true => ::std::option::Option::Some($crate::wire_codec!(@take $cur, addr)),
            false => ::std::option::Option::None,
        }
    };
    (@take $cur:ident, block) => {
        ::addrspace::AddrBlock::new(
            $crate::wire_codec!(@take $cur, addr),
            $crate::wire_codec!(@take $cur, u32),
        )
        .map_err(|_| $crate::WireError::BadBlock)?
    };
    (@take $cur:ident, stamp) => {
        ::quorum::VersionStamp::new($crate::wire_codec!(@take $cur, u64))
    };
    (@take $cur:ident, record) => {
        ::addrspace::AddrRecord {
            status: match $crate::wire_codec!(@take $cur, u8) {
                0 => ::addrspace::AddrStatus::Free,
                1 => ::addrspace::AddrStatus::Allocated($crate::wire_codec!(@take $cur, u64)),
                2 => ::addrspace::AddrStatus::Vacant,
                tag => return ::std::result::Result::Err($crate::WireError::BadTag(tag)),
            },
            stamp: $crate::wire_codec!(@take $cur, stamp),
        }
    };
    (@take $cur:ident, table) => {{
        let n = $crate::wire_codec!(@take $cur, u32) as usize;
        // The count is the sender's word: cap the pre-allocation, and a
        // lying count runs out of buffer long before the cap matters.
        let mut entries = ::std::vec::Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let addr = $crate::wire_codec!(@take $cur, addr);
            if entries.last().is_some_and(|&(last, _)| last >= addr) {
                return ::std::result::Result::Err($crate::WireError::Unsorted);
            }
            entries.push((addr, $crate::wire_codec!(@take $cur, record)));
        }
        entries.into_iter().collect::<::addrspace::AllocationTable>()
    }};
    (@take $cur:ident, [$n:ident; $($k:tt),+]) => {{
        let n = $crate::wire_codec!(@take $cur, $n) as usize;
        let mut items = ::std::vec::Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            items.push(($($crate::wire_codec!(@take $cur, $k)),+));
        }
        items
    }};
    (@take $cur:ident, $nested:ident) => { <$nested as $crate::WireMsg>::wire_take($cur)? };
}
