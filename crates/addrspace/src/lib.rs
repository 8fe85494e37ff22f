//! IPv4 address-space management for MANET autoconfiguration.
//!
//! This crate implements the address bookkeeping shared by the quorum-based
//! protocol and its baselines:
//!
//! * [`Addr`] — a 32-bit IPv4 address newtype,
//! * [`AddrBlock`] — a contiguous address range with binary splitting
//!   (allocators hand *half* their block to a newly promoted cluster head),
//! * [`AllocationTable`] — per-address allocation records with version
//!   stamps, supporting quorum-style freshest-copy merges,
//! * [`AddressPool`] — a cluster head's `IPSpace`: the set of blocks it
//!   owns plus the allocation state of every address inside them,
//! * [`fragmentation`] — metrics on how fragmented a pool has become.
//!
//! # Example
//!
//! ```
//! use addrspace::{Addr, AddrBlock, AddressPool};
//!
//! // The first cluster head obtains the whole address space.
//! let whole = AddrBlock::new(Addr::new(0x0A00_0000), 256)?;
//! let mut pool = AddressPool::from_block(whole);
//!
//! // Configure a common node with the first free address.
//! let ip = pool.first_free().expect("space available");
//! pool.allocate(ip, 42)?;
//!
//! // Promote a new cluster head: hand over half the block.
//! let half = pool.split_half().expect("splittable");
//! assert_eq!(half.len(), 128);
//! # Ok::<(), addrspace::AddrSpaceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod block;
mod error;
pub mod fragmentation;
mod pool;
mod table;

pub use addr::Addr;
pub use block::{AddrBlock, STOCK_SPACE};
pub use error::AddrSpaceError;
pub use pool::{AddressPool, PoolView};
pub use table::{AddrRecord, AddrStatus, AllocationTable};
