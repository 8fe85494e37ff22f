//! Stateful MANET autoconfiguration baselines.
//!
//! Re-implementations of the three protocols the paper's evaluation
//! compares against, each as a [`proto_io::ProtocolCore`] driven by the same
//! simulator and measured with the same hop-count metrics:
//!
//! * [`manetconf::ManetConf`] — Nesargi & Prakash, *MANETconf*
//!   (INFOCOM 2002): full replication; every node keeps the entire
//!   allocation table and every configuration requires a global flood
//!   plus confirmations from all nodes.
//! * [`buddy::Buddy`] — Mohsin & Prakash (MILCOM 2002): disjoint address
//!   blocks split binary-buddy style; any node configures newcomers
//!   independently, but global allocation tables are synchronized by
//!   periodic network-wide floods.
//! * [`ctree::CTree`] — Sheu, Tu & Chan (ICPADS 2005): only
//!   *coordinators* hold address pools; coordinators periodically report
//!   to the *C-root* (the first node), which maintains the global table
//!   and initiates reclamation — and is the single point of failure.
//! * [`dad::QueryDad`] — Perkins et al.'s query-based DAD: the
//!   *stateless* category's representative (flood-and-listen), included
//!   beyond the paper's stateful comparison set to make the stateless
//!   critique of §III measurable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buddy;
pub mod ctree;
pub mod dad;
pub mod manetconf;
