//! # simnet — EXTOLL-like fabric model for the Cluster-Booster reproduction
//!
//! The DEEP-ER prototype connects Cluster nodes, Booster nodes and the
//! storage system with a *uniform* EXTOLL Tourmalet A3 fabric (100 Gbit/s
//! links, remote-DMA capable). This crate models that fabric:
//!
//! * [`Topology`] — which nodes exist, their [`hwmodel::NodeSpec`]s, and the
//!   hop count between them (the prototype is one rack behind one switch
//!   level, so the default is a single-switch star);
//! * [`LogGpModel`] — per-message transfer times in the LogGP tradition:
//!   sender/receiver software overheads that depend on the host
//!   microarchitecture (this is why Booster latencies are higher, Table I
//!   footnote), wire latency per hop, payload bandwidth, and an
//!   eager/rendezvous protocol switch with eager-copy costs;
//! * [`Fabric`] — the façade combining both, used by `psmpi` for every
//!   message and by the figure-3 harness directly;
//! * [`nam`] — the Network Attached Memory device (HMC + FPGA on the
//!   fabric), usable by all nodes through one-sided RDMA
//!   ([`Fabric::nam_rdma_time`] prices a transfer to it).

#![forbid(unsafe_code)]

pub mod contention;
pub mod fabric;
pub mod faults;
pub mod loggp;
pub mod nam;
pub mod topology;

pub use contention::{max_min_shares, max_min_shares_into};
pub use fabric::Fabric;
pub use faults::{FaultPlan, LinkFault, NodeFault};
pub use loggp::{LogGpModel, Protocol};
pub use nam::{NamDevice, NamError, NamRegion};
pub use topology::{Topology, TopologyError};
