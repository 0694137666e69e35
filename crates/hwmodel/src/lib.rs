//! # hwmodel — hardware models for the Cluster-Booster reproduction
//!
//! This crate provides parametric models of the compute hardware used in the
//! DEEP-ER prototype (Kreuzer et al., *Application performance on a
//! Cluster-Booster system*, 2018): general-purpose Cluster nodes (dual-socket
//! Intel Xeon E5-2680 v3, Haswell) and self-hosted Booster nodes (Intel Xeon
//! Phi 7210, Knights Landing), together with their memory hierarchies
//! (MCDRAM, DDR4, node-local NVMe) as listed in Table I of the paper.
//!
//! The central abstraction is the *analytic cost model*: application kernels
//! describe the work they perform with a [`WorkSpec`] (floating point
//! operations, memory traffic, vectorizable fraction, parallelizable
//! fraction) and [`CostModel::time`] converts that description into seconds
//! of virtual time on a given [`NodeSpec`]. The model is a standard
//! roofline × Amdahl construction:
//!
//! * compute time uses per-core flops/cycle blended between the scalar and
//!   SIMD pipelines by the kernel's vectorizable fraction, then scaled by
//!   Amdahl's law over the node's cores for the kernel's parallel fraction;
//! * memory time is streamed traffic divided by the bandwidth of the memory
//!   level the kernel binds to;
//! * the final time is the maximum of the two (perfect overlap), plus any
//!   fixed serial overhead the kernel declares.
//!
//! The constants for the two DEEP-ER node types live in [`calib`] with the
//! derivation of each value from the paper's Table I and public spec sheets.
//!
//! Everything downstream (the `simnet` fabric model, the `psmpi` runtime, the
//! `xpic` application) charges virtual time exclusively through this crate,
//! so the calibration lives in exactly one place.

#![forbid(unsafe_code)]

pub mod calib;
pub mod cost;
pub mod memory;
pub mod node;
pub mod presets;
pub mod processor;
pub mod time;
pub mod work;

pub use cost::CostModel;
pub use memory::{MemoryKind, MemoryLevel};
pub use node::{NodeId, NodeKind, NodeSpec};
pub use presets::{deep_er_booster_node, deep_er_cluster_node, deep_er_storage_server};
pub use processor::{Microarch, Processor};
pub use time::SimTime;
pub use work::{WorkBuilder, WorkSpec};
