//! # cluster-booster — the Modular Supercomputing core
//!
//! This crate is the reproduction's *primary contribution* layer: the
//! Cluster-Booster architecture of the DEEP projects (Kreuzer et al., 2018).
//! It assembles heterogeneous **modules** (a Cluster of general-purpose
//! nodes, a Booster of many-core nodes, plus storage) into a single system
//! behind a uniform fabric, and provides the *system software* that makes
//! them act as one machine:
//!
//! * [`system`] — system description and assembly: modules, node inventory,
//!   the DEEP-ER prototype preset (16 CN + 8 BN + storage, Table I);
//! * [`resources`] — the resource manager: per-module node pools, and the
//!   key architectural property of §II-A: *Cluster and Booster resources
//!   are reserved and allocated independently*, so any combination of CN
//!   and BN can be given to one application;
//! * [`launch`] — the job launcher: allocates nodes, builds the psmpi
//!   universe job, and implements the *offload policy* — which side boots
//!   first and spawns the other (xPic boots on the Booster and spawns the
//!   Cluster side, §IV-B).
//!
//! Scheduling *policy* (queue order, EASY backfill, malleability, fault
//! requeues) lives in `crates/sched`, whose engine drives the resource
//! manager; this crate holds no scheduler.
//!
//! The crate re-exports the pieces a typical application needs.

#![forbid(unsafe_code)]

pub mod launch;
pub mod resources;
pub mod system;

pub use launch::{JobSpec, Launcher};
pub use resources::{Allocation, AllocationError, ResourceManager};
pub use system::{Module, ModuleKind, System, SystemBuilder};

/// Presets for the systems built in the DEEP projects.
pub mod presets {
    use super::system::{System, SystemBuilder};

    /// The DEEP-ER prototype (paper Table I / Fig. 2): 16 Cluster nodes,
    /// 8 Booster nodes, one metadata and two storage servers, one uniform
    /// EXTOLL Tourmalet fabric, two 2 GB NAM devices.
    pub fn deep_er_prototype() -> System {
        SystemBuilder::new("DEEP-ER prototype")
            .cluster_nodes(16)
            .booster_nodes(8)
            .storage_servers(2)
            .metadata_servers(1)
            .nam_devices(2)
            .build()
    }

    /// A reduced prototype for fast tests: 2 CN + 2 BN.
    pub fn mini_prototype() -> System {
        SystemBuilder::new("mini")
            .cluster_nodes(2)
            .booster_nodes(2)
            .build()
    }
}
