//! # ompss — task-based offload abstraction layer
//!
//! The DEEP projects reduce porting effort with an abstraction layer based
//! on the OmpSs data-flow programming model (paper §III-B): applications
//! annotate tasks with their data dependencies, and an additional offload
//! pragma marks large compute tasks to run on the other side of the
//! Cluster-Booster system, with all necessary MPI calls inserted
//! automatically.
//!
//! This crate implements those semantics as a library and lowers them onto
//! the mechanism the paper names, `MPI_Comm_spawn`:
//!
//! * [`graph::TaskGraph`] — tasks declared in program order with `in`/`out`
//!   data sets and a target device;
//! * [`data::DataStore`] — the real backing store: tasks are closures that
//!   read and write named `Vec<f64>` blocks, so graph execution computes
//!   real results (tested for equivalence with sequential execution);
//! * [`run`] — launches one Cluster rank through `cluster-booster`'s
//!   launcher, which spawns one Booster rank; each runs its own device's
//!   tasks in program order, charged by `psmpi::Rank::compute`, and each
//!   cross-device dependency is one intercommunicator message. It carries
//!   the DEEP-ER task-restart features (§III-D): task inputs saved before
//!   execution and restored for a per-task retry, without losing the other
//!   tasks' work.
//!
//! The figures do not run through this crate: xPic's Cluster+Booster mode
//! is split by hand over the same `comm_spawn` (§IV), and the repo's
//! `tests/ompss_xpic.rs` shows xPic's blocking step written as a task
//! graph costs what that hand split charges.

#![forbid(unsafe_code)]

pub mod data;
pub mod graph;
pub mod runtime;

pub use data::DataStore;
pub use graph::{Device, TaskGraph, TaskId};
pub use runtime::{run, RunReport, TaskRecord};
