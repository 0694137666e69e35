//! # ompss — task-based offload abstraction layer
//!
//! The DEEP projects reduce porting effort with an abstraction layer based
//! on the OmpSs data-flow programming model (paper §III-B): applications
//! annotate tasks with their data dependencies; the runtime builds the task
//! dependency graph, decides execution order and concurrency, and an
//! additional offload pragma marks large compute tasks to run on the other
//! side of the Cluster-Booster system, with all necessary MPI calls
//! inserted automatically.
//!
//! This crate implements those semantics as a library:
//!
//! * [`graph::TaskGraph`] — tasks declared in program order with `in`/`out`
//!   data sets; dependencies (read-after-write, write-after-read,
//!   write-after-write) are derived exactly as the OmpSs compiler would;
//! * [`data::DataStore`] — the real backing store: tasks are closures that
//!   read and write named `Vec<f64>` blocks, so graph execution computes
//!   real results (tested for equivalence with sequential execution);
//! * [`runtime::OmpssRuntime`] — a virtual-time list scheduler over the two
//!   modules: each task runs on its target device (Cluster or Booster node
//!   model), cross-device dependencies are charged fabric transfer time for
//!   the data they move, and the makespan is reported. With
//!   [`OmpssRuntime::resilient`] it carries the DEEP-ER task-restart
//!   features (§III-D): task inputs saved before execution and restored
//!   for a per-task retry, without losing concurrent work.
//!
//! The figures do not run through this crate: xPic's Cluster+Booster mode
//! is split by hand over `MPI_Comm_spawn` (§IV), the mechanism OmpSs
//! lowers onto.

#![forbid(unsafe_code)]

pub mod data;
pub mod graph;
pub mod runtime;

pub use data::DataStore;
pub use graph::{Device, TaskGraph, TaskId};
pub use runtime::{OmpssRuntime, RunReport, TaskRecord};
