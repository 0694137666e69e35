//! # sionio — the DEEP-ER I/O software stack
//!
//! Paper §III-C: the non-volatile memory of the prototype is the foundation
//! of a scalable I/O infrastructure combining the parallel I/O library
//! SIONlib with the BeeGFS parallel file system, plus a node-local cache
//! layer (BeeOND) over the NVMe devices. This crate rebuilds the two layers
//! the checkpoint path writes through (node-local NVMe is `scr`'s Local
//! level):
//!
//! * [`pfs`] — a BeeGFS-like parallel file system: one metadata server, N
//!   storage servers, files striped across servers; every operation returns
//!   its virtual-time cost (metadata latency + parallel stripe transfers);
//! * [`sion`] — the SIONlib concentration layer: task-local I/O streams
//!   bundled into one shared container file "that the file system can
//!   easily manage", with per-task chunks and alignment.
//!
//! All layers move real bytes (round-trip tested); virtual time comes from
//! the `hwmodel` device models.

#![forbid(unsafe_code)]

pub mod pfs;
pub mod sion;

pub use pfs::{FsError, ParallelFs};
pub use sion::{SionContainer, SionError};
