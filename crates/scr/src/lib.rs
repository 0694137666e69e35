//! # scr — scalable multi-level checkpoint/restart
//!
//! DEEP-ER adopted the Scalable Checkpoint-Restart library (paper §III-D,
//! ref \[14\]) and extended it "to decide where and how often checkpoints are
//! performed, based on a failure model of the DEEP-ER prototype". This
//! crate rebuilds that stack:
//!
//! * [`manager`] — the checkpoint database and the three storage levels:
//!   **Local** (the rank's own NVMe — fastest, lost with the node),
//!   **Buddy** (a copy on a companion node's NVMe via the fabric, or in a
//!   NAM device — survives single-node failures; this is the
//!   SIONlib-assisted buddy checkpointing of §III-C), and **Global** (a
//!   SION container on the parallel file system — survives anything).
//!   Checkpoints hold real bytes and restarts return them. There is one
//!   checkpoint path: a *stage* writes the local copies and prices the
//!   checkpoint, a *promote* writes the higher-level copies.
//!   [`ScrManager::checkpoint`] does both and blocks for the full cost;
//!   [`ScrManager::checkpoint_async`] blocks for the local stage only and
//!   [`ScrManager::finish_drain`] promotes once the drain has been
//!   realized, so a death mid-drain falls back to the newest promoted
//!   checkpoint. The manager keeps only what a restart could still
//!   choose: a promotion drops the older checkpoints it dominates and
//!   hands their blobs back.
//! * [`failure`] — the failure model: exponential per-node failures with a
//!   configurable MTBF, sampled into failure traces.
//! * [`interval`] — Young/Daly-style optimal checkpoint intervals per level
//!   and the multi-level schedule SCR derives from the level costs.
//! * [`sim`] — the virtual-time run simulator: given compute length, a
//!   checkpoint schedule (what each checkpoint blocks, what it drains in
//!   the background — nothing, for a blocking one) and a failure trace,
//!   compute the wall time with rework and restarts. Drives the
//!   checkpoint-interval sweep and the overhead-vs-MTBF curve.
//! * [`delta`] — dirty-range delta frames against the previous full blob,
//!   with periodic keyframes, shrinking the bytes a drain pushes.

#![forbid(unsafe_code)]

pub mod delta;
pub mod failure;
pub mod interval;
pub mod manager;
pub mod sim;

pub use failure::FailureModel;
pub use interval::{young_daly_interval, MultiLevelSchedule};
pub use manager::{
    CheckpointLevel, CkptMode, NamBuddy, Payload, PendingDrain, ScrConfig, ScrError, ScrManager,
};
pub use sim::{simulate_run, RunOutcome};
