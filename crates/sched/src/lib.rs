//! # sched — the batch scheduler and multi-tenant workload engine
//!
//! The paper's throughput argument (§II-A) is a *system-wide* claim: a
//! Cluster-Booster machine whose modules are reserved independently can
//! co-schedule complementary applications and keep both modules busy,
//! where an accelerated cluster must drag host nodes along with every
//! accelerator. This crate holds the one scheduler event loop that checks
//! it, on a hand-written mix of rigid jobs ([`TraceJob::rigid`]) and at
//! *production trace scale* alike:
//!
//! * [`workload`] — a seeded, deterministic workload generator: thousands
//!   of heterogeneous jobs (Cluster-heavy, Booster-heavy, combined C+B)
//!   arriving by a bursty "heavy traffic" process;
//! * [`engine`] — the scheduler in virtual time: EASY backfill with
//!   worst-case reservations (arithmetic in `easy`), malleable Booster
//!   jobs that grow into idle BN and yield them back when the queue head
//!   needs room, combined jobs contending for fabric bandwidth (max-min fair,
//!   [`simnet::max_min_shares`]), and fault-driven rescheduling — a
//!   [`simnet::FaultPlan`] node loss kills the victim job and requeues it,
//!   resuming from its last checkpoint (Young/Daly interval, multi-level
//!   schedule per `scr`);
//! * [`report`] — flattens an [`EngineReport`] into `obs::HostMetrics`
//!   (makespan, queue-wait percentiles, module utilizations, backfill
//!   efficiency) for the `sched` bin's `--out` file, and renders its event
//!   log as a Chrome trace with one track per job ([`chrome_trace`]).
//!
//! Everything runs under the repo's determinism contract: virtual time
//! only, seeded `StdRng` only, ordered containers only, one sequential
//! loop — so a trace schedules bit-identically on any host.

#![forbid(unsafe_code)]

mod easy;
pub mod engine;
pub mod report;
pub mod workload;

pub use engine::{
    CheckpointPolicy, Engine, EngineConfig, EngineEvent, EngineReport, HeadReservation,
};
pub use report::{chrome_trace, report_metrics};
pub use workload::{generate, ArrivalModel, JobClass, TraceJob, WorkloadConfig};
