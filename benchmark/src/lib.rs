//! The repo benchmark: five workloads over the Cluster-Booster simulator,
//! simulator-speed and fidelity metrics end to end, and a traced pass that
//! attributes host time to layers. See `README.md` beside this package.
//!
//! The simulator is measured from outside only: the benchmark times calls
//! into the crates' public functions from its own closures and probes and
//! touches no crate source.

pub mod fidelity;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod probe;
pub mod procfs;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;

/// The paper's conference date, as everywhere else in the repository.
pub const DEFAULT_SEED: u64 = 20180521;
/// Measuring seconds per run; `run_seconds` in BENCHMARK.json.
pub const DEFAULT_SECONDS: u32 = 15;
