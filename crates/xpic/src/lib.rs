//! # xpic — the Space Weather particle-in-cell application
//!
//! A Rust reimplementation of the xPic code used in the paper's evaluation
//! (§IV): a 2-D electromagnetic particle-in-cell simulation in the
//! implicit-moment tradition (Markidis et al., iPIC3D), structured exactly
//! as Fig. 5 describes — a **field solver** (Maxwell's equations,
//! E,B = f(ρ,J)) and a **particle solver** (Newton's equation,
//! r,v = f(E,B), plus moment gathering ρ,J = f(r,v)) coupled through
//! interface buffers.
//!
//! The application runs in the paper's three modes (§IV-B/C):
//!
//! * **Cluster-only / Booster-only** — both solvers on the same nodes, the
//!   original main loop of Listing 1;
//! * **Cluster+Booster (C+B)** — the code split of Listings 2–4: the
//!   application boots on the Booster running the particle solver, spawns
//!   the field solver onto Cluster nodes via `MPI_Comm_spawn`, and the two
//!   sides exchange E,B and ρ,J per step over the inter-communicator with
//!   nonblocking transfers overlapping auxiliary computations.
//!
//! The physics really runs (Boris pusher, bilinear gather/scatter, CG
//! Helmholtz field solve, Faraday update, slab domain decomposition with
//! halo exchange and particle migration) at a configurable *simulation
//! scale*, while virtual time is charged for the paper's *model scale*
//! (Table II: 4096 cells/node, 2048 particles/cell) — so physics tests are
//! fast and the Fig. 7/8 benchmarks reflect the prototype's workload.
//!
//! Module map: [`config`] (setup + kernel cost descriptors), [`grid`]
//! (fields + moments storage), [`particles`] (species state), [`mover`]
//! (gather + Boris push), [`moments`] (scatter/deposit), [`fields`] (CG
//! solver + Faraday), [`par`] (shared-memory kernel parallelism with a
//! thread-count-invariant determinism contract), [`solver`] (halo
//! exchange, moment halo-add and migration over one neighbour exchange),
//! [`app`] (the three execution modes: one function per kernel phase, one
//! loop per Listing), [`resilience`] (checkpoint/restart under a fault
//! plan), [`diagnostics`] (energies).

#![forbid(unsafe_code)]

pub mod app;
pub mod config;
pub mod diagnostics;
pub mod fields;
pub mod grid;
pub mod moments;
pub mod mover;
pub mod par;
pub mod particles;
pub mod resilience;
pub mod solver;

pub use app::{run_mode, Mode, XpicReport};
pub use config::{ModelScale, XpicConfig};
pub use grid::{Fields, Grid, Moments};
pub use particles::Species;
pub use resilience::{run_resilient, CkptMode, RecoveryConfig, ResilientReport};
