//! # cb-bench — the evaluation harness
//!
//! One module per table/figure of the paper plus the ablation studies from
//! DESIGN.md. Each module produces the figure's data as plain structs
//! (reused by the regeneration binaries, the repo benchmark in
//! `benchmark/`, and the paper-claims integration tests) and offers a text
//! rendering that prints the same rows/series the paper reports.
//!
//! | paper artifact | module | binary |
//! |---|---|---|
//! | Table I (hardware configuration) | [`table1`] | `table1` |
//! | Fig. 3 (MPI bandwidth & latency) | [`fig3`] | `fig3` |
//! | Table II + Fig. 7 (xPic single-node modes) | [`fig7`] | `fig7` |
//! | Fig. 8 (xPic scaling + efficiency) | [`fig8`] | `fig8` |
//! | ablations & extensions | [`ablation`] | `ablations` |
//! | calibration sensitivity | [`sensitivity`] | `ablations` |
//! | blocking ≡ overlap, Sync ≡ Async ≡ AsyncDelta, clean or faulted | [`matrix`] | `matrix` |
//! | independent vs node-locked reservation at trace scale (§II-A) | [`sched_load`] | `sched` |
//!
//! [`golden`] is the one check behind every pin across commits: the goldens
//! in `tests/golden/` at the workspace root, each value a price or program.

#![forbid(unsafe_code)]

pub mod ablation;
pub mod fig3;
pub mod fig7;
pub mod fig8;
pub mod golden;
pub mod matrix;
pub mod obs_run;
pub mod sched_load;
pub mod sensitivity;
pub mod table1;

use cluster_booster::presets::deep_er_prototype;
use cluster_booster::{Launcher, SystemBuilder};

/// A launcher over the DEEP-ER prototype (16 CN + 8 BN + storage).
pub fn prototype_launcher() -> Launcher {
    Launcher::new(deep_er_prototype())
}

/// A launcher sized to `nodes_per_solver`: the DEEP-ER prototype when the
/// request fits it, a proportionally scaled system (DEEP-EST-style, same
/// node hardware) otherwise — so `--nodes 1000` boots instead of failing
/// allocation on the 16-CN rack.
pub fn launcher_for(nodes_per_solver: usize) -> Launcher {
    if nodes_per_solver <= 8 {
        return prototype_launcher();
    }
    let n = nodes_per_solver as u32;
    Launcher::new(
        SystemBuilder::new("scaled prototype")
            .cluster_nodes(n)
            .booster_nodes(n)
            .build(),
    )
}
