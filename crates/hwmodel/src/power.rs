//! Node power models.
//!
//! The Cluster-Booster architecture exists because "a large scale
//! homogeneous system made of \[general purpose\] processors \[is\] extremely
//! power hungry and costly" while many-core accelerators "provide higher
//! Flop/s performance per Watt" (§I–II). This module attaches a simple
//! two-state power model to nodes — an active (compute) power and an idle
//! power — so jobs can report energy-to-solution.
//!
//! Derivation of the preset constants:
//!
//! * **Cluster node** — 2 × Xeon E5-2680 v3 at 120 W TDP plus ≈60 W for
//!   memory, NIC, board and fans: ~300 W busy. Idle with C-states: ~120 W.
//! * **Booster node** — Xeon Phi 7210 at 215 W TDP plus ≈55 W platform:
//!   ~270 W busy, ~100 W idle (the KNL tile power-gates aggressively).
//!
//! Per peak Flop/s that is 960 GF / 300 W = 3.2 GF/W on the Cluster versus
//! 2662 GF / 270 W = 9.9 GF/W on the Booster — the ≈3× Flops-per-Watt
//! advantage the Booster concept banks on.
//!
//! The runtime accounting assumes blocking waits are spent at idle power
//! (power-gated cores / sleeping MPI progress): a rank's energy is
//! `compute_time · P_active + (wall − compute_time) · P_idle`.

use crate::node::{NodeKind, NodeSpec};
use crate::time::SimTime;

/// Active (fully busy) power draw of one node, in Watts.
fn active_watts(node: &NodeSpec) -> f64 {
    match node.kind {
        NodeKind::Cluster => 300.0,
        NodeKind::Booster => 270.0,
        NodeKind::Storage | NodeKind::Metadata => 250.0,
    }
}

/// Idle power draw of one node, in Watts.
fn idle_watts(node: &NodeSpec) -> f64 {
    match node.kind {
        NodeKind::Cluster => 120.0,
        NodeKind::Booster => 100.0,
        NodeKind::Storage | NodeKind::Metadata => 150.0,
    }
}

/// Energy in Joules for a rank that was busy computing for `compute` out
/// of `wall` total virtual time on `node`.
pub fn energy_joules(node: &NodeSpec, wall: SimTime, compute: SimTime) -> f64 {
    let busy = compute.min(wall);
    busy.as_secs() * active_watts(node) + (wall - busy).as_secs() * idle_watts(node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{deep_er_booster_node, deep_er_cluster_node, deep_er_storage_server};

    #[test]
    fn booster_wins_flops_per_watt() {
        // The architectural premise (§II): per peak GFlop/s per Watt, the
        // Booster is ~3× more efficient.
        let gflops_per_watt = |n: &NodeSpec| n.peak_gflops() / active_watts(n);
        let cn = gflops_per_watt(&deep_er_cluster_node());
        let bn = gflops_per_watt(&deep_er_booster_node());
        assert!(
            bn / cn > 2.5,
            "Booster efficiency advantage: {:.1}",
            bn / cn
        );
    }

    #[test]
    fn energy_accounting() {
        let cn = deep_er_cluster_node();
        let wall = SimTime::from_secs(10.0);
        // Fully busy: 10 s × 300 W.
        assert_eq!(energy_joules(&cn, wall, wall), 3000.0);
        // Fully idle: 10 s × 120 W.
        assert_eq!(energy_joules(&cn, wall, SimTime::ZERO), 1200.0);
        // Half busy.
        assert_eq!(
            energy_joules(&cn, wall, SimTime::from_secs(5.0)),
            1500.0 + 600.0
        );
        // Compute time can never exceed wall.
        assert_eq!(energy_joules(&cn, wall, SimTime::from_secs(50.0)), 3000.0);
    }

    #[test]
    fn idle_below_active_everywhere() {
        for n in [
            deep_er_cluster_node(),
            deep_er_booster_node(),
            deep_er_storage_server(),
        ] {
            assert!(idle_watts(&n) < active_watts(&n));
        }
    }
}
