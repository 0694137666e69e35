//! Job launching: from a heterogeneous allocation to a running psmpi world.
//!
//! The launcher reproduces the execution flow of §IV-B: "At launch time,
//! the execution script calls the Booster code, and this in turn performs a
//! spawn with the name of the Cluster executable. ParaStation and the
//! scheduler detect this call and distribute the child binaries in the
//! correct locations." Here: [`Launcher::launch`] allocates nodes from both
//! modules, boots the world on the configured side, and hands the entry
//! point its [`Allocation`] so it can [`psmpi::Rank::spawn`] the other side.

use crate::resources::{Allocation, AllocationError, ResourceManager};
use crate::system::{ModuleKind, System};
use psmpi::{JobReport, Rank, Universe};
use std::sync::Arc;

/// What a job asks the system for.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Job name (reporting only).
    pub name: String,
    /// Cluster nodes requested.
    pub cluster_nodes: usize,
    /// Booster nodes requested.
    pub booster_nodes: usize,
    /// Which module the initial world boots on; the other side is reached
    /// by spawning (xPic boots on the Booster, §IV-B).
    pub boot: ModuleKind,
}

impl JobSpec {
    /// A job running only on the Cluster.
    pub fn cluster_only(name: impl Into<String>, nodes: usize) -> Self {
        JobSpec {
            name: name.into(),
            cluster_nodes: nodes,
            booster_nodes: 0,
            boot: ModuleKind::Cluster,
        }
    }

    /// A job running only on the Booster.
    pub fn booster_only(name: impl Into<String>, nodes: usize) -> Self {
        JobSpec {
            name: name.into(),
            cluster_nodes: 0,
            booster_nodes: nodes,
            boot: ModuleKind::Booster,
        }
    }

    /// A partitioned Cluster+Booster job booting on the Booster (the xPic
    /// configuration).
    pub fn partitioned(name: impl Into<String>, cn: usize, bn: usize) -> Self {
        JobSpec {
            name: name.into(),
            cluster_nodes: cn,
            booster_nodes: bn,
            boot: ModuleKind::Booster,
        }
    }

    /// Override the booting module.
    pub fn boot_on(mut self, m: ModuleKind) -> Self {
        self.boot = m;
        self
    }
}

/// Errors from launching.
#[derive(Debug)]
pub enum LaunchError {
    /// The resource manager refused the allocation.
    Allocation(AllocationError),
    /// The spec is inconsistent (e.g. boots on a module with zero nodes).
    BadSpec(String),
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::Allocation(e) => write!(f, "{e}"),
            LaunchError::BadSpec(s) => write!(f, "bad job spec: {s}"),
        }
    }
}

impl std::error::Error for LaunchError {}

impl From<AllocationError> for LaunchError {
    fn from(e: AllocationError) -> Self {
        LaunchError::Allocation(e)
    }
}

/// Allocates, boots and reaps jobs on one system.
pub struct Launcher {
    system: System,
    rm: ResourceManager,
    universe: Universe,
}

impl Launcher {
    /// A launcher over a system (fresh resource manager and universe).
    pub fn new(system: System) -> Self {
        let rm = ResourceManager::new(&system);
        let universe = Universe::new(system.fabric().clone());
        Launcher {
            system,
            rm,
            universe,
        }
    }

    /// The managed system.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// The resource manager (shared handle).
    pub fn resources(&self) -> &ResourceManager {
        &self.rm
    }

    /// The psmpi universe jobs run in.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Allocate per `spec`, boot the world on the boot module's nodes (one
    /// rank per node), run `entry(rank, allocation)` on every rank, release
    /// the allocation, and return the virtual-time report. The entry
    /// closure reaches the *other* module by spawning onto `allocation`'s
    /// nodes.
    pub fn launch<F>(&self, spec: &JobSpec, entry: F) -> Result<JobReport, LaunchError>
    where
        F: Fn(&mut Rank, &Allocation) + Send + Sync + 'static,
    {
        let alloc = self.rm.allocate(spec.cluster_nodes, spec.booster_nodes)?;
        let boot_nodes = match spec.boot {
            ModuleKind::Cluster => &alloc.cluster,
            ModuleKind::Booster => &alloc.booster,
            ModuleKind::Storage => {
                self.rm.release(&alloc).ok();
                return Err(LaunchError::BadSpec(
                    "cannot boot on the storage module".into(),
                ));
            }
        };
        if boot_nodes.is_empty() {
            self.rm.release(&alloc).ok();
            return Err(LaunchError::BadSpec(format!(
                "job '{}' boots on {:?} but requested no nodes there",
                spec.name, spec.boot
            )));
        }
        let placements = boot_nodes.clone();
        let alloc_arc = Arc::new(alloc);
        let alloc_in = alloc_arc.clone();
        let report = self
            .universe
            .launch(&placements, move |rank| entry(rank, &alloc_in));
        self.rm
            .release(&alloc_arc)
            .expect("allocation live until here");
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::deep_er_prototype;
    use crate::SystemBuilder;
    use psmpi::ReduceOp;

    /// A reduced prototype: 2 CN + 2 BN.
    fn mini_prototype() -> System {
        SystemBuilder::new("mini")
            .cluster_nodes(2)
            .booster_nodes(2)
            .build()
    }

    #[test]
    fn cluster_only_job_runs_on_cluster_nodes() {
        let l = Launcher::new(deep_er_prototype());
        let report = l
            .launch(&JobSpec::cluster_only("t", 4), |rank, alloc| {
                assert_eq!(rank.size(), 4);
                assert!(alloc.cluster.contains(&rank.node_id()));
                assert_eq!(alloc.booster.len(), 0);
                let w = rank.world();
                let s = rank.allreduce_scalar(&w, 1.0, ReduceOp::Sum).unwrap();
                assert_eq!(s, 4.0);
            })
            .unwrap();
        assert_eq!(report.outcomes().len(), 4);
        // Nodes returned to the pool.
        assert_eq!(l.resources().free_cluster(), 16);
    }

    #[test]
    fn booster_only_job_runs_on_booster_nodes() {
        let l = Launcher::new(deep_er_prototype());
        l.launch(&JobSpec::booster_only("t", 8), |rank, alloc| {
            assert_eq!(rank.size(), 8);
            assert!(alloc.booster.contains(&rank.node_id()));
        })
        .unwrap();
        assert_eq!(l.resources().free_booster(), 8);
    }

    #[test]
    fn partitioned_job_spawns_across_modules() {
        let l = Launcher::new(mini_prototype());
        let report = l
            .launch(&JobSpec::partitioned("xpic-like", 2, 2), |rank, alloc| {
                // Boot side is the Booster (2 ranks); spawn the Cluster part.
                assert!(alloc.booster.contains(&rank.node_id()));
                let cluster = alloc.cluster.clone();
                let spawned_on = cluster.clone();
                let w = rank.world();
                let ic = rank
                    .spawn(
                        &w,
                        &cluster,
                        Arc::new(move |child: &mut Rank| {
                            assert!(spawned_on.contains(&child.node_id()));
                            let pic = child.parent().unwrap();
                            if child.rank() == 0 {
                                child.send_comm(&pic, 0, 1, &7u32).unwrap();
                            }
                        }),
                    )
                    .unwrap();
                if rank.rank() == 0 {
                    let (v, _) = rank.recv_comm::<u32>(&ic, Some(0), Some(1)).unwrap();
                    assert_eq!(v, 7);
                }
            })
            .unwrap();
        assert!(report.worlds().len() >= 2);
        assert_eq!(l.resources().free_cluster(), 2);
        assert_eq!(l.resources().free_booster(), 2);
    }

    #[test]
    fn bad_specs_rejected() {
        let l = Launcher::new(mini_prototype());
        // Boots on booster, requested none.
        let err = l
            .launch(&JobSpec::partitioned("bad", 2, 0), |_, _| {})
            .unwrap_err();
        assert!(matches!(err, LaunchError::BadSpec(_)));
        // Over-allocation.
        let err = l
            .launch(&JobSpec::cluster_only("big", 99), |_, _| {})
            .unwrap_err();
        assert!(matches!(err, LaunchError::Allocation(_)));
        // Failed launches leak nothing.
        assert_eq!(l.resources().free_cluster(), 2);
        assert_eq!(l.resources().free_booster(), 2);
    }
}
