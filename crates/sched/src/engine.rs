//! The long-lived scheduler service: a virtual-time event loop over the
//! `core` batch-scheduling layer, driving a production trace of
//! heterogeneous jobs to completion.
//!
//! ## Model
//!
//! A job carries *work* (its runtime at full speed); a running job
//! advances `done += dt * speed` between events, where `speed ≤ 1`
//! composes three factors:
//!
//! * **size** — a malleable Booster job running on `bn` of its `bn_max`
//!   nodes progresses at `bn / bn_max` (the equi-partition fluid model of
//!   DEEP's adaptive batch system, paper §II-A ref [5]);
//! * **fabric** — combined C+B jobs contend for the shared fabric: each
//!   gets its max-min fair bandwidth share ([`simnet::max_min_shares`]),
//!   and a job whose communication fraction `f` is satisfied to degree
//!   `x` runs at `(1-f) + f·x` (compute/communication fluid overlap);
//! * **checkpoint** — with a [`CheckpointPolicy`], progress is amortized
//!   by `interval / (interval + cost)` (Young/Daly overhead).
//!
//! ## EASY backfill with worst-case reservations
//!
//! Because runtimes stretch under contention and shrinkage, the EASY
//! guarantee is enforced with *worst-case completion bounds*: shadow
//! times and backfill admission use each job's slowest possible speed
//! (shrunk to `bn_min`, zero fabric share), so an admitted backfill can
//! never outlast its bound and the reserved head start is safe by
//! construction. The engine records every reservation it makes
//! ([`EngineReport::reservations`]); tests replay the event log against
//! them.
//!
//! ## Faults
//!
//! A [`simnet::FaultPlan`] node death quarantines the node in the
//! resource manager ([`cluster_booster::ResourceManager::mark_down`]) and
//! kills the job holding it; the victim requeues at the fault instant,
//! resuming from its last completed checkpoint (`floor(done/interval)`,
//! level per `scr::MultiLevelSchedule`) or from scratch without one.
//! Downed nodes return after `repair_after`.
//!
//! ## Determinism
//!
//! The loop itself is sequential and iterates only ordered structures.
//! The one parallel site — advancing per-job progress between events —
//! goes through `xpic::par` with element-wise disjoint writes, so the
//! schedule is bit-identical at any host thread count.

use crate::workload::TraceJob;
use cluster_booster::resources::{Allocation, AllocationPolicy, ResourceManager};
use cluster_booster::scheduler::{fits_beside_head, shadow_start, Discipline, RunningView};
use cluster_booster::System;
use hwmodel::{NodeId, SimTime};
use scr::{CheckpointLevel, MultiLevelSchedule};
use simnet::{max_min_shares, FaultPlan};
use xpic::par::{chunk_ranges, run_tasks, split_mut};

/// Completion slack in work-seconds: a job is done when its remaining
/// work drops below this (floating-point accumulation guard).
const WORK_EPS: f64 = 1e-6;

/// Checkpointing behaviour of every job in the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointPolicy {
    /// Work between checkpoints (the Young/Daly interval).
    pub interval: SimTime,
    /// Cost of one (local-level) checkpoint.
    pub cost: SimTime,
    /// Which level the k-th checkpoint writes to.
    pub schedule: MultiLevelSchedule,
}

impl CheckpointPolicy {
    /// Derive interval and level schedule from the per-level costs and
    /// the system MTBF (see [`scr::MultiLevelSchedule::derive`]).
    pub fn derive(local: SimTime, buddy: SimTime, global: SimTime, system_mtbf: SimTime) -> Self {
        let schedule = MultiLevelSchedule::derive(local, buddy, global, system_mtbf);
        CheckpointPolicy {
            interval: schedule.base_interval,
            cost: local,
            schedule,
        }
    }

    /// Steady-state progress factor: `interval / (interval + cost)`.
    pub fn amortization(&self) -> f64 {
        let i = self.interval.as_secs();
        i / (i + self.cost.as_secs())
    }
}

/// Everything that parameterizes an engine run (besides the trace and
/// the fault plan).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Queueing discipline.
    pub discipline: Discipline,
    /// Allocation policy (the paper's independent-vs-node-locked axis).
    pub policy: AllocationPolicy,
    /// Aggregate fabric bandwidth shared by combined jobs, GB/s.
    pub fabric_capacity_gbs: f64,
    /// Checkpointing; `None` means faults restart victims from scratch.
    pub ckpt: Option<CheckpointPolicy>,
    /// Host threads for the progress-advance site (result-invariant).
    pub threads: usize,
    /// How long a downed node stays quarantined; `None` = forever.
    pub repair_after: Option<SimTime>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            discipline: Discipline::EasyBackfill,
            policy: AllocationPolicy::Independent,
            fabric_capacity_gbs: 32.0,
            ckpt: None,
            threads: 1,
            repair_after: Some(SimTime::from_secs(2.0 * 3600.0)),
        }
    }
}

/// One entry of the engine's event log, in virtual-time order.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineEvent {
    /// A job entered the queue.
    Arrival {
        /// Event time.
        t: SimTime,
        /// Job id.
        id: u64,
    },
    /// A job was allocated and started.
    Start {
        /// Event time.
        t: SimTime,
        /// Job id.
        id: u64,
        /// Cluster nodes.
        cn: usize,
        /// Booster nodes at start (`bn_min`; expansion comes later).
        bn: usize,
        /// Whether it started ahead of the queue head (EASY backfill).
        backfill: bool,
    },
    /// A job finished its work.
    Complete {
        /// Event time.
        t: SimTime,
        /// Job id.
        id: u64,
    },
    /// A node died.
    Fault {
        /// Event time.
        t: SimTime,
        /// The node.
        node: NodeId,
        /// The running job holding it, if any.
        victim: Option<u64>,
    },
    /// A fault victim went back to the queue.
    Requeue {
        /// Event time.
        t: SimTime,
        /// Job id.
        id: u64,
        /// Work preserved by its last checkpoint (zero = from scratch).
        resumed_work: SimTime,
        /// Level of the checkpoint it resumed from.
        level: Option<CheckpointLevel>,
    },
    /// A downed node returned to service.
    Repair {
        /// Event time.
        t: SimTime,
        /// The node.
        node: NodeId,
    },
    /// A malleable job gave Booster nodes back (net, per event instant).
    Shrink {
        /// Event time.
        t: SimTime,
        /// Job id.
        id: u64,
        /// Booster nodes after the shrink.
        bn: usize,
    },
    /// A malleable job grew into idle Booster nodes (net, per instant).
    Expand {
        /// Event time.
        t: SimTime,
        /// Job id.
        id: u64,
        /// Booster nodes after the expansion.
        bn: usize,
    },
}

/// A head-of-queue reservation the engine made: at time `t`, job `id`
/// was promised a start no later than `shadow`. The EASY invariant —
/// checked by tests against the event log — is that the head's actual
/// start never exceeds any of its recorded shadows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadReservation {
    /// When the reservation was computed.
    pub t: SimTime,
    /// The head job it protects.
    pub id: u64,
    /// Worst-case start bound promised to the head.
    pub shadow: SimTime,
}

/// What a trace run did.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// Virtual time of the last completion.
    pub makespan: SimTime,
    /// Queue wait of every start (start − last queueing), in start order.
    pub waits: Vec<SimTime>,
    /// Requested-CN node-time busy / total CN node-time over the makespan.
    pub cluster_utilization: f64,
    /// Active-BN node-time busy / total BN node-time over the makespan.
    pub booster_utilization: f64,
    /// Jobs that ran to completion (always the whole trace on return).
    pub completed: usize,
    /// Total starts (> completed when faults force reruns).
    pub starts: usize,
    /// Starts admitted ahead of the queue head.
    pub backfill_starts: usize,
    /// Fault-driven requeues.
    pub requeues: usize,
    /// Node faults processed.
    pub faults: usize,
    /// Node repairs processed.
    pub repairs: usize,
    /// Net malleable expansions logged.
    pub expands: usize,
    /// Net malleable shrinks logged.
    pub shrinks: usize,
    /// Full event log, virtual-time order.
    pub events: Vec<EngineEvent>,
    /// Every head reservation made (see [`HeadReservation`]).
    pub reservations: Vec<HeadReservation>,
}

/// A queued (or requeued) job.
struct Queued {
    job: TraceJob,
    queued_at: SimTime,
    /// Work already banked (checkpoint resume floor).
    done: SimTime,
    requeues: u32,
}

/// A running job.
struct Run {
    job: TraceJob,
    base: Allocation,
    /// One-node expansion allocations (Independent policy only).
    extras: Vec<Allocation>,
    /// Booster nodes the job is actually using (`bn_min + extras`).
    bn_active: usize,
    /// `bn_active` as last logged to the event stream.
    logged_bn: usize,
    /// Work completed.
    done: SimTime,
    /// Current progress rate (recomputed at every event).
    speed: f64,
    requeues: u32,
}

impl Run {
    fn remaining_secs(&self) -> f64 {
        self.job.duration.saturating_sub(self.done).as_secs()
    }

    fn holds(&self, node: NodeId) -> bool {
        self.base.all_nodes().contains(&node)
            || self.extras.iter().any(|a| a.all_nodes().contains(&node))
    }
}

/// Slowest possible progress rate of a job: shrunk to `bn_min`, zero
/// fabric share, checkpoint overhead included. Actual speed never drops
/// below this, which is what makes worst-case reservations sound.
fn worst_speed(job: &TraceJob, ck: f64) -> f64 {
    let size = if job.bn_max > 0 {
        job.bn_min as f64 / job.bn_max as f64
    } else {
        1.0
    };
    let comm = if job.fabric_demand_gbs > 0.0 {
        1.0 - job.comm_fraction
    } else {
        1.0
    };
    size * comm * ck
}

/// Recompute every running job's speed from its current size and its
/// max-min fair fabric share.
fn recompute_speeds(running: &mut [Run], capacity_gbs: f64, ck: f64) {
    let demands: Vec<f64> = running
        .iter()
        .filter(|r| r.job.fabric_demand_gbs > 0.0)
        .map(|r| r.job.fabric_demand_gbs)
        .collect();
    let shares = max_min_shares(&demands, capacity_gbs);
    let mut si = 0;
    for r in running.iter_mut() {
        let size = if r.job.bn_max > 0 {
            r.bn_active as f64 / r.job.bn_max as f64
        } else {
            1.0
        };
        let comm = if r.job.fabric_demand_gbs > 0.0 {
            let sat = (shares[si] / r.job.fabric_demand_gbs).min(1.0);
            si += 1;
            (1.0 - r.job.comm_fraction) + r.job.comm_fraction * sat
        } else {
            1.0
        };
        r.speed = size * comm * ck;
        debug_assert!(r.speed > 0.0, "job {} stalled", r.job.id);
    }
}

/// Allocate and start `q` now.
#[allow(clippy::too_many_arguments)]
fn start_job(
    rm: &ResourceManager,
    q: Queued,
    backfill: bool,
    now: SimTime,
    running: &mut Vec<Run>,
    ev: &mut Vec<EngineEvent>,
    waits: &mut Vec<SimTime>,
    starts: &mut usize,
    backfills: &mut usize,
) {
    let base = rm.allocate(q.job.cn, q.job.bn_min).expect("checked fit");
    waits.push(now.saturating_sub(q.queued_at));
    *starts += 1;
    if backfill {
        *backfills += 1;
    }
    let bn_active = q.job.bn_min;
    ev.push(EngineEvent::Start {
        t: now,
        id: q.job.id,
        cn: q.job.cn,
        bn: bn_active,
        backfill,
    });
    running.push(Run {
        base,
        extras: Vec::new(),
        bn_active,
        logged_bn: bn_active,
        done: q.done,
        speed: 1.0,
        requeues: q.requeues,
        job: q.job,
    });
}

/// The workload engine: a system plus a run configuration.
pub struct Engine {
    system: System,
    cfg: EngineConfig,
}

impl Engine {
    /// New engine over `system`.
    pub fn new(system: System, cfg: EngineConfig) -> Self {
        Engine { system, cfg }
    }

    /// The run configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Drive `trace` to completion under `faults`. Reentrant: each call
    /// builds a fresh resource manager, so the same engine can replay
    /// the same trace bit-identically.
    pub fn run(&self, trace: &[TraceJob], faults: &FaultPlan) -> EngineReport {
        let rm = ResourceManager::with_policy(&self.system, self.cfg.policy);
        let independent = matches!(self.cfg.policy, AllocationPolicy::Independent);
        let ck = self
            .cfg
            .ckpt
            .as_ref()
            .map(|c| c.amortization())
            .unwrap_or(1.0);
        let threads = self.cfg.threads.max(1);
        let (total_cn, total_bn) = rm.totals();

        // Arrival order: (submit, id) — the pinned scheduler tie-break.
        let mut order: Vec<&TraceJob> = trace.iter().collect();
        order.sort_by(|a, b| a.submit.cmp(&b.submit).then(a.id.cmp(&b.id)));
        let nf = faults.node_faults();

        let mut queue: Vec<Queued> = Vec::new();
        let mut running: Vec<Run> = Vec::new();
        let mut repairs: Vec<(SimTime, NodeId)> = Vec::new();
        let (mut ai, mut fi) = (0usize, 0usize);
        let mut now = SimTime::ZERO;
        let mut completed = 0usize;
        let mut makespan = SimTime::ZERO;
        let mut ev: Vec<EngineEvent> = Vec::new();
        let mut reservations: Vec<HeadReservation> = Vec::new();
        let mut waits: Vec<SimTime> = Vec::new();
        let (mut busy_cn, mut busy_bn) = (0.0f64, 0.0f64);
        let (mut starts, mut backfills) = (0usize, 0usize);
        let (mut requeues, mut faults_n, mut repairs_n) = (0usize, 0usize, 0usize);
        let (mut expands, mut shrinks) = (0usize, 0usize);

        loop {
            // 1. Completions at `now`.
            let mut i = 0;
            while i < running.len() {
                if running[i].remaining_secs() <= WORK_EPS {
                    let r = running.remove(i);
                    rm.release(&r.base).expect("release completed job");
                    for e in &r.extras {
                        rm.release(e).expect("release expansion");
                    }
                    ev.push(EngineEvent::Complete {
                        t: now,
                        id: r.job.id,
                    });
                    completed += 1;
                    makespan = now;
                } else {
                    i += 1;
                }
            }
            if completed == trace.len() {
                break;
            }

            // 2. Faults at `now`: quarantine the node, kill and requeue
            // the victim (resuming from its checkpoint floor).
            while fi < nf.len() && nf[fi].at <= now {
                let f = nf[fi];
                fi += 1;
                rm.mark_down(f.node);
                faults_n += 1;
                let victim = running.iter().position(|r| r.holds(f.node));
                ev.push(EngineEvent::Fault {
                    t: now,
                    node: f.node,
                    victim: victim.map(|i| running[i].job.id),
                });
                if let Some(i) = victim {
                    let r = running.remove(i);
                    rm.release(&r.base).expect("release victim");
                    for e in &r.extras {
                        rm.release(e).expect("release victim expansion");
                    }
                    let (resumed, level) = match &self.cfg.ckpt {
                        Some(p) => {
                            let k = (r.done.as_secs() / p.interval.as_secs()).floor() as u32;
                            if k == 0 {
                                (SimTime::ZERO, None)
                            } else {
                                (
                                    (p.interval * k as f64).min(r.done),
                                    Some(p.schedule.level_of(k)),
                                )
                            }
                        }
                        None => (SimTime::ZERO, None),
                    };
                    requeues += 1;
                    ev.push(EngineEvent::Requeue {
                        t: now,
                        id: r.job.id,
                        resumed_work: resumed,
                        level,
                    });
                    queue.push(Queued {
                        job: r.job,
                        queued_at: now,
                        done: resumed,
                        requeues: r.requeues + 1,
                    });
                }
                if let Some(d) = self.cfg.repair_after {
                    let at = now + d;
                    let pos = repairs.partition_point(|&(t, n)| (t, n.0) <= (at, f.node.0));
                    repairs.insert(pos, (at, f.node));
                }
            }

            // 3. Repairs at `now`.
            while !repairs.is_empty() && repairs[0].0 <= now {
                let (_, n) = repairs.remove(0);
                if rm.mark_up(n) {
                    repairs_n += 1;
                    ev.push(EngineEvent::Repair { t: now, node: n });
                }
            }

            // 4. Arrivals at `now`.
            while ai < order.len() && order[ai].submit <= now {
                let j = order[ai];
                ai += 1;
                ev.push(EngineEvent::Arrival {
                    t: j.submit,
                    id: j.id,
                });
                queue.push(Queued {
                    job: j.clone(),
                    queued_at: j.submit,
                    done: SimTime::ZERO,
                    requeues: 0,
                });
            }

            // 5. Schedule. First reclaim every malleable expansion — the
            // head (and any arrival) outranks grown jobs; what stays
            // idle after the start pass is handed back out below.
            queue.sort_by(|a, b| a.queued_at.cmp(&b.queued_at).then(a.job.id.cmp(&b.job.id)));
            if independent {
                for r in running.iter_mut() {
                    for e in r.extras.drain(..) {
                        rm.release(&e).expect("reclaim expansion");
                    }
                    r.bn_active = r.job.bn_min;
                }
            }
            loop {
                if queue.is_empty() {
                    break;
                }
                if rm.can_allocate(queue[0].job.cn, queue[0].job.bn_min) {
                    let q = queue.remove(0);
                    start_job(
                        &rm,
                        q,
                        false,
                        now,
                        &mut running,
                        &mut ev,
                        &mut waits,
                        &mut starts,
                        &mut backfills,
                    );
                    continue;
                }
                // Head blocked: compute and record its reservation.
                let head = &queue[0];
                let (need_cn, need_bn) = rm.effective(head.job.cn, head.job.bn_min);
                let views: Vec<RunningView> = running
                    .iter()
                    .map(|r| RunningView {
                        cn: r.base.cluster.len(),
                        bn: r.base.booster.len(),
                        end: now + SimTime::from_secs(r.remaining_secs() / worst_speed(&r.job, ck)),
                    })
                    .collect();
                let free_cn = rm.free_cluster();
                let free_bn = rm.free_booster();
                let shadow = shadow_start(free_cn, free_bn, need_cn, need_bn, &views, now);
                reservations.push(HeadReservation {
                    t: now,
                    id: head.job.id,
                    shadow,
                });
                if self.cfg.discipline == Discipline::Fifo {
                    break;
                }
                // EASY backfill: admit the first later job whose
                // worst-case end respects the head's reservation.
                let mut admit = None;
                for (i, c) in queue.iter().enumerate().skip(1) {
                    if !rm.can_allocate(c.job.cn, c.job.bn_min) {
                        continue;
                    }
                    let (c_cn, c_bn) = rm.effective(c.job.cn, c.job.bn_min);
                    let cand_end = now
                        + SimTime::from_secs(
                            c.job.duration.saturating_sub(c.done).as_secs()
                                / worst_speed(&c.job, ck),
                        );
                    if cand_end <= shadow
                        || fits_beside_head(
                            free_cn, free_bn, c_cn, c_bn, cand_end, need_cn, need_bn, &views,
                            shadow,
                        )
                    {
                        admit = Some(i);
                        break;
                    }
                }
                match admit {
                    Some(i) => {
                        let q = queue.remove(i);
                        start_job(
                            &rm,
                            q,
                            true,
                            now,
                            &mut running,
                            &mut ev,
                            &mut waits,
                            &mut starts,
                            &mut backfills,
                        );
                    }
                    None => break,
                }
            }
            // Hand idle Booster nodes back to malleable jobs, one node
            // per job per round (equi-partition growth), then log net
            // size changes against the last logged size.
            if independent {
                loop {
                    let mut grew = false;
                    for r in running.iter_mut() {
                        if r.job.malleable() && r.bn_active < r.job.bn_max && rm.free_booster() > 0
                        {
                            let a = rm.allocate(0, 1).expect("free BN checked");
                            r.extras.push(a);
                            r.bn_active += 1;
                            grew = true;
                        }
                    }
                    if !grew {
                        break;
                    }
                }
                for r in running.iter_mut() {
                    if r.bn_active > r.logged_bn {
                        expands += 1;
                        ev.push(EngineEvent::Expand {
                            t: now,
                            id: r.job.id,
                            bn: r.bn_active,
                        });
                    } else if r.bn_active < r.logged_bn {
                        shrinks += 1;
                        ev.push(EngineEvent::Shrink {
                            t: now,
                            id: r.job.id,
                            bn: r.bn_active,
                        });
                    }
                    r.logged_bn = r.bn_active;
                }
            }

            // 6. Speeds under the new running set and fabric shares.
            recompute_speeds(&mut running, self.cfg.fabric_capacity_gbs, ck);

            // 7. Next event: earliest of completion, arrival, fault,
            // repair.
            let mut t_next: Option<SimTime> = None;
            let mut consider = |t: SimTime| {
                t_next = Some(match t_next {
                    Some(cur) => cur.min(t),
                    None => t,
                });
            };
            for r in &running {
                consider(now + SimTime::from_secs(r.remaining_secs() / r.speed));
            }
            if let Some(j) = order.get(ai) {
                consider(j.submit);
            }
            if let Some(f) = nf.get(fi) {
                consider(f.at);
            }
            if let Some(&(t, _)) = repairs.first() {
                consider(t);
            }
            let Some(t) = t_next else {
                panic!(
                    "engine stuck at {now}: {} queued jobs cannot ever start \
                     (machine too small or too many nodes down for good)",
                    queue.len()
                );
            };

            // 8. Advance every running job by `dt` at its current speed.
            // The one parallel site: element-wise disjoint writes, so the
            // result is bit-identical for any chunking (thread count).
            let dt = t.saturating_sub(now).as_secs();
            busy_cn += dt * running.iter().map(|r| r.job.cn).sum::<usize>() as f64;
            busy_bn += dt * running.iter().map(|r| r.bn_active).sum::<usize>() as f64;
            let chunks = chunk_ranges(running.len(), threads);
            let slices = split_mut(&mut running, &chunks);
            run_tasks(threads, slices, |chunk| {
                for r in chunk {
                    r.done += SimTime::from_secs(dt * r.speed);
                }
            });
            now = t;
        }

        let denom_cn = makespan.as_secs() * total_cn as f64;
        let denom_bn = makespan.as_secs() * total_bn as f64;
        EngineReport {
            makespan,
            waits,
            cluster_utilization: if denom_cn > 0.0 {
                busy_cn / denom_cn
            } else {
                0.0
            },
            booster_utilization: if denom_bn > 0.0 {
                busy_bn / denom_bn
            } else {
                0.0
            },
            completed,
            starts,
            backfill_starts: backfills,
            requeues,
            faults: faults_n,
            repairs: repairs_n,
            expands,
            shrinks,
            events: ev,
            reservations,
        }
    }
}

impl EngineReport {
    /// The start events of one job, in time order.
    pub fn starts_of(&self, id: u64) -> Vec<SimTime> {
        self.events
            .iter()
            .filter_map(|e| match e {
                EngineEvent::Start { t, id: i, .. } if *i == id => Some(*t),
                _ => None,
            })
            .collect()
    }

    /// Check the EASY invariant against the event log: for every
    /// recorded reservation, the head's next start at or after the
    /// reservation instant must not exceed the promised shadow.
    /// Returns the violations (empty = invariant holds).
    ///
    /// The comparison carries relative slack of a few ulps: the shadow
    /// is computed in one shot (`now + remaining / worst_speed`) while
    /// the completion that actually frees the nodes accumulates
    /// `done += dt * speed` across every intervening event, so the two
    /// mathematically-equal times can differ in the last float digit.
    ///
    /// A reservation is void (not a violation) if a node fault struck
    /// after it was made and before the head started: the promise was
    /// conditioned on the machine the scheduler could see, and a death
    /// shrinks it. The engine re-records a fresh reservation at the
    /// fault event, so voided promises are always superseded.
    pub fn reservation_violations(&self) -> Vec<HeadReservation> {
        let fault_times: Vec<SimTime> = self
            .events
            .iter()
            .filter_map(|e| match e {
                EngineEvent::Fault { t, .. } => Some(*t),
                _ => None,
            })
            .collect();
        self.reservations
            .iter()
            .filter(|r| {
                let slack = 1e-9_f64.max(r.shadow.as_secs() * 1e-9);
                let bound = SimTime::from_secs(r.shadow.as_secs() + slack);
                self.starts_of(r.id)
                    .into_iter()
                    .find(|&s| s >= r.t)
                    .is_some_and(|s| s > bound && !fault_times.iter().any(|&f| f >= r.t && f <= s))
            })
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::JobClass;
    use cluster_booster::SystemBuilder;

    fn system(cn: u32, bn: u32) -> System {
        SystemBuilder::new("t")
            .cluster_nodes(cn)
            .booster_nodes(bn)
            .build()
    }

    fn job(id: u64, cn: usize, bn: usize, dur: f64, submit: f64) -> TraceJob {
        TraceJob {
            id,
            name: format!("j{id}"),
            class: if cn > 0 && bn > 0 {
                JobClass::Combined
            } else if bn > 0 {
                JobClass::BoosterHeavy
            } else {
                JobClass::ClusterHeavy
            },
            cn,
            bn_min: bn,
            bn_max: bn,
            duration: SimTime::from_secs(dur),
            comm_fraction: 0.0,
            fabric_demand_gbs: 0.0,
            submit: SimTime::from_secs(submit),
        }
    }

    fn no_faults() -> FaultPlan {
        FaultPlan::from_node_faults(Vec::<(SimTime, NodeId)>::new())
    }

    #[test]
    fn runs_a_trace_to_completion_and_reports() {
        let trace = vec![job(0, 2, 2, 100.0, 0.0), job(1, 2, 2, 50.0, 0.0)];
        let eng = Engine::new(system(4, 4), EngineConfig::default());
        let r = eng.run(&trace, &no_faults());
        assert_eq!(r.completed, 2);
        assert_eq!(r.starts, 2);
        // Both fit at once; makespan is the longer job.
        assert_eq!(r.makespan, SimTime::from_secs(100.0));
        assert_eq!(r.waits, vec![SimTime::ZERO, SimTime::ZERO]);
        assert!(r.reservation_violations().is_empty());
    }

    #[test]
    fn easy_backfills_short_jobs_without_delaying_the_head() {
        // job0 takes 3 of 4 CN until t=100. job1 (head, needs all 4)
        // must wait for it; its shadow is 100. job2 is too long to slip
        // in front (would hold its CN past the shadow with only 3 free
        // for the 4-wide head); job3 fits entirely inside the hole.
        let trace = vec![
            job(0, 3, 0, 100.0, 0.0),
            job(1, 4, 0, 50.0, 1.0),
            job(2, 1, 0, 500.0, 2.0),
            job(3, 1, 0, 40.0, 3.0),
        ];
        let eng = Engine::new(system(4, 4), EngineConfig::default());
        let r = eng.run(&trace, &no_faults());
        assert_eq!(r.completed, 4);
        assert_eq!(r.starts_of(3), vec![SimTime::from_secs(3.0)]);
        assert_eq!(r.starts_of(1), vec![SimTime::from_secs(100.0)]);
        // job2 must not start before the head.
        assert!(r.starts_of(2)[0] >= SimTime::from_secs(100.0));
        assert_eq!(r.backfill_starts, 1);
        assert!(r.reservation_violations().is_empty());
    }

    #[test]
    fn fifo_never_backfills() {
        let trace = vec![
            job(0, 3, 0, 100.0, 0.0),
            job(1, 4, 0, 50.0, 1.0),
            job(2, 1, 0, 40.0, 2.0),
        ];
        let cfg = EngineConfig {
            discipline: Discipline::Fifo,
            ..EngineConfig::default()
        };
        let r = Engine::new(system(4, 4), cfg).run(&trace, &no_faults());
        assert_eq!(r.backfill_starts, 0);
        assert!(r.starts_of(2)[0] >= r.starts_of(1)[0]);
    }

    #[test]
    fn fault_kills_victim_and_requeues_from_checkpoint() {
        // One job on the whole machine; every node fault hits it. With
        // interval 100 and done ≈ 350·amort at the fault, it resumes
        // from checkpoint floor(done/100)·100 instead of zero.
        let trace = vec![job(0, 2, 4, 1000.0, 0.0)];
        let ckpt = CheckpointPolicy {
            interval: SimTime::from_secs(100.0),
            cost: SimTime::from_secs(5.0),
            schedule: MultiLevelSchedule {
                base_interval: SimTime::from_secs(100.0),
                buddy_every: 2,
                global_every: 4,
            },
        };
        let amort = ckpt.amortization();
        let cfg = EngineConfig {
            ckpt: Some(ckpt),
            repair_after: Some(SimTime::from_secs(50.0)),
            ..EngineConfig::default()
        };
        let faults = FaultPlan::from_node_faults([(SimTime::from_secs(350.0), NodeId(0))]);
        let r = Engine::new(system(2, 4), cfg).run(&trace, &faults);
        assert_eq!(r.faults, 1);
        assert_eq!(r.requeues, 1);
        assert_eq!(r.repairs, 1);
        assert_eq!(r.starts, 2);
        assert_eq!(r.completed, 1);
        let expected_k = (350.0 * amort / 100.0).floor();
        let (resumed, level) = r
            .events
            .iter()
            .find_map(|e| match e {
                EngineEvent::Requeue {
                    resumed_work,
                    level,
                    ..
                } => Some((*resumed_work, *level)),
                _ => None,
            })
            .expect("requeue logged");
        assert_eq!(resumed, SimTime::from_secs(expected_k * 100.0));
        assert!(resumed > SimTime::ZERO);
        // k = 3 under the 5% overhead: an odd checkpoint → Local level.
        assert_eq!(level, Some(CheckpointLevel::Local));
        // The rerun needs the repaired node back: it restarts at the
        // repair instant, not the fault instant.
        assert_eq!(r.starts_of(0)[1], SimTime::from_secs(400.0));
        // Resume saved work: strictly earlier than a from-scratch rerun.
        let scratch = 400.0 + 1000.0 / amort;
        assert!(r.makespan.as_secs() < scratch - 100.0);
    }

    #[test]
    fn fault_without_checkpoint_restarts_from_scratch() {
        let trace = vec![job(0, 2, 4, 1000.0, 0.0)];
        let cfg = EngineConfig {
            repair_after: Some(SimTime::from_secs(10.0)),
            ..EngineConfig::default()
        };
        let faults = FaultPlan::from_node_faults([(SimTime::from_secs(400.0), NodeId(0))]);
        let r = Engine::new(system(2, 4), cfg).run(&trace, &faults);
        let resumed = r
            .events
            .iter()
            .find_map(|e| match e {
                EngineEvent::Requeue { resumed_work, .. } => Some(*resumed_work),
                _ => None,
            })
            .expect("requeue logged");
        assert_eq!(resumed, SimTime::ZERO);
        assert_eq!(r.makespan, SimTime::from_secs(410.0 + 1000.0));
    }

    #[test]
    fn fault_on_idle_node_has_no_victim() {
        let trace = vec![job(0, 1, 0, 100.0, 0.0)];
        let faults = FaultPlan::from_node_faults([(SimTime::from_secs(10.0), NodeId(1))]);
        let r = Engine::new(system(2, 2), EngineConfig::default()).run(&trace, &faults);
        assert_eq!(r.faults, 1);
        assert_eq!(r.requeues, 0);
        assert!(r
            .events
            .iter()
            .any(|e| matches!(e, EngineEvent::Fault { victim: None, .. })));
    }

    #[test]
    fn malleable_jobs_expand_into_idle_booster_and_yield_it_back() {
        // jobA can use 2..8 BN. Alone it grows to 8; when the rigid
        // 4-BN jobB arrives it must shrink back to 4 so B can start.
        let mut a = job(0, 1, 2, 100.0, 0.0);
        a.bn_max = 8;
        let b = job(1, 1, 4, 50.0, 10.0);
        let eng = Engine::new(system(2, 8), EngineConfig::default());
        let r = eng.run(&[a, b], &no_faults());
        assert_eq!(r.completed, 2);
        assert!(r.expands >= 1, "expected an expansion, got {:?}", r.events);
        assert!(r.shrinks >= 1, "expected a shrink, got {:?}", r.events);
        assert!(r
            .events
            .iter()
            .any(|e| matches!(e, EngineEvent::Expand { id: 0, bn: 8, .. })));
        assert!(r
            .events
            .iter()
            .any(|e| matches!(e, EngineEvent::Shrink { id: 0, bn: 4, .. })));
        // B starts the moment it arrives — the shrink is immediate.
        assert_eq!(r.starts_of(1), vec![SimTime::from_secs(10.0)]);
    }

    #[test]
    fn malleable_beats_rigid_on_fragmented_mix() {
        // The adaptive-scheduling claim of §II-A (ref [5]): two jobs that
        // can each use 6 of 8 Booster nodes. Rigid (`bn_min = bn_max`)
        // they cannot share the module and run one after the other;
        // malleable they run side by side at 4 + 4 and finish sooner,
        // though each runs below its full speed.
        let run = |bn_min: usize| {
            let trace: Vec<TraceJob> = (0..2)
                .map(|id| TraceJob {
                    bn_min,
                    ..job(id, 0, 6, 60.0, 0.0)
                })
                .collect();
            Engine::new(system(1, 8), EngineConfig::default()).run(&trace, &no_faults())
        };
        let (rigid, malleable) = (run(6), run(1));
        assert_eq!(rigid.makespan, SimTime::from_secs(120.0));
        assert_eq!(rigid.expands, 0);
        assert!(malleable.expands >= 1);
        assert_eq!(
            malleable.starts_of(1),
            vec![SimTime::ZERO],
            "both admitted at once"
        );
        assert_eq!(malleable.makespan, SimTime::from_secs(90.0));
    }

    #[test]
    fn node_locked_policy_disables_expansion() {
        let mut a = job(0, 1, 2, 100.0, 0.0);
        a.bn_max = 8;
        let cfg = EngineConfig {
            policy: AllocationPolicy::NodeLocked { ratio: 4 },
            ..EngineConfig::default()
        };
        let r = Engine::new(system(2, 8), cfg).run(&[a], &no_faults());
        assert_eq!(r.expands, 0);
        assert_eq!(r.shrinks, 0);
        // Pinned at bn_min = 2 of 8: runs at quarter speed.
        assert_eq!(r.makespan, SimTime::from_secs(400.0));
    }

    #[test]
    fn fabric_contention_slows_combined_jobs() {
        let combined = |id| {
            let mut j = job(id, 1, 4, 100.0, 0.0);
            j.comm_fraction = 0.5;
            j.fabric_demand_gbs = 16.0;
            j
        };
        let trace = vec![combined(0), combined(1)];
        let fast = EngineConfig {
            fabric_capacity_gbs: 32.0,
            ..EngineConfig::default()
        };
        let slow = EngineConfig {
            fabric_capacity_gbs: 8.0,
            ..EngineConfig::default()
        };
        let r_fast = Engine::new(system(2, 8), fast).run(&trace, &no_faults());
        let r_slow = Engine::new(system(2, 8), slow).run(&trace, &no_faults());
        // Full shares: both finish at full speed.
        assert_eq!(r_fast.makespan, SimTime::from_secs(100.0));
        // 8/2 = 4 GB/s each of 16 wanted: sat 0.25, speed 0.625.
        assert_eq!(r_slow.makespan, SimTime::from_secs(160.0));
    }

    #[test]
    fn independent_reservation_beats_node_locked_on_mixed_load() {
        // Cluster-heavy and Booster-heavy jobs submitted together: with
        // independent module reservation they overlap perfectly; with
        // node-locked booster access each 8-BN job drags 4 hosts (all of
        // the Cluster) along and the mix serializes.
        let trace = vec![
            job(0, 4, 0, 100.0, 0.0),
            job(1, 0, 8, 100.0, 0.0),
            job(2, 4, 0, 100.0, 0.1),
            job(3, 0, 8, 100.0, 0.1),
        ];
        let ind = Engine::new(system(4, 8), EngineConfig::default()).run(&trace, &no_faults());
        let locked_cfg = EngineConfig {
            policy: AllocationPolicy::NodeLocked { ratio: 2 },
            ..EngineConfig::default()
        };
        let locked = Engine::new(system(4, 8), locked_cfg).run(&trace, &no_faults());
        assert_eq!(ind.completed, 4);
        assert_eq!(locked.completed, 4);
        assert!(
            ind.makespan < locked.makespan,
            "independent {} vs locked {}",
            ind.makespan,
            locked.makespan
        );
    }

    #[test]
    fn same_engine_same_inputs_is_bit_identical_and_thread_invariant() {
        let cfg = crate::workload::WorkloadConfig::bursty(11, 80, 4, 8);
        let trace = crate::workload::generate(&cfg);
        let faults = FaultPlan::from_node_faults([
            (SimTime::from_secs(900.0), NodeId(1)),
            (SimTime::from_secs(2500.0), NodeId(6)),
        ]);
        let mut reports = Vec::new();
        for threads in [1usize, 2, 4] {
            let cfg = EngineConfig {
                threads,
                ..EngineConfig::default()
            };
            reports.push(Engine::new(system(4, 8), cfg).run(&trace, &faults));
        }
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[0], reports[2]);
        assert_eq!(reports[0].completed, trace.len());
        assert!(reports[0].reservation_violations().is_empty());
    }
}
