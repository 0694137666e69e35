//! The scheduler: one virtual-time event loop over `core`'s resource
//! manager, driving anything from a hand-written mix of rigid jobs to a
//! production trace of heterogeneous ones to completion. It is the only
//! scheduler event loop in the workspace.
//!
//! ## Model
//!
//! A job carries *work* (its runtime at full speed); a running job
//! advances `done += dt * speed` between events, where `speed ≤ 1`
//! composes three factors:
//!
//! * **size** — a malleable Booster job running on `bn` of its `bn_max`
//!   nodes progresses at `bn / bn_max` (the equi-partition fluid model of
//!   DEEP's adaptive batch system, paper §II-A ref \[5\]);
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
//! The loop is sequential from end to end and iterates only ordered
//! structures, so the schedule is bit-identical on any host;
//! [`EngineConfig::threads`] is accepted and changes nothing.

use crate::easy::{shadow_start, surplus_at, RunningView};
use crate::workload::TraceJob;
use cluster_booster::resources::{Allocation, AllocationPolicy, LockedPools, ResourceManager};
use cluster_booster::System;
use hwmodel::{NodeId, SimTime};
use scr::{CheckpointLevel, MultiLevelSchedule};
use simnet::{max_min_shares_into, FaultPlan};
use std::collections::{BTreeMap, VecDeque};

/// Completion slack in work-seconds: a job is done when its remaining
/// work drops below this (floating-point accumulation guard).
const WORK_EPS: f64 = 1e-6;

/// Aggregate fabric bandwidth shared by combined jobs, GB/s.
const FABRIC_CAPACITY_GBS: f64 = 32.0;

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
    /// Allocation policy (the paper's independent-vs-node-locked axis).
    pub policy: AllocationPolicy,
    /// Checkpointing; `None` means faults restart victims from scratch.
    pub ckpt: Option<CheckpointPolicy>,
    /// Accepted and without effect: the engine is one sequential loop, so
    /// its schedule cannot depend on a host thread count.
    pub threads: usize,
    /// How long a downed node stays quarantined; `None` = forever.
    pub repair_after: Option<SimTime>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            policy: AllocationPolicy::Independent,
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
struct Queued<'a> {
    job: &'a TraceJob,
    queued_at: SimTime,
    /// Work already banked (checkpoint resume floor).
    done: SimTime,
    /// How long it runs at worst from whenever it starts: the work left
    /// over [`worst_speed`]. Neither moves while it waits.
    worst: SimTime,
}

/// A running job.
struct Run<'a> {
    job: &'a TraceJob,
    /// The nodes it started on; in an instant a fault strikes, also the
    /// Booster nodes behind its expansion ([`draw_ids`]).
    alloc: Allocation,
    /// Booster nodes the job is actually using (`bn_min` + dealt).
    bn_active: usize,
    /// `bn_active` as last logged to the event stream.
    logged_bn: usize,
    /// Work completed.
    done: SimTime,
    /// Current progress rate (recomputed at every event).
    speed: f64,
    /// [`worst_speed`] of the job.
    worst_speed: f64,
    /// Fabric factor of `speed`: `(1-f) + f·x` at the job's current share,
    /// `1` without fabric demand. Moves only with the running set.
    fabric: f64,
}

impl Run<'_> {
    fn remaining_secs(&self) -> f64 {
        self.job.duration.saturating_sub(self.done).as_secs()
    }

    fn holds(&self, node: NodeId) -> bool {
        self.alloc.cluster.contains(&node) || self.alloc.booster.contains(&node)
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

/// Deal `free` idle Booster nodes to the jobs still under `bn_max`, as
/// counts: whole rounds while every taker wants one more and the pool
/// covers a round, then the remainder to the first takers in running
/// order. The closed form of one node per job per round.
fn deal_counts(running: &mut [Run<'_>], mut free: usize) {
    while free > 0 {
        let (takers, least) = running
            .iter()
            .filter(|r| r.bn_active < r.job.bn_max)
            .fold((0, usize::MAX), |(k, least), r| {
                (k + 1, least.min(r.job.bn_max - r.bn_active))
            });
        if takers == 0 {
            break;
        }
        let rounds = least.min(free / takers);
        let (each, served) = if rounds > 0 {
            (rounds, takers)
        } else {
            (1, free)
        };
        for r in running
            .iter_mut()
            .filter(|r| r.bn_active < r.job.bn_max)
            .take(served)
        {
            r.bn_active += each;
        }
        free -= each * served;
    }
}

/// Name the nodes behind the dealt counts: one node per job per round in
/// running order, lowest free id first, until every allocation is as long
/// as its count — the deal order that decides whom a fault kills.
fn draw_ids(running: &mut [Run<'_>], pools: &mut LockedPools<'_>) {
    let mut drew = true;
    while drew {
        drew = false;
        for r in running
            .iter_mut()
            .filter(|r| r.alloc.booster.len() < r.bn_active)
        {
            pools
                .grow(&mut r.alloc, 1)
                .expect("dealt from the free count");
            drew = true;
        }
    }
}

/// Everything one [`Engine::run`] mutates between events: the machine,
/// the clock, the queue and running set, and the logs the report is
/// built from.
struct State<'a> {
    cfg: &'a EngineConfig,
    /// Checkpoint amortization factor (1 without a policy).
    ck: f64,
    rm: ResourceManager,
    now: SimTime,
    /// Waiting jobs, ascending `(queued_at, id)`.
    queue: Vec<Queued<'a>>,
    /// What each queued job takes from the pools (`rm.effective`), index
    /// for index and packed by itself: all the backfill scan reads of a
    /// job that does not fit.
    needs: Vec<(u32, u32)>,
    running: Vec<Run<'a>>,
    /// Whether the allocations hold the ids of their expansions
    /// ([`draw_ids`]) for the next reclaim to give back.
    ids_drawn: bool,
    /// Whether a fabric job joined or left `running` since its fabric
    /// factors were computed.
    fabric_stale: bool,
    /// Buffers of [`State::share_fabric`] and of the blocked-head pass.
    demands: Vec<f64>,
    order: Vec<usize>,
    shares: Vec<f64>,
    views: Vec<RunningView>,
    /// Booked repairs, ascending `(time, node)`.
    repairs: VecDeque<(SimTime, NodeId)>,
    events: Vec<EngineEvent>,
    reservations: Vec<HeadReservation>,
    waits: Vec<SimTime>,
    /// Node-seconds of requested CN / active BN so far.
    busy_cn: f64,
    busy_bn: f64,
}

impl<'a> State<'a> {
    /// Queue `job` at its `(queued_at, id)` place with `done` banked.
    fn enqueue(&mut self, job: &'a TraceJob, queued_at: SimTime, done: SimTime) {
        let at = self
            .queue
            .partition_point(|o| (o.queued_at, o.job.id) <= (queued_at, job.id));
        let (cn, bn) = self.rm.effective(job.cn, job.bn_min);
        let packed = |n: usize| u32::try_from(n).expect("node counts fit a node id");
        self.needs.insert(at, (packed(cn), packed(bn)));
        let left = job.duration.saturating_sub(done).as_secs();
        self.queue.insert(
            at,
            Queued {
                job,
                queued_at,
                done,
                worst: SimTime::from_secs(left / worst_speed(job, self.ck)),
            },
        );
    }

    /// What `queue[i]` takes from the pools.
    fn need(&self, i: usize) -> (usize, usize) {
        let (cn, bn) = self.needs[i];
        (cn as usize, bn as usize)
    }

    /// Retire every running job whose work is done; returns how many.
    fn complete_finished(&mut self) -> usize {
        let mut finished = 0;
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].remaining_secs() <= WORK_EPS {
                let r = self.running.remove(i);
                self.fabric_stale |= r.job.fabric_demand_gbs > 0.0;
                self.rm.release(&r.alloc).expect("release finished job");
                self.events.push(EngineEvent::Complete {
                    t: self.now,
                    id: r.job.id,
                });
                finished += 1;
            } else {
                i += 1;
            }
        }
        finished
    }

    /// A node dies: quarantine it, kill the job holding it and requeue
    /// that job from its checkpoint floor, and book the repair.
    fn fault(&mut self, node: NodeId) {
        self.rm.mark_down(node);
        let victim = self.running.iter().position(|r| r.holds(node));
        self.events.push(EngineEvent::Fault {
            t: self.now,
            node,
            victim: victim.map(|i| self.running[i].job.id),
        });
        if let Some(i) = victim {
            let r = self.running.remove(i);
            self.fabric_stale |= r.job.fabric_demand_gbs > 0.0;
            self.rm.release(&r.alloc).expect("release fault victim");
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
            self.events.push(EngineEvent::Requeue {
                t: self.now,
                id: r.job.id,
                resumed_work: resumed,
                level,
            });
            self.enqueue(r.job, self.now, resumed);
        }
        if let Some(d) = self.cfg.repair_after {
            let at = self.now + d;
            let pos = self
                .repairs
                .partition_point(|&(t, n)| (t, n.0) <= (at, node.0));
            self.repairs.insert(pos, (at, node));
        }
    }

    /// Return every node whose repair is due.
    fn repair_due(&mut self) {
        while self.repairs.front().is_some_and(|&(t, _)| t <= self.now) {
            let (_, n) = self.repairs.pop_front().expect("checked front");
            if self.rm.mark_up(n) {
                self.events.push(EngineEvent::Repair {
                    t: self.now,
                    node: n,
                });
            }
        }
    }

    fn arrive(&mut self, j: &'a TraceJob) {
        self.events.push(EngineEvent::Arrival {
            t: j.submit,
            id: j.id,
        });
        self.enqueue(j, j.submit, SimTime::ZERO);
    }

    /// Allocate and start `queue[i]` now.
    fn start(&mut self, i: usize, backfill: bool) {
        let q = self.queue.remove(i);
        self.needs.remove(i);
        let alloc = self
            .rm
            .allocate(q.job.cn, q.job.bn_min)
            .expect("checked fit");
        self.waits.push(self.now.saturating_sub(q.queued_at));
        let bn_active = q.job.bn_min;
        self.events.push(EngineEvent::Start {
            t: self.now,
            id: q.job.id,
            cn: q.job.cn,
            bn: bn_active,
            backfill,
        });
        self.fabric_stale |= q.job.fabric_demand_gbs > 0.0;
        self.running.push(Run {
            alloc,
            bn_active,
            logged_bn: bn_active,
            done: q.done,
            speed: 1.0,
            worst_speed: worst_speed(q.job, self.ck),
            fabric: 1.0,
            job: q.job,
        });
    }

    /// Start what the queue order and EASY backfill allow. Malleable
    /// expansions are reclaimed first — the head (and any arrival)
    /// outranks grown jobs; [`State::regrow`] hands back what stays idle.
    /// An expansion is a count, so reclaiming it touches the pools only
    /// when this instant's fault had its ids drawn. The pools are read
    /// once: every start below takes exactly the need it was tested with.
    fn schedule(&mut self) {
        if std::mem::take(&mut self.ids_drawn) {
            let mut pools = self.rm.lock();
            for r in self
                .running
                .iter_mut()
                .filter(|r| r.bn_active > r.job.bn_min)
            {
                pools
                    .shrink(&mut r.alloc, r.job.bn_min)
                    .expect("reclaim expansion");
            }
        }
        for r in self.running.iter_mut() {
            r.bn_active = r.job.bn_min;
        }
        let (mut free_cn, mut free_bn) = (self.rm.free_cluster(), self.rm.free_booster());
        while !self.queue.is_empty() {
            let (cn, bn) = self.need(0);
            if cn > free_cn || bn > free_bn {
                break;
            }
            self.start(0, false);
            (free_cn, free_bn) = (free_cn - cn, free_bn - bn);
        }
        // Head blocked: compute and record its reservation.
        let Some(head) = self.queue.first() else {
            return;
        };
        let (need_cn, need_bn) = self.need(0);
        let now = self.now;
        self.views.clear();
        self.views.extend(self.running.iter().map(|r| RunningView {
            cn: r.alloc.cluster.len(),
            bn: r.alloc.booster.len(),
            end: now + SimTime::from_secs(r.remaining_secs() / r.worst_speed),
        }));
        let reservation = HeadReservation {
            t: now,
            id: head.job.id,
            shadow: shadow_start(free_cn, free_bn, need_cn, need_bn, &mut self.views, now),
        };
        let shadow = reservation.shadow;
        self.reservations.push(reservation);
        // EASY backfill: admit, in queue order, every later job that ends
        // by the shadow at worst or leaves the head its nodes then. One
        // scan serves every admission: a start only lowers what is free
        // now and spare at the shadow, so it moves neither the shadow nor
        // an earlier rejection (DESIGN.md §3.10).
        let (mut spare_cn, mut spare_bn) = surplus_at(free_cn, free_bn, &self.views, shadow);
        let mut i = 1;
        while i < self.queue.len() {
            let (cn, bn) = self.need(i);
            if cn <= free_cn && bn <= free_bn {
                let released = now + self.queue[i].worst <= shadow;
                if released || (spare_cn >= need_cn + cn && spare_bn >= need_bn + bn) {
                    self.start(i, true);
                    (free_cn, free_bn) = (free_cn - cn, free_bn - bn);
                    if !released {
                        (spare_cn, spare_bn) = (spare_cn - cn, spare_bn - bn);
                    }
                    self.reservations.push(reservation);
                    continue;
                }
            }
            i += 1;
        }
    }

    /// Hand idle Booster nodes back to malleable jobs, one node per job
    /// per round in running order (equi-partition growth: the deal order
    /// decides which job holds which node, hence whom a fault kills), then
    /// log net size changes against the last logged size. The deal is of
    /// counts ([`deal_counts`]); the pools are read, not written.
    /// Independent reservation only: a node-locked Booster node cannot
    /// leave its host, and the pools report none free to grow into.
    fn regrow(&mut self) {
        let free = self.rm.lock().free_to_grow();
        deal_counts(&mut self.running, free);
        for r in self.running.iter_mut() {
            if r.bn_active > r.logged_bn {
                self.events.push(EngineEvent::Expand {
                    t: self.now,
                    id: r.job.id,
                    bn: r.bn_active,
                });
            } else if r.bn_active < r.logged_bn {
                self.events.push(EngineEvent::Shrink {
                    t: self.now,
                    id: r.job.id,
                    bn: r.bn_active,
                });
            }
            r.logged_bn = r.bn_active;
        }
    }

    /// Recompute the fabric factor of every running fabric job from its
    /// max-min fair share.
    fn share_fabric(&mut self) {
        let fabric_jobs = |r: &&mut Run<'a>| r.job.fabric_demand_gbs > 0.0;
        self.demands.clear();
        self.demands.extend(
            (self.running.iter())
                .map(|r| r.job.fabric_demand_gbs)
                .filter(|&d| d > 0.0),
        );
        max_min_shares_into(
            &self.demands,
            FABRIC_CAPACITY_GBS,
            &mut self.order,
            &mut self.shares,
        );
        for (r, share) in (self.running.iter_mut().filter(fabric_jobs)).zip(&self.shares) {
            let sat = (share / r.job.fabric_demand_gbs).min(1.0);
            r.fabric = (1.0 - r.job.comm_fraction) + r.job.comm_fraction * sat;
        }
    }

    /// Recompute every running job's speed from its current size and its
    /// fabric factor, the latter first if the running set changed.
    fn respeed(&mut self) {
        if std::mem::take(&mut self.fabric_stale) {
            self.share_fabric();
        }
        for r in self.running.iter_mut() {
            let size = if r.job.bn_max > 0 {
                r.bn_active as f64 / r.job.bn_max as f64
            } else {
                1.0
            };
            r.speed = size * r.fabric * self.ck;
            debug_assert!(r.speed > 0.0, "job {} stalled", r.job.id);
        }
    }

    /// Move the clock to `t`, every running job progressing at its
    /// current speed.
    fn advance_to(&mut self, t: SimTime) {
        let dt = t.saturating_sub(self.now).as_secs();
        let (mut cn, mut bn) = (0, 0);
        for r in self.running.iter_mut() {
            (cn, bn) = (cn + r.job.cn, bn + r.bn_active);
            r.done += SimTime::from_secs(dt * r.speed);
        }
        self.busy_cn += dt * cn as f64;
        self.busy_bn += dt * bn as f64;
        self.now = t;
    }
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

    /// Drive `trace` to completion under `faults`. Reentrant: each call
    /// builds a fresh resource manager, so the same engine can replay
    /// the same trace bit-identically.
    pub fn run(&self, trace: &[TraceJob], faults: &FaultPlan) -> EngineReport {
        for j in trace {
            assert!(
                j.bn_min <= j.bn_max && (j.bn_min > 0 || j.bn_max == 0),
                "job {}: bn_min {} must lie in 1..=bn_max {} (0 only with bn_max 0)",
                j.id,
                j.bn_min,
                j.bn_max
            );
            assert!(
                j.fabric_demand_gbs <= 0.0 || (0.0..1.0).contains(&j.comm_fraction),
                "job {}: comm_fraction {} of a fabric job must lie in [0, 1)",
                j.id,
                j.comm_fraction
            );
        }
        let ck = self.cfg.ckpt.as_ref().map_or(1.0, |c| c.amortization());
        let mut s = State {
            cfg: &self.cfg,
            ck,
            rm: ResourceManager::with_policy(&self.system, self.cfg.policy),
            now: SimTime::ZERO,
            queue: Vec::new(),
            needs: Vec::new(),
            running: Vec::new(),
            ids_drawn: false,
            fabric_stale: false,
            demands: Vec::new(),
            order: Vec::new(),
            shares: Vec::new(),
            views: Vec::new(),
            repairs: VecDeque::new(),
            events: Vec::new(),
            reservations: Vec::new(),
            waits: Vec::new(),
            busy_cn: 0.0,
            busy_bn: 0.0,
        };
        // Arrival order: (submit, id) — the pinned scheduler tie-break.
        let mut order: Vec<&TraceJob> = trace.iter().collect();
        order.sort_by(|a, b| a.submit.cmp(&b.submit).then(a.id.cmp(&b.id)));
        let nf = faults.node_faults();
        let (mut ai, mut fi) = (0usize, 0usize);
        let mut completed = 0usize;

        loop {
            // A fault due at `now` asks which nodes the jobs held when the
            // clock got here: give every expansion its ids, as the previous
            // event dealt them, before anything of this instant moves the
            // pools. `schedule` takes them back.
            if nf.get(fi).is_some_and(|f| f.at <= s.now) {
                draw_ids(&mut s.running, &mut s.rm.lock());
                s.ids_drawn = true;
            }
            // Everything due at `now`, in this order: completions, faults,
            // repairs, arrivals.
            completed += s.complete_finished();
            if completed == trace.len() {
                break;
            }
            while fi < nf.len() && nf[fi].at <= s.now {
                s.fault(nf[fi].node);
                fi += 1;
            }
            s.repair_due();
            while ai < order.len() && order[ai].submit <= s.now {
                s.arrive(order[ai]);
                ai += 1;
            }

            s.schedule();
            s.regrow();
            s.respeed();

            // Next event: earliest of completion, arrival, fault, repair.
            let completions = s
                .running
                .iter()
                .map(|r| s.now + SimTime::from_secs(r.remaining_secs() / r.speed));
            let next = completions
                .chain(order.get(ai).map(|j| j.submit))
                .chain(nf.get(fi).map(|f| f.at))
                .chain(s.repairs.front().map(|&(t, _)| t))
                .min();
            let Some(t) = next else {
                panic!(
                    "engine stuck at {}: {} queued jobs cannot ever start \
                     (machine too small or too many nodes down for good)",
                    s.now,
                    s.queue.len()
                );
            };
            s.advance_to(t);
        }

        // The loop ends on the last completion, so the clock is the
        // makespan; every other counter is a tally of the event log.
        let makespan = s.now;
        let (total_cn, total_bn) = s.rm.totals();
        let utilization = |busy: f64, total: usize| {
            let denom = makespan.as_secs() * total as f64;
            if denom > 0.0 {
                busy / denom
            } else {
                0.0
            }
        };
        let count = |kind: fn(&EngineEvent) -> bool| s.events.iter().filter(|e| kind(e)).count();
        EngineReport {
            makespan,
            cluster_utilization: utilization(s.busy_cn, total_cn),
            booster_utilization: utilization(s.busy_bn, total_bn),
            completed,
            starts: count(|e| matches!(e, EngineEvent::Start { .. })),
            backfill_starts: count(|e| matches!(e, EngineEvent::Start { backfill: true, .. })),
            requeues: count(|e| matches!(e, EngineEvent::Requeue { .. })),
            faults: count(|e| matches!(e, EngineEvent::Fault { .. })),
            repairs: count(|e| matches!(e, EngineEvent::Repair { .. })),
            expands: count(|e| matches!(e, EngineEvent::Expand { .. })),
            shrinks: count(|e| matches!(e, EngineEvent::Shrink { .. })),
            waits: s.waits,
            events: s.events,
            reservations: s.reservations,
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
        // One pass over the log: start times per job and fault times, both
        // ascending because the log is.
        let mut starts: BTreeMap<u64, Vec<SimTime>> = BTreeMap::new();
        let mut fault_times: Vec<SimTime> = Vec::new();
        for e in &self.events {
            match e {
                EngineEvent::Start { t, id, .. } => starts.entry(*id).or_default().push(*t),
                EngineEvent::Fault { t, .. } => fault_times.push(*t),
                _ => {}
            }
        }
        self.reservations
            .iter()
            .filter(|r| {
                let slack = 1e-9_f64.max(r.shadow.as_secs() * 1e-9);
                let bound = SimTime::from_secs(r.shadow.as_secs() + slack);
                starts
                    .get(&r.id)
                    .and_then(|of_job| of_job.iter().find(|&&s| s >= r.t))
                    .is_some_and(|&s| s > bound && !fault_times.iter().any(|&f| f >= r.t && f <= s))
            })
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_booster::SystemBuilder;
    use proptest::prelude::*;

    fn system(cn: u32, bn: u32) -> System {
        SystemBuilder::new("t")
            .cluster_nodes(cn)
            .booster_nodes(bn)
            .build()
    }

    fn s(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn job(id: u64, cn: usize, bn: usize, dur: f64, submit: f64) -> TraceJob {
        TraceJob::rigid(id, format!("j{id}"), cn, bn, s(dur), s(submit))
    }

    /// One rigid job mix and what the engine must make of it.
    struct Mix {
        name: &'static str,
        machine: (u32, u32),
        policy: AllocationPolicy,
        /// `(id, cn, bn, duration, submit)`, in submission-call order.
        jobs: Vec<(u64, usize, usize, f64, f64)>,
        /// `(id, start, end)` of every job.
        spans: Vec<(u64, f64, f64)>,
        makespan: f64,
        mean_wait: f64,
        backfills: usize,
        /// `(cluster, booster)` utilization, where the mix pins it.
        utilization: Option<(f64, f64)>,
    }

    /// The classic batch-scheduler cases, on the 16 CN + 8 BN prototype
    /// shape unless the row says otherwise.
    fn mixes() -> Vec<Mix> {
        const PROTO: (u32, u32) = (16, 8);
        let independent = AllocationPolicy::Independent;
        let locked = AllocationPolicy::NodeLocked { ratio: 1 };
        vec![
            Mix {
                name: "a single job runs immediately",
                machine: PROTO,
                policy: independent,
                jobs: vec![(0, 4, 2, 10.0, 0.0)],
                spans: vec![(0, 0.0, 10.0)],
                makespan: 10.0,
                mean_wait: 0.0,
                backfills: 0,
                utilization: None,
            },
            // The paper's throughput argument for independent allocation:
            // a Cluster-only and a Booster-only job share the machine.
            Mix {
                name: "complementary jobs co-schedule",
                machine: PROTO,
                policy: independent,
                jobs: vec![(0, 16, 0, 100.0, 0.0), (1, 0, 8, 100.0, 0.0)],
                spans: vec![(0, 0.0, 100.0), (1, 0.0, 100.0)],
                makespan: 100.0,
                mean_wait: 0.0,
                backfills: 0,
                utilization: None,
            },
            // Under the accelerated-cluster policy the same two jobs
            // contend for host nodes and serialize.
            Mix {
                name: "node-locked policy serializes the same mix",
                machine: (16, 16),
                policy: locked,
                jobs: vec![(0, 16, 0, 100.0, 0.0), (1, 0, 16, 100.0, 0.0)],
                spans: vec![(0, 0.0, 100.0), (1, 100.0, 200.0)],
                makespan: 200.0,
                mean_wait: 50.0,
                backfills: 0,
                utilization: None,
            },
            // Job 0 holds the whole Cluster, the head needs it all, and
            // a small short Booster job slips in at once.
            Mix {
                name: "a blocked head lets a short job backfill",
                machine: PROTO,
                policy: independent,
                jobs: vec![
                    (0, 16, 0, 100.0, 0.0),
                    (1, 16, 0, 10.0, 1.0),
                    (2, 0, 2, 5.0, 2.0),
                ],
                spans: vec![(0, 0.0, 100.0), (1, 100.0, 110.0), (2, 2.0, 7.0)],
                makespan: 110.0,
                mean_wait: 33.0,
                backfills: 1,
                utilization: None,
            },
            // A long small Cluster job would hold CN past the shadow: it
            // waits, and the head starts exactly at its shadow time.
            Mix {
                name: "backfill does not delay the head",
                machine: PROTO,
                policy: independent,
                jobs: vec![
                    (0, 16, 0, 50.0, 0.0),
                    (1, 16, 0, 10.0, 1.0),
                    (2, 4, 0, 500.0, 2.0),
                ],
                spans: vec![(0, 0.0, 50.0), (1, 50.0, 60.0), (2, 60.0, 560.0)],
                makespan: 560.0,
                mean_wait: 107.0 / 3.0,
                backfills: 0,
                utilization: None,
            },
            // A Booster job does not touch the head's Cluster
            // reservation: it backfills even though it is long.
            Mix {
                name: "backfill on the other module is free",
                machine: PROTO,
                policy: independent,
                jobs: vec![
                    (0, 16, 0, 50.0, 0.0),
                    (1, 16, 0, 10.0, 1.0),
                    (2, 0, 8, 500.0, 2.0),
                ],
                spans: vec![(0, 0.0, 50.0), (1, 50.0, 60.0), (2, 2.0, 502.0)],
                makespan: 502.0,
                mean_wait: 49.0 / 3.0,
                backfills: 1,
                utilization: None,
            },
            // 8 of 16 CN busy for the whole makespan.
            Mix {
                name: "utilization accounting",
                machine: PROTO,
                policy: independent,
                jobs: vec![(0, 8, 0, 10.0, 0.0)],
                spans: vec![(0, 0.0, 10.0)],
                makespan: 10.0,
                mean_wait: 0.0,
                backfills: 0,
                utilization: Some((0.5, 0.0)),
            },
            Mix {
                name: "submit times are respected",
                machine: PROTO,
                policy: independent,
                jobs: vec![(0, 1, 0, 5.0, 42.0)],
                spans: vec![(0, 42.0, 47.0)],
                makespan: 47.0,
                mean_wait: 0.0,
                backfills: 0,
                utilization: None,
            },
            // Three whole-machine jobs at t = 0, handed over out of id
            // order: the `(submit, id)` tie-break starts them 1, 5, 9.
            Mix {
                name: "equal submit times start in id order",
                machine: PROTO,
                policy: independent,
                jobs: vec![
                    (9, 16, 8, 10.0, 0.0),
                    (1, 16, 8, 10.0, 0.0),
                    (5, 16, 8, 10.0, 0.0),
                ],
                spans: vec![(1, 0.0, 10.0), (5, 10.0, 20.0), (9, 20.0, 30.0)],
                makespan: 30.0,
                mean_wait: 10.0,
                backfills: 0,
                utilization: None,
            },
            Mix {
                name: "mean wait is positive under contention",
                machine: PROTO,
                policy: independent,
                jobs: vec![(0, 16, 8, 10.0, 0.0), (1, 16, 8, 10.0, 0.0)],
                spans: vec![(0, 0.0, 10.0), (1, 10.0, 20.0)],
                makespan: 20.0,
                mean_wait: 5.0, // (0 + 10) / 2
                backfills: 0,
                utilization: None,
            },
            // Node-locked, the Booster-only job drags a host along: the
            // backfill check must charge it `(1, 1)`, not the `(0, 1)` it
            // asked for, or it takes the fourth CN the head is waiting
            // for and holds the head back from t = 100 to t = 502 (what
            // the batch loop `core` used to carry did).
            Mix {
                name: "a node-locked backfill is charged its dragged host",
                machine: (4, 4),
                policy: locked,
                jobs: vec![
                    (0, 3, 0, 100.0, 0.0),
                    (1, 4, 0, 50.0, 1.0),
                    (2, 0, 1, 500.0, 2.0),
                ],
                spans: vec![(0, 0.0, 100.0), (1, 100.0, 150.0), (2, 150.0, 650.0)],
                makespan: 650.0,
                mean_wait: 247.0 / 3.0,
                backfills: 0,
                utilization: None,
            },
        ]
    }

    #[test]
    fn rigid_mixes_schedule_as_the_table_says() {
        for m in mixes() {
            let trace: Vec<TraceJob> = m
                .jobs
                .iter()
                .map(|&(id, cn, bn, dur, submit)| job(id, cn, bn, dur, submit))
                .collect();
            let cfg = EngineConfig {
                policy: m.policy,
                ..EngineConfig::default()
            };
            let r =
                Engine::new(system(m.machine.0, m.machine.1), cfg).run(&trace, &FaultPlan::new());
            assert_eq!(r.completed, trace.len(), "{}", m.name);
            for &(id, start, end) in &m.spans {
                let done = r.events.iter().find_map(|e| match e {
                    EngineEvent::Complete { t, id: i } if *i == id => Some(*t),
                    _ => None,
                });
                assert_eq!(r.starts_of(id), vec![s(start)], "{}: job {id}", m.name);
                assert_eq!(done, Some(s(end)), "{}: job {id}", m.name);
            }
            assert_eq!(r.makespan, s(m.makespan), "{}", m.name);
            let mean_wait = r.waits.iter().copied().sum::<SimTime>() / r.waits.len() as f64;
            assert_eq!(mean_wait, s(m.mean_wait), "{}", m.name);
            assert_eq!(r.backfill_starts, m.backfills, "{}", m.name);
            if let Some(u) = m.utilization {
                assert_eq!(
                    (r.cluster_utilization, r.booster_utilization),
                    u,
                    "{}",
                    m.name
                );
            }
            assert!(r.reservation_violations().is_empty(), "{}", m.name);
        }
    }

    #[test]
    #[should_panic(expected = "engine stuck")]
    fn oversized_job_panics() {
        Engine::new(system(16, 8), EngineConfig::default())
            .run(&[job(0, 17, 0, 5.0, 0.0)], &FaultPlan::new());
    }

    #[test]
    #[should_panic(expected = "job 3: bn_min 5")]
    fn a_job_with_bn_min_over_bn_max_fails_at_the_door() {
        let bad = TraceJob {
            bn_min: 5,
            ..job(3, 1, 4, 5.0, 9.0)
        };
        Engine::new(system(16, 8), EngineConfig::default())
            .run(&[job(0, 1, 0, 5.0, 0.0), bad], &FaultPlan::new());
    }

    #[test]
    #[should_panic(expected = "job 1: comm_fraction 1")]
    fn a_fabric_job_that_only_communicates_fails_at_the_door() {
        let bad = TraceJob {
            comm_fraction: 1.0,
            fabric_demand_gbs: 4.0,
            ..job(1, 1, 1, 5.0, 0.0)
        };
        Engine::new(system(16, 8), EngineConfig::default()).run(&[bad], &FaultPlan::new());
    }

    #[test]
    fn runs_a_trace_to_completion_and_reports() {
        let trace = vec![job(0, 2, 2, 100.0, 0.0), job(1, 2, 2, 50.0, 0.0)];
        let eng = Engine::new(system(4, 4), EngineConfig::default());
        let r = eng.run(&trace, &FaultPlan::new());
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
        let r = eng.run(&trace, &FaultPlan::new());
        assert_eq!(r.completed, 4);
        assert_eq!(r.starts_of(3), vec![SimTime::from_secs(3.0)]);
        assert_eq!(r.starts_of(1), vec![SimTime::from_secs(100.0)]);
        // job2 must not start before the head.
        assert!(r.starts_of(2)[0] >= SimTime::from_secs(100.0));
        assert_eq!(r.backfill_starts, 1);
        assert!(r.reservation_violations().is_empty());
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
    fn fault_on_an_expansion_node_kills_its_holder_and_quarantines_the_node() {
        // The job starts on the 2 lowest Booster nodes and grows into all
        // 8; the highest is one it grew into. Its death kills the job, and
        // the rerun finds only 7 until the repair: the node left the
        // released allocation for the down set, not the free pool.
        let sys = system(1, 8);
        let last = *sys.booster_nodes().last().expect("8 BN");
        let mut a = job(0, 1, 2, 1000.0, 0.0);
        a.bn_max = 8;
        let cfg = EngineConfig {
            repair_after: Some(s(50.0)),
            ..EngineConfig::default()
        };
        let faults = FaultPlan::from_node_faults([(s(10.0), last)]);
        let r = Engine::new(sys, cfg).run(&[a], &faults);
        let sizes: Vec<(SimTime, usize)> = r
            .events
            .iter()
            .filter_map(|e| match e {
                EngineEvent::Expand { t, id: 0, bn } => Some((*t, *bn)),
                _ => None,
            })
            .collect();
        assert_eq!(sizes, vec![(s(0.0), 8), (s(10.0), 7), (s(60.0), 8)]);
        assert!(r.events.contains(&EngineEvent::Fault {
            t: s(10.0),
            node: last,
            victim: Some(0)
        }));
        assert!(r.events.contains(&EngineEvent::Repair {
            t: s(60.0),
            node: last
        }));
        assert_eq!((r.requeues, r.starts, r.completed), (1, 2, 1));
    }

    #[test]
    fn a_fault_sees_the_ids_dealt_before_its_instants_completions() {
        // Job 0 holds the two lowest Booster nodes until t = 10; job 1
        // starts on the third and is dealt the other five. The highest
        // dies at t = 10: job 1 held it when the clock got there. Drawn
        // after job 0's release, job 1's five would be the lowest free
        // ids — job 0's two among them — and the dead node nobody's.
        let sys = system(2, 8);
        let last = *sys.booster_nodes().last().expect("8 BN");
        let b = TraceJob {
            bn_min: 1,
            ..job(1, 1, 8, 1000.0, 0.0)
        };
        let faults = FaultPlan::from_node_faults([(s(10.0), last)]);
        let cfg = EngineConfig {
            repair_after: None,
            ..EngineConfig::default()
        };
        let r = Engine::new(sys, cfg).run(&[job(0, 1, 2, 10.0, 0.0), b], &faults);
        let first = (r.events.iter())
            .position(|e| matches!(e, EngineEvent::Complete { .. }))
            .expect("job 0 completes");
        assert_eq!(
            r.events[first..first + 5],
            [
                EngineEvent::Complete { t: s(10.0), id: 0 },
                EngineEvent::Fault {
                    t: s(10.0),
                    node: last,
                    victim: Some(1)
                },
                EngineEvent::Requeue {
                    t: s(10.0),
                    id: 1,
                    resumed_work: SimTime::ZERO,
                    level: None
                },
                EngineEvent::Start {
                    t: s(10.0),
                    id: 1,
                    cn: 1,
                    bn: 1,
                    backfill: false
                },
                // Seven serviceable nodes are left, all its own.
                EngineEvent::Expand {
                    t: s(10.0),
                    id: 1,
                    bn: 7
                },
            ]
        );
    }

    #[test]
    fn a_fault_on_a_node_dealt_to_nobody_only_shortens_the_next_deal() {
        // Job 0 runs on 2 of 8 Booster nodes and is dealt 2 more: the
        // four lowest. The seventh dies idle; nobody is killed, and when
        // job 1 takes 4 at t = 20 only 1 of the 5 left is job 0's to keep.
        let sys = system(2, 8);
        let idle = sys.booster_nodes()[6];
        let a = TraceJob {
            bn_min: 2,
            ..job(0, 1, 4, 1000.0, 0.0)
        };
        let faults = FaultPlan::from_node_faults([(s(10.0), idle)]);
        let cfg = EngineConfig {
            repair_after: None,
            ..EngineConfig::default()
        };
        let r = Engine::new(sys, cfg).run(&[a, job(1, 1, 4, 50.0, 20.0)], &faults);
        assert!(r.events.contains(&EngineEvent::Fault {
            t: s(10.0),
            node: idle,
            victim: None
        }));
        let sizes: Vec<&EngineEvent> = r
            .events
            .iter()
            .filter(|e| matches!(e, EngineEvent::Expand { .. } | EngineEvent::Shrink { .. }))
            .collect();
        assert_eq!(
            sizes,
            [
                &EngineEvent::Expand {
                    t: s(0.0),
                    id: 0,
                    bn: 4
                },
                &EngineEvent::Shrink {
                    t: s(20.0),
                    id: 0,
                    bn: 3
                },
                &EngineEvent::Expand {
                    t: s(70.0),
                    id: 0,
                    bn: 4
                },
            ]
        );
        assert_eq!((r.requeues, r.starts, r.completed), (0, 2, 2));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The deal-order contract: counts by [`deal_counts`], then ids by
        /// [`draw_ids`], are node for node what dealing `grow(.., 1)` round
        /// robin hands out from the same pool — with holes in the free ids,
        /// a downed node, jobs that want nothing and a pool that runs dry.
        #[test]
        fn dealt_counts_then_drawn_ids_are_the_node_by_node_deal(
            wants in prop::collection::vec(0usize..=64, 1..10),
            busy in prop::collection::vec(any::<bool>(), 96),
            down in 0usize..96,
        ) {
            let jobs: Vec<TraceJob> = (wants.iter().zip(0..))
                .map(|(&want, id)| TraceJob { bn_min: 1, ..job(id, 0, 1 + want, 10.0, 0.0) })
                .collect();
            // The same pool twice: some nodes busy, one down, then every
            // job's first node.
            let pool = || {
                let sys = system(1, 96);
                let rm = ResourceManager::new(&sys);
                let singles: Vec<Allocation> =
                    (0..96).map(|_| rm.allocate(0, 1).expect("96 BN")).collect();
                for (a, _) in singles.iter().zip(&busy).filter(|(_, &busy)| !busy) {
                    rm.release(a).expect("live");
                }
                rm.mark_down(sys.booster_nodes()[down]);
                let base: Option<Vec<Allocation>> =
                    jobs.iter().map(|_| rm.allocate(0, 1).ok()).collect();
                (rm, base)
            };
            let ((rm, base), (one_by_one, reference)) = (pool(), pool());
            prop_assume!(base.is_some());
            let mut reference = reference.expect("same pool");
            let mut pools = one_by_one.lock();
            let mut grew = true;
            while grew {
                grew = false;
                for (a, job) in reference.iter_mut().zip(&jobs) {
                    if a.booster.len() < job.bn_max && pools.grow(a, 1).is_ok() {
                        grew = true;
                    }
                }
            }
            // One pass guard at a time: both managers' pools have one rank.
            drop(pools);
            let mut running: Vec<Run<'_>> = (base.expect("assumed").into_iter().zip(&jobs))
                .map(|(alloc, job)| Run {
                    job,
                    alloc,
                    bn_active: 1,
                    logged_bn: 1,
                    done: SimTime::ZERO,
                    speed: 1.0,
                    worst_speed: 1.0,
                    fabric: 1.0,
                })
                .collect();
            let mut pools = rm.lock();
            let free = pools.free_to_grow();
            deal_counts(&mut running, free);
            let dealt: usize = running.iter().map(|r| r.bn_active - 1).sum();
            prop_assert_eq!(dealt, free.min(wants.iter().sum()));
            draw_ids(&mut running, &mut pools);
            for (r, a) in running.iter().zip(&reference) {
                prop_assert_eq!(r.bn_active, a.booster.len());
                prop_assert_eq!(&r.alloc.booster, &a.booster);
            }
        }
    }

    #[test]
    fn malleable_jobs_expand_into_idle_booster_and_yield_it_back() {
        // jobA can use 2..8 BN. Alone it grows to 8; when the rigid
        // 4-BN jobB arrives it must shrink back to 4 so B can start.
        let mut a = job(0, 1, 2, 100.0, 0.0);
        a.bn_max = 8;
        let b = job(1, 1, 4, 50.0, 10.0);
        let eng = Engine::new(system(2, 8), EngineConfig::default());
        let r = eng.run(&[a, b], &FaultPlan::new());
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
            Engine::new(system(1, 8), EngineConfig::default()).run(&trace, &FaultPlan::new())
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
        let r = Engine::new(system(2, 8), cfg).run(&[a], &FaultPlan::new());
        assert_eq!(r.expands, 0);
        assert_eq!(r.shrinks, 0);
        // Pinned at bn_min = 2 of 8: runs at quarter speed.
        assert_eq!(r.makespan, SimTime::from_secs(400.0));
    }

    #[test]
    fn fabric_contention_slows_combined_jobs() {
        let combined = |id, demand| {
            let mut j = job(id, 1, 4, 100.0, 0.0);
            j.comm_fraction = 0.5;
            j.fabric_demand_gbs = demand;
            j
        };
        let run = |demand| {
            let trace = vec![combined(0, demand), combined(1, demand)];
            Engine::new(system(2, 8), EngineConfig::default()).run(&trace, &FaultPlan::new())
        };
        // 2 × 16 GB/s fit the 32 GB/s fabric: both finish at full speed.
        assert_eq!(run(16.0).makespan, SimTime::from_secs(100.0));
        // 32/2 = 16 GB/s each of 64 wanted: sat 0.25, speed 0.625.
        assert_eq!(run(64.0).makespan, SimTime::from_secs(160.0));
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
        let ind = Engine::new(system(4, 8), EngineConfig::default()).run(&trace, &FaultPlan::new());
        let locked_cfg = EngineConfig {
            policy: AllocationPolicy::NodeLocked { ratio: 2 },
            ..EngineConfig::default()
        };
        let locked = Engine::new(system(4, 8), locked_cfg).run(&trace, &FaultPlan::new());
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
