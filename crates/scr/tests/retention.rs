//! Property test for the retention rule: a promotion drops the older
//! checkpoints it dominates, and nothing can tell. Random sequences of
//! stages, blocking checkpoints, promotions, aborts, node failures, heals
//! and re-taken ids run on a plain and a NAM-backed manager, and after
//! every step `restart()` equals that of a model that keeps every record.

use bytes::Bytes;
use hwmodel::{NodeId, SimTime};
use proptest::prelude::*;
use scr::{CheckpointLevel, NamBuddy, Payload, PendingDrain, ScrConfig, ScrManager};
use sionio::ParallelFs;
use std::collections::BTreeSet;
use std::sync::Arc;

const RANKS: usize = 3;
const LEVELS: [CheckpointLevel; 3] = [
    CheckpointLevel::Local,
    CheckpointLevel::Buddy,
    CheckpointLevel::Global,
];

/// One take of a checkpoint and which of its copies are still held.
struct Record {
    id: u64,
    level: CheckpointLevel,
    in_flight: bool,
    blobs: Vec<Bytes>,
    local: [bool; RANKS],
    buddy: [bool; RANKS],
    nam: [bool; RANKS],
}

/// The manager without retention: rank `r` on node `r`, its buddy copy on
/// node `r + 1`, every record kept to the end.
struct Model {
    records: Vec<Record>,
    dead: BTreeSet<usize>,
    nam: bool,
}

impl Model {
    fn newest(&mut self, id: u64) -> Option<&mut Record> {
        self.records.iter_mut().rev().find(|r| r.id == id)
    }

    fn stage(&mut self, id: u64, blobs: Vec<Bytes>) {
        if let Some(earlier) = self.newest(id) {
            earlier.in_flight = false;
        }
        self.records.push(Record {
            id,
            level: CheckpointLevel::Local,
            in_flight: true,
            blobs,
            local: [true; RANKS],
            buddy: [false; RANKS],
            nam: [false; RANKS],
        });
    }

    /// Promote the newest take of `id` if its drain is in flight; the
    /// copies stop at the first rank whose local copy is lost.
    fn finish(&mut self, id: u64, level: CheckpointLevel) {
        let nam = self.nam;
        let Some(rec) = self.newest(id).filter(|r| r.in_flight) else {
            return;
        };
        rec.in_flight = false;
        for r in 0..RANKS {
            if level != CheckpointLevel::Local && !rec.local[r] {
                return;
            }
            if level == CheckpointLevel::Buddy {
                let copies = if nam { &mut rec.nam } else { &mut rec.buddy };
                copies[r] = true;
            }
        }
        rec.level = level;
    }

    fn abort(&mut self, id: u64) -> bool {
        self.newest(id)
            .is_some_and(|r| std::mem::take(&mut r.in_flight))
    }

    fn fail(&mut self, node: usize) {
        self.dead.insert(node);
        for rec in &mut self.records {
            rec.in_flight &= node >= RANKS;
            for r in 0..RANKS {
                rec.local[r] &= !self.dead.contains(&r);
                rec.buddy[r] &= !self.dead.contains(&((r + 1) % RANKS));
            }
        }
    }

    fn restart(&self, m: &ScrManager) -> Option<(u64, CheckpointLevel, Vec<Bytes>, SimTime)> {
        let held = |rec: &&Record| (0..RANKS).all(|r| rec.local[r] || rec.buddy[r] || rec.nam[r]);
        let rec = self
            .records
            .iter()
            .rev()
            .find(|rec| rec.level == CheckpointLevel::Global || held(rec))?;
        let lens = rec.blobs.iter().map(|b| b.len() as u64);
        let (max, total) = (lens.clone().max().unwrap_or(0), lens.sum::<u64>());
        let nvme = ScrConfig::default().nvme;
        let cost = match rec.level {
            CheckpointLevel::Local => nvme.read_time(max),
            CheckpointLevel::Buddy => nvme.read_time(max) + m.buddy_copy_time(max),
            CheckpointLevel::Global => {
                let pfs = ParallelFs::deep_er().transfer_time(total);
                pfs.max(nvme.write_time(max))
            }
        };
        Some((rec.id, rec.level, rec.blobs.clone(), cost))
    }
}

fn manager(nam: bool) -> ScrManager {
    let bn = Arc::new(hwmodel::presets::deep_er_booster_node());
    let nam = nam.then(|| NamBuddy {
        index: 0,
        device: simnet::nam::NamDevice::deep_er(),
    });
    ScrManager::new(
        ScrConfig {
            nam,
            ..ScrConfig::default()
        },
        (0..RANKS as u32).map(NodeId).collect(),
        vec![bn; RANKS],
        ParallelFs::deep_er(),
    )
}

/// The blobs of the `step`-th operation: distinct contents, lengths that
/// differ between ranks and steps.
fn blobs(step: usize) -> Vec<Bytes> {
    (0..RANKS)
        .map(|r| Bytes::from(vec![(step * RANKS + r) as u8; 64 + 16 * ((step + r) % 4)]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn retention_never_changes_what_restart_returns(
        nam in 0u8..2,
        ops in prop::collection::vec((0u8..6, 0u64..6, 0usize..3), 1..48),
    ) {
        let m = manager(nam == 1);
        let mut model = Model { records: Vec::new(), dead: BTreeSet::new(), nam: nam == 1 };
        let mut handles: Vec<PendingDrain> = Vec::new();
        for (step, &(kind, a, b)) in ops.iter().enumerate() {
            let handle = handles.get(a as usize % handles.len().max(1)).copied();
            match kind {
                // Stage (ids 0..6 repeat: re-takes), or take it blocking.
                0 | 1 => {
                    let (id, level, data) = (a, LEVELS[b], blobs(step));
                    model.stage(id, data.clone());
                    if kind == 0 {
                        handles.push(m.checkpoint_async(id, level, Payload::Blobs(&data)).unwrap());
                    } else {
                        m.checkpoint(id, level, &data).unwrap();
                        model.finish(id, level);
                    }
                }
                2 => if let Some(h) = handle {
                    let _ = m.finish_drain(h);
                    model.finish(h.id, h.level);
                },
                3 => if let Some(h) = handle {
                    prop_assert_eq!(m.abort_drain(&h), model.abort(h.id));
                },
                // Node `RANKS` is outside the job.
                4 => {
                    let node = a as usize % (RANKS + 1);
                    m.fail_nodes(&[NodeId(node as u32)]);
                    model.fail(node);
                }
                _ => {
                    m.heal();
                    model.dead.clear();
                }
            }
            prop_assert_eq!(m.restart().ok(), model.restart(&m), "after op {}: {:?}", step, ops[step]);
            prop_assert!(m.record_count() <= model.records.len());
        }
    }
}
