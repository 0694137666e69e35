// Clean fixture: near-miss patterns that must NOT fire any lint.
// "Instant::now" and available_parallelism appear only in comments and
// string literals, and iteration uses ordered collections.

use std::collections::{BTreeMap, HashMap};

struct State {
    ordered: BTreeMap<u64, Vec<u8>>,
    lookup: HashMap<u64, usize>,
}

impl State {
    fn deterministic_walk(&self) -> usize {
        // BTreeMap iteration is ordered — fine in virtual-time crates.
        let mut n = 0;
        for (_, v) in self.ordered.iter() {
            n += v.len();
        }
        n
    }

    fn point_access(&self) -> usize {
        // HashMap get/insert/remove without iteration is fine.
        self.lookup.get(&1).copied().unwrap_or(0)
    }

    fn sorted_collect(&self) -> Vec<u64> {
        // Iterating the *sorted* copy of the keys: the keys() call sits on
        // the BTreeMap, so nothing fires.
        self.ordered.keys().copied().collect()
    }
}

fn sanctioned_randomness(seed: u64) -> u64 {
    // The sanctioned RNG site: an explicitly seeded StdRng. The string
    // below mentions rand::random and thread_rng, but strings (and this
    // comment) are opaque to the scanner.
    let note = "rand::random / thread_rng are banned; seed a StdRng";
    let _ = note.len();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    rng.next_u64()
}

fn managed_parallelism(threads: usize, tasks: Vec<u32>) {
    // The sanctioned path: par::run_tasks handles the workers. The string
    // below mentions "std::thread::spawn" and available_parallelism but
    // strings are opaque to the scanner.
    let label = "std::thread::spawn / available_parallelism / Instant::now";
    let _ = label.len();
    par::run_tasks(threads, tasks, |t| {
        let _ = t;
    });
}

fn sanctioned_workload_stream(seed: u64, job: u64) -> u64 {
    // The workload-generator pattern: per-job streams derived from the
    // master seed by mixing in the job id — fully deterministic, no host
    // entropy. (from_entropy / OsRng are the banned spellings.)
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ job.wrapping_mul(0x9e3779b97f4a7c15));
    rng.next_u64()
}
