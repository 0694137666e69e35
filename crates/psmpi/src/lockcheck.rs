//! Runtime lock-witness: the dynamic half of deepcheck's D006 lock-order
//! discipline.
//!
//! The static pass ranks every `Mutex`/`RwLock` (see `// lock-order:`
//! annotations and the workspace `lockorder.toml`) and rejects acquisition
//! chains that invert the declared partial order — but it only sees one
//! function body at a time. Orders composed *across* functions are its
//! blind spot: `declare_down` holding a shard guard while `interrupt`
//! takes a mailbox `state` lock looks clean in both functions separately.
//!
//! This module closes that gap at test time. With `--features lockcheck`,
//! instrumented lock sites call [`acquire`] (via the [`lock_witness!`](crate::lock_witness)
//! macro) just after taking the real guard. Each call records a directed
//! edge `held → acquired` for every lock the current thread already
//! holds, into one process-global graph. [`assert_acyclic`] — called at
//! test teardown — fails the test if any cycle exists in the union of all
//! orders actually exercised, even when no individual run deadlocked.
//!
//! The witness is deterministic: edges depend only on which code paths
//! ran, not on timing, so a test that passes once passes always (the
//! graph is a set — interleavings add the same edges in any order).
//!
//! Without the feature, `acquire` is never called and `assert_acyclic`
//! is a no-op; the instrumentation compiles to nothing.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, OnceLock};

/// The global edge set: `(held, acquired)` pairs, lock names as given to
/// [`lock_witness!`](crate::lock_witness). std `Mutex` (not parking_lot) so the witness's own
/// lock is outside the hierarchy it audits.
fn edges() -> &'static Mutex<BTreeSet<(&'static str, &'static str)>> {
    // Last in the hierarchy: taken with arbitrary workspace locks held,
    // never the other way around. lock-order: 90
    static EDGES: OnceLock<Mutex<BTreeSet<(&'static str, &'static str)>>> = OnceLock::new();
    EDGES.get_or_init(|| Mutex::new(BTreeSet::new()))
}

std::thread_local! {
    /// Locks the current thread holds, in acquisition order.
    static HELD: std::cell::RefCell<Vec<&'static str>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Token returned by [`acquire`]; dropping it marks the named lock
/// released. Bind it alongside the real guard so the two scopes agree.
pub struct HeldGuard {
    name: &'static str,
}

impl Drop for HeldGuard {
    fn drop(&mut self) {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(pos) = h.iter().rposition(|n| *n == self.name) {
                h.remove(pos);
            }
        });
    }
}

/// Record that the current thread just acquired `name`, adding an edge
/// from every lock it already holds. Call *after* the real acquisition
/// (the edge exists once both locks are held together).
pub fn acquire(name: &'static str) -> HeldGuard {
    HELD.with(|h| {
        let mut h = h.borrow_mut();
        if !h.is_empty() {
            let mut g = edges().lock().expect("lockcheck edge graph poisoned");
            for held in h.iter() {
                if *held != name {
                    g.insert((held, name));
                }
            }
        }
        h.push(name);
    });
    HeldGuard { name }
}

/// A snapshot of the recorded edges (test introspection).
pub fn recorded_edges() -> Vec<(&'static str, &'static str)> {
    edges()
        .lock()
        .expect("lockcheck edge graph poisoned")
        .iter()
        .copied()
        .collect()
}

/// Find a cycle in a directed edge set, as the list of nodes along it
/// (first node repeated last). Pure function so the detector is testable
/// without the feature or the global graph.
pub fn find_cycle(edges: &[(&'static str, &'static str)]) -> Option<Vec<&'static str>> {
    let mut adj: BTreeMap<&str, Vec<&'static str>> = BTreeMap::new();
    for (a, b) in edges {
        adj.entry(a).or_default().push(b);
    }
    // Iterative DFS with three colors; `path` carries the gray stack so a
    // back edge can be reported as the actual cycle.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color: BTreeMap<&str, Color> = BTreeMap::new();
    let nodes: BTreeSet<&'static str> = edges.iter().flat_map(|(a, b)| [*a, *b]).collect();
    for &start in &nodes {
        if color.get(start).copied().unwrap_or(Color::White) != Color::White {
            continue;
        }
        // (node, next child index) stack.
        let mut stack: Vec<(&'static str, usize)> = vec![(start, 0)];
        color.insert(start, Color::Gray);
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            let children = adj.get(node).map(|v| v.as_slice()).unwrap_or(&[]);
            if *idx < children.len() {
                let child = children[*idx];
                *idx += 1;
                match color.get(child).copied().unwrap_or(Color::White) {
                    Color::White => {
                        color.insert(child, Color::Gray);
                        stack.push((child, 0));
                    }
                    Color::Gray => {
                        let mut cycle: Vec<&'static str> = stack
                            .iter()
                            .map(|(n, _)| *n)
                            .skip_while(|n| *n != child)
                            .collect();
                        cycle.push(child);
                        return Some(cycle);
                    }
                    Color::Black => {}
                }
            } else {
                color.insert(node, Color::Black);
                stack.pop();
            }
        }
    }
    None
}

/// Assert the recorded acquisition graph is acyclic. Call at test
/// teardown, after the workload joined all its threads. No-op unless the
/// `lockcheck` feature is on.
pub fn assert_acyclic() {
    if cfg!(feature = "lockcheck") {
        let snapshot = recorded_edges();
        if let Some(cycle) = find_cycle(&snapshot) {
            panic!(
                "lockcheck: cyclic lock order {} — recorded edges: {:?}",
                cycle.join(" -> "),
                snapshot
            );
        }
    }
}

/// Record a named lock acquisition when the `lockcheck` feature is on;
/// expands to nothing otherwise. Place immediately after taking the real
/// guard, inside the same scope:
///
/// ```ignore
/// let mut dead = self.dead_nodes.lock();
/// lock_witness!("psmpi.dead_nodes");
/// ```
#[macro_export]
macro_rules! lock_witness {
    ($name:literal) => {
        #[cfg(feature = "lockcheck")]
        let _lock_witness = $crate::lockcheck::acquire($name);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_linear_graphs_are_acyclic() {
        assert_eq!(find_cycle(&[]), None);
        assert_eq!(find_cycle(&[("a", "b"), ("b", "c"), ("a", "c")]), None);
    }

    #[test]
    fn two_node_cycle_is_found() {
        let cycle = find_cycle(&[("a", "b"), ("b", "a")]).expect("cycle");
        assert_eq!(cycle.first(), cycle.last());
        assert_eq!(cycle.len(), 3);
    }

    #[test]
    fn longer_cycle_reports_the_loop_nodes() {
        let edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "b")];
        let cycle = find_cycle(&edges).expect("cycle");
        assert_eq!(cycle.first(), cycle.last());
        assert!(cycle.contains(&"b") && cycle.contains(&"c") && cycle.contains(&"d"));
        assert!(!cycle.contains(&"a"));
    }

    #[test]
    fn self_edges_never_enter_the_graph() {
        // `acquire` skips held == name, so re-entrant witnesses of the
        // same name (sharded locks under one label) do not self-cycle.
        let g = acquire("t.same");
        let g2 = acquire("t.same");
        drop(g2);
        drop(g);
        assert!(!recorded_edges().contains(&("t.same", "t.same")));
    }

    #[test]
    fn nested_acquisitions_record_edges_in_order() {
        let a = acquire("t.outer");
        let b = acquire("t.inner");
        drop(b);
        drop(a);
        let edges = recorded_edges();
        assert!(edges.contains(&("t.outer", "t.inner")), "{edges:?}");
        // The reverse order was never exercised in this test namespace.
        assert!(!edges.contains(&("t.inner", "t.outer")), "{edges:?}");
    }
}
