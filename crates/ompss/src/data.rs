//! The data store tasks operate on.
//!
//! OmpSs dependencies are expressed over program data; here every dependency
//! object is a named block of `f64`s. Tasks receive the store mutably and
//! really read/write it, and each device keeps its own store, which lets
//! tests verify that the offloaded run ends on the sequential run's data.

use std::collections::BTreeMap;

/// Named blocks of doubles.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataStore {
    /// Name → block. Ordered so snapshot/restore walk blocks in a
    /// reproducible order (`clippy.toml` bans the hash containers).
    blocks: BTreeMap<String, Vec<f64>>,
}

impl DataStore {
    /// Empty store.
    pub fn new() -> Self {
        DataStore::default()
    }

    /// Create or replace a block.
    pub fn put(&mut self, name: impl Into<String>, data: Vec<f64>) {
        self.blocks.insert(name.into(), data);
    }

    /// Read a block (panics if missing — a dependency bug).
    pub fn get(&self, name: &str) -> &[f64] {
        self.blocks
            .get(name)
            .unwrap_or_else(|| panic!("data block `{name}` missing"))
    }

    /// Mutably access a block (panics if missing).
    pub fn get_mut(&mut self, name: &str) -> &mut Vec<f64> {
        self.blocks
            .get_mut(name)
            .unwrap_or_else(|| panic!("data block `{name}` missing"))
    }

    /// Snapshot the named blocks (the §III-D input-saving feature).
    pub(crate) fn snapshot(&self, names: &[String]) -> BTreeMap<String, Vec<f64>> {
        names
            .iter()
            .filter_map(|n| self.blocks.get(n).map(|b| (n.clone(), b.clone())))
            .collect()
    }

    /// Restore blocks from a snapshot.
    pub(crate) fn restore(&mut self, snap: &BTreeMap<String, Vec<f64>>) {
        for (k, v) in snap {
            self.blocks.insert(k.clone(), v.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut s = DataStore::new();
        s.put("rho", vec![1.0, 2.0]);
        assert_eq!(s.get("rho"), &[1.0, 2.0]);
        s.get_mut("rho")[0] = 9.0;
        assert_eq!(s.get("rho")[0], 9.0);
    }

    #[test]
    #[should_panic(expected = "data block `missing` missing")]
    fn missing_block_panics() {
        DataStore::new().get("missing");
    }

    #[test]
    fn snapshot_and_restore() {
        let mut s = DataStore::new();
        s.put("a", vec![1.0]);
        s.put("b", vec![2.0]);
        let snap = s.snapshot(&["a".into(), "ghost".into()]);
        assert_eq!(snap.len(), 1, "only existing blocks snapshotted");
        s.get_mut("a")[0] = 5.0;
        s.restore(&snap);
        assert_eq!(s.get("a"), &[1.0]);
        assert_eq!(s.get("b"), &[2.0], "untouched blocks survive restore");
    }
}
