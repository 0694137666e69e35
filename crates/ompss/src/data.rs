//! The data store tasks operate on.
//!
//! OmpSs dependencies are expressed over program data; here every dependency
//! object is a named block of `f64`s. Tasks receive the store mutably and
//! really read/write it, which lets tests verify that out-of-order parallel
//! scheduling preserves sequential semantics.

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

    /// Size of a block in bytes (0 if absent) — used for transfer costs.
    pub fn bytes_of(&self, name: &str) -> u64 {
        self.blocks.get(name).map_or(0, |b| (b.len() * 8) as u64)
    }

    /// Snapshot the named blocks (the §III-D input-saving feature).
    pub fn snapshot(&self, names: &[String]) -> BTreeMap<String, Vec<f64>> {
        names
            .iter()
            .filter_map(|n| self.blocks.get(n).map(|b| (n.clone(), b.clone())))
            .collect()
    }

    /// Restore blocks from a snapshot.
    pub fn restore(&mut self, snap: &BTreeMap<String, Vec<f64>>) {
        for (k, v) in snap {
            self.blocks.insert(k.clone(), v.clone());
        }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut s = DataStore::new();
        assert!(s.is_empty());
        s.put("rho", vec![1.0, 2.0]);
        assert_eq!(s.get("rho"), &[1.0, 2.0]);
        assert_eq!(s.len(), 1);
        s.get_mut("rho")[0] = 9.0;
        assert_eq!(s.get("rho")[0], 9.0);
    }

    #[test]
    #[should_panic(expected = "data block `missing` missing")]
    fn missing_block_panics() {
        DataStore::new().get("missing");
    }

    #[test]
    fn bytes_of_counts_f64() {
        let mut s = DataStore::new();
        s.put("x", vec![0.0; 100]);
        assert_eq!(s.bytes_of("x"), 800);
        assert_eq!(s.bytes_of("absent"), 0);
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
