//! A BeeGFS-like parallel file system model.
//!
//! The DEEP-ER prototype's storage rack holds one metadata server and two
//! storage servers in front of 57 TB of spinning disks. Files are striped
//! across the storage servers; a transfer's virtual time is the metadata
//! round trip plus the *slowest server's* share of the stripes (servers
//! work in parallel), each share costing disk latency + bytes/bandwidth
//! plus the fabric hop from the client.

use hwmodel::SimTime;
use lockrank::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// File-system errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Path does not exist.
    NotFound(String),
    /// Read beyond end of file.
    OutOfBounds {
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Actual file size.
        size: u64,
    },
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "no such file: {p}"),
            FsError::OutOfBounds { offset, len, size } => {
                write!(f, "read [{offset}, +{len}) beyond file of {size} B")
            }
        }
    }
}

impl std::error::Error for FsError {}

/// Storage servers of the DEEP-ER rack.
const STORAGE_SERVERS: u64 = 2;
/// Stripe size in bytes (the BeeGFS default, 512 KiB).
pub(crate) const STRIPE_SIZE: u64 = 512 * 1024;
/// Metadata operation round-trip time, µs.
const METADATA_LATENCY_US: f64 = 250.0;
/// Per-server streaming bandwidth, bytes/s.
const SERVER_BW: f64 = hwmodel::calib::DISK_BW_GBS * 1e9;

/// Metadata operation round-trip time.
fn metadata_latency() -> SimTime {
    SimTime::from_micros(METADATA_LATENCY_US)
}

/// Per-server first-byte latency.
fn server_latency() -> SimTime {
    SimTime::from_millis(hwmodel::calib::DISK_LATENCY_MS)
}

#[derive(Debug, Default)]
struct FsState {
    /// Path → contents. Ordered so every directory-style scan is
    /// deterministic (`clippy.toml` bans the hash containers).
    files: BTreeMap<String, Vec<u8>>,
}

/// The shared parallel file system. Clone-shared across ranks.
#[derive(Debug, Clone)]
pub struct ParallelFs {
    state: Arc<Mutex<FsState, 510>>,
}

impl ParallelFs {
    /// The DEEP-ER storage rack, empty: one metadata server and two
    /// storage servers.
    pub fn deep_er() -> Self {
        ParallelFs {
            state: Arc::new(Mutex::new(FsState::default())),
        }
    }

    /// Virtual time to move `bytes` as one striped transfer.
    pub fn transfer_time(&self, bytes: u64) -> SimTime {
        if bytes == 0 {
            return metadata_latency();
        }
        // Stripes round-robin over servers; the slowest server bounds the
        // parallel transfer. Server i gets stripes i, i+S, i+2S, ...
        let stripes = bytes.div_ceil(STRIPE_SIZE);
        let max_stripes_per_server = stripes.div_ceil(STORAGE_SERVERS);
        let per_server_bytes = (max_stripes_per_server * STRIPE_SIZE).min(bytes);
        metadata_latency()
            + server_latency()
            + SimTime::from_secs(per_server_bytes as f64 / SERVER_BW)
    }

    /// Create (or truncate) a file with contents. Returns the virtual cost.
    pub fn write(&self, path: impl Into<String>, data: &[u8]) -> SimTime {
        let path = path.into();
        let t = self.transfer_time(data.len() as u64);
        self.state.lock().files.insert(path, data.to_vec());
        t
    }

    /// Read a byte range of a file.
    pub fn read_at(
        &self,
        path: &str,
        offset: u64,
        len: u64,
    ) -> Result<(Vec<u8>, SimTime), FsError> {
        let st = self.state.lock();
        let data = st
            .files
            .get(path)
            .ok_or_else(|| FsError::NotFound(path.into()))?;
        let end = offset + len;
        if end > data.len() as u64 {
            return Err(FsError::OutOfBounds {
                offset,
                len,
                size: data.len() as u64,
            });
        }
        let out = data[offset as usize..end as usize].to_vec();
        Ok((out, self.transfer_time(len)))
    }

    /// Write a byte range of a file, growing it if necessary.
    pub fn write_at(&self, path: &str, offset: u64, data: &[u8]) -> SimTime {
        let mut st = self.state.lock();
        let file = st.files.entry(path.to_string()).or_default();
        let end = offset as usize + data.len();
        if end > file.len() {
            file.resize(end, 0);
        }
        file[offset as usize..end].copy_from_slice(data);
        self.transfer_time(data.len() as u64)
    }

    /// Delete a file.
    pub fn delete(&self, path: &str) -> Result<SimTime, FsError> {
        let mut st = self.state.lock();
        st.files
            .remove(path)
            .map(|_| metadata_latency())
            .ok_or_else(|| FsError::NotFound(path.into()))
    }

    /// All paths (sorted) — for directory-style scans.
    pub fn list(&self) -> Vec<String> {
        self.state.lock().files.keys().cloned().collect()
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "concurrent PFS access under test needs real threads racing the shared servers"
)]
mod tests {
    use super::*;

    impl ParallelFs {
        /// A whole file and its read cost, through the ranged read.
        fn read(&self, path: &str) -> Result<(Vec<u8>, SimTime), FsError> {
            let len = self.state.lock().files.get(path).map_or(0, Vec::len);
            self.read_at(path, 0, len as u64)
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let fs = ParallelFs::deep_er();
        let t = fs.write("/ckpt/rank0", b"field data");
        assert!(t > SimTime::ZERO);
        let (data, t2) = fs.read("/ckpt/rank0").unwrap();
        assert_eq!(data, b"field data");
        assert!(t2 > SimTime::ZERO);
    }

    #[test]
    fn missing_file_errors() {
        let fs = ParallelFs::deep_er();
        assert!(matches!(fs.read("/nope"), Err(FsError::NotFound(_))));
        assert!(matches!(fs.delete("/nope"), Err(FsError::NotFound(_))));
    }

    #[test]
    fn ranged_io() {
        let fs = ParallelFs::deep_er();
        fs.write("/f", b"0123456789");
        let (d, _) = fs.read_at("/f", 2, 3).unwrap();
        assert_eq!(d, b"234");
        assert!(matches!(
            fs.read_at("/f", 8, 5),
            Err(FsError::OutOfBounds { .. })
        ));
        fs.write_at("/f", 8, b"XYZ"); // grows the file
        let (all, _) = fs.read("/f").unwrap();
        assert_eq!(all, b"01234567XYZ");
    }

    #[test]
    fn striping_parallelizes_large_transfers() {
        // The two servers stream their stripes in parallel: a 2-stripe
        // transfer costs what a 1-stripe one does, and a third stripe
        // costs one stripe more on the server that gets two.
        let fs = ParallelFs::deep_er();
        let stripe = STRIPE_SIZE as f64 / SERVER_BW;
        let one = fs.transfer_time(STRIPE_SIZE);
        assert_eq!(fs.transfer_time(2 * STRIPE_SIZE), one);
        let third = (fs.transfer_time(3 * STRIPE_SIZE) - one).as_secs();
        assert!((third - stripe).abs() < 1e-15, "{third} vs {stripe}");
    }

    #[test]
    fn small_files_are_latency_bound() {
        let fs = ParallelFs::deep_er();
        let t = fs.transfer_time(10);
        let floor = metadata_latency() + server_latency();
        assert!(t >= floor);
        assert!(t < floor * 1.01);
    }

    #[test]
    fn list_and_delete() {
        let fs = ParallelFs::deep_er();
        fs.write("/log", b"ab");
        fs.write("/b", b"");
        assert_eq!(fs.list(), vec!["/b".to_string(), "/log".to_string()]);
        fs.delete("/log").unwrap();
        assert_eq!(fs.list(), vec!["/b".to_string()]);
    }

    #[test]
    fn concurrent_writers_distinct_paths() {
        let fs = ParallelFs::deep_er();
        std::thread::scope(|s| {
            for i in 0..8 {
                let fs = fs.clone();
                s.spawn(move || {
                    fs.write(format!("/rank{i}"), &[i as u8; 64]);
                });
            }
        });
        assert_eq!(fs.list().len(), 8);
        for i in 0..8 {
            let (d, _) = fs.read(&format!("/rank{i}")).unwrap();
            assert_eq!(d, vec![i as u8; 64]);
        }
    }
}
