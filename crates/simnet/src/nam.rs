//! Network Attached Memory (NAM).
//!
//! DEEP-ER introduced the NAM (paper §II-B, ref \[6\]): Hybrid Memory Cube
//! devices behind a Xilinx Virtex 7 FPGA, attached directly to the EXTOLL
//! fabric. Any node can read and write NAM memory through remote DMA
//! *without any active component on the remote side* — there is no CPU at
//! the target. The prototype holds two devices of 2 GB each.
//!
//! [`NamDevice`] models one device: a byte-addressable capacity with a
//! simple region allocator and an FPGA service-time model, plus real backing
//! storage so applications (e.g. the NAM-checkpoint extension experiment)
//! can actually round-trip data through it.

use hwmodel::SimTime;
use lockrank::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Errors from NAM allocation and access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NamError {
    /// Not enough free capacity for the requested region.
    OutOfMemory { requested: u64, free: u64 },
    /// Access outside an allocated region.
    OutOfBounds {
        offset: u64,
        len: u64,
        region_len: u64,
    },
    /// The region handle is stale (already freed).
    StaleRegion,
}

impl std::fmt::Display for NamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NamError::OutOfMemory { requested, free } => {
                write!(
                    f,
                    "NAM out of memory: requested {requested} B, free {free} B"
                )
            }
            NamError::OutOfBounds {
                offset,
                len,
                region_len,
            } => {
                write!(
                    f,
                    "NAM access [{offset}, +{len}) outside region of {region_len} B"
                )
            }
            NamError::StaleRegion => write!(f, "stale NAM region handle"),
        }
    }
}

impl std::error::Error for NamError {}

/// Handle to an allocated NAM region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NamRegion {
    id: u64,
    /// Length of the region in bytes.
    pub len: u64,
}

#[derive(Debug, Default)]
struct NamState {
    regions: BTreeMap<u64, Vec<u8>>,
    next_id: u64,
    used: u64,
}

/// One NAM device on the fabric.
#[derive(Debug, Clone)]
pub struct NamDevice {
    capacity: u64,
    /// FPGA per-access pipeline latency.
    access_latency: SimTime,
    /// HMC bandwidth through the FPGA, bytes/s.
    bandwidth: f64,
    state: Arc<Mutex<NamState, 540>>,
}

impl NamDevice {
    /// A custom device.
    pub fn new(capacity: u64, access_latency: SimTime, bandwidth: f64) -> Self {
        assert!(bandwidth > 0.0, "NAM bandwidth must be positive");
        NamDevice {
            capacity,
            access_latency,
            bandwidth,
            state: Arc::new(Mutex::new(NamState::default())),
        }
    }

    /// The DEEP-ER prototype device: 2 GB HMC behind a Virtex 7; ~0.5 µs
    /// FPGA pipeline latency, ~10 GB/s through the EXTOLL link into HMC.
    pub fn deep_er() -> Self {
        NamDevice::new(2 * (1 << 30), SimTime::from_micros(0.5), 10.0e9)
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.state.lock().used
    }

    /// Bytes still free.
    pub fn free(&self) -> u64 {
        self.capacity - self.used()
    }

    /// The FPGA pipeline latency.
    pub fn access_latency(&self) -> SimTime {
        self.access_latency
    }

    /// The HMC streaming bandwidth through the FPGA, bytes/s.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Allocate a zero-initialized region.
    pub fn alloc(&self, len: u64) -> Result<NamRegion, NamError> {
        let mut st = self.state.lock();
        let free = self.capacity - st.used;
        if len > free {
            return Err(NamError::OutOfMemory {
                requested: len,
                free,
            });
        }
        let id = st.next_id;
        st.next_id += 1;
        st.used += len;
        st.regions.insert(id, vec![0u8; len as usize]);
        Ok(NamRegion { id, len })
    }

    /// Free a region. Idempotent on stale handles (returns an error but
    /// leaves state intact).
    pub fn dealloc(&self, region: NamRegion) -> Result<(), NamError> {
        let mut st = self.state.lock();
        match st.regions.remove(&region.id) {
            Some(buf) => {
                st.used -= buf.len() as u64;
                Ok(())
            }
            None => Err(NamError::StaleRegion),
        }
    }

    /// RDMA-put: write `data` at `offset` within the region.
    pub fn put(&self, region: NamRegion, offset: u64, data: &[u8]) -> Result<(), NamError> {
        let mut st = self.state.lock();
        let buf = st
            .regions
            .get_mut(&region.id)
            .ok_or(NamError::StaleRegion)?;
        let end = offset + data.len() as u64;
        if end > buf.len() as u64 {
            return Err(NamError::OutOfBounds {
                offset,
                len: data.len() as u64,
                region_len: buf.len() as u64,
            });
        }
        buf[offset as usize..end as usize].copy_from_slice(data);
        Ok(())
    }

    /// RDMA-get: read `len` bytes at `offset` within the region.
    pub fn get(&self, region: NamRegion, offset: u64, len: u64) -> Result<Vec<u8>, NamError> {
        let st = self.state.lock();
        let buf = st.regions.get(&region.id).ok_or(NamError::StaleRegion)?;
        let end = offset + len;
        if end > buf.len() as u64 {
            return Err(NamError::OutOfBounds {
                offset,
                len,
                region_len: buf.len() as u64,
            });
        }
        Ok(buf[offset as usize..end as usize].to_vec())
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "concurrent NAM access under test needs real threads racing the shared device"
)]
mod tests {
    use super::*;

    #[test]
    fn deep_er_capacity_is_2gb() {
        let nam = NamDevice::deep_er();
        assert_eq!(nam.capacity(), 2 * (1 << 30));
        assert_eq!(nam.used(), 0);
        assert_eq!(nam.free(), nam.capacity());
    }

    #[test]
    fn alloc_put_get_roundtrip() {
        let nam = NamDevice::deep_er();
        let r = nam.alloc(1024).unwrap();
        nam.put(r, 100, b"checkpoint-block").unwrap();
        let back = nam.get(r, 100, 16).unwrap();
        assert_eq!(&back, b"checkpoint-block");
        // Unwritten bytes read as zero.
        assert_eq!(nam.get(r, 0, 4).unwrap(), vec![0; 4]);
    }

    #[test]
    fn capacity_enforced() {
        let nam = NamDevice::new(1000, SimTime::ZERO, 1e9);
        let _a = nam.alloc(800).unwrap();
        match nam.alloc(300) {
            Err(NamError::OutOfMemory {
                requested: 300,
                free: 200,
            }) => {}
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn dealloc_returns_capacity() {
        let nam = NamDevice::new(1000, SimTime::ZERO, 1e9);
        let a = nam.alloc(800).unwrap();
        nam.dealloc(a).unwrap();
        assert_eq!(nam.free(), 1000);
        assert!(matches!(nam.dealloc(a), Err(NamError::StaleRegion)));
        assert!(matches!(nam.get(a, 0, 1), Err(NamError::StaleRegion)));
    }

    #[test]
    fn bounds_enforced() {
        let nam = NamDevice::deep_er();
        let r = nam.alloc(16).unwrap();
        assert!(matches!(
            nam.put(r, 10, &[0u8; 10]),
            Err(NamError::OutOfBounds { .. })
        ));
        assert!(matches!(
            nam.get(r, 0, 17),
            Err(NamError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn concurrent_access_is_safe() {
        let nam = NamDevice::deep_er();
        let r = nam.alloc(4096).unwrap();
        std::thread::scope(|s| {
            for i in 0..8u64 {
                let nam = nam.clone();
                s.spawn(move || {
                    let off = i * 512;
                    nam.put(r, off, &[i as u8; 512]).unwrap();
                });
            }
        });
        for i in 0..8u64 {
            assert_eq!(nam.get(r, i * 512, 512).unwrap(), vec![i as u8; 512]);
        }
    }

    #[test]
    fn error_display() {
        let e = NamError::OutOfMemory {
            requested: 10,
            free: 5,
        };
        assert!(e.to_string().contains("requested 10"));
    }
}
