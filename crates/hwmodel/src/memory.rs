//! Memory hierarchy models.
//!
//! The DEEP-ER prototype implements a multi-level memory hierarchy
//! (paper §II-B): on-package MCDRAM on the Booster's KNL processors, DDR4
//! main memory on both sides, node-local NVMe devices (Intel DC P3700,
//! 400 GB, PCIe gen3 x4) for I/O buffering and checkpointing, and the
//! network-attached memory (NAM, modelled in `simnet`). A [`MemoryLevel`]
//! captures capacity, sustained bandwidth, and access latency of one level.

use crate::time::SimTime;

/// The kinds of memory present in the prototype.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryKind {
    /// On-package high-bandwidth memory (KNL MCDRAM, 16 GB).
    Mcdram,
    /// Conventional DDR4 main memory.
    Ddr4,
    /// Node-local non-volatile memory (NVMe SSD, Intel DC P3700).
    Nvme,
    /// Spinning-disk storage behind the parallel file system servers.
    Disk,
}

/// One level of a node's memory hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryLevel {
    /// Kind of this level.
    pub kind: MemoryKind,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Sustained read bandwidth in GB/s (10^9 bytes per second).
    pub read_bw_gbs: f64,
    /// Sustained write bandwidth in GB/s.
    pub write_bw_gbs: f64,
    /// Access latency for the first byte.
    pub latency: SimTime,
}

impl MemoryLevel {
    /// Convenience constructor.
    pub fn new(
        kind: MemoryKind,
        capacity_bytes: u64,
        read_bw_gbs: f64,
        write_bw_gbs: f64,
        latency: SimTime,
    ) -> Self {
        assert!(
            read_bw_gbs > 0.0 && write_bw_gbs > 0.0,
            "bandwidth must be positive"
        );
        MemoryLevel {
            kind,
            capacity_bytes,
            read_bw_gbs,
            write_bw_gbs,
            latency,
        }
    }

    /// Time to read `bytes` bytes as one streamed access.
    pub fn read_time(&self, bytes: u64) -> SimTime {
        if bytes == 0 {
            return SimTime::ZERO;
        }
        self.latency + SimTime::from_secs(bytes as f64 / (self.read_bw_gbs * 1e9))
    }

    /// Time to write `bytes` bytes as one streamed access.
    pub fn write_time(&self, bytes: u64) -> SimTime {
        if bytes == 0 {
            return SimTime::ZERO;
        }
        self.latency + SimTime::from_secs(bytes as f64 / (self.write_bw_gbs * 1e9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nvme() -> MemoryLevel {
        crate::presets::nvme_p3700()
    }

    #[test]
    fn zero_bytes_is_free() {
        assert_eq!(nvme().read_time(0), SimTime::ZERO);
        assert_eq!(nvme().write_time(0), SimTime::ZERO);
    }

    #[test]
    fn read_time_scales_linearly_past_latency() {
        let m = nvme();
        let t1 = m.read_time(1 << 20);
        let t2 = m.read_time(2 << 20);
        let per_mib = t2 - t1;
        // The marginal MiB costs exactly bandwidth-determined time.
        let expect = (1u64 << 20) as f64 / (m.read_bw_gbs * 1e9);
        assert!((per_mib.as_secs() - expect).abs() < 1e-12);
    }

    #[test]
    fn small_access_dominated_by_latency() {
        let m = nvme();
        let t = m.read_time(64);
        assert!(t.as_secs() >= m.latency.as_secs());
        assert!(t.as_secs() < m.latency.as_secs() * 1.01);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn rejects_zero_bandwidth() {
        MemoryLevel::new(MemoryKind::Ddr4, 1, 0.0, 1.0, SimTime::ZERO);
    }
}
