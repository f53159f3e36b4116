//! Interconnect configuration, calibrated against the paper's Table 2.

use wave_sim::SimTime;

/// Which physical interconnect connects the host and the SmartNIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterconnectKind {
    /// Non-coherent PCIe (the paper's Mount Evans testbed).
    Pcie,
    /// A coherent interconnect (the §7.3.3 UPI emulation; CXL/NVLink
    /// behave equivalently at this level of abstraction). Hardware
    /// coherence means host caches of device memory are never stale and
    /// no software coherence protocol is needed.
    CoherentUpi,
    /// No interconnect at all: the "agent" runs on a host core and all
    /// queues live in ordinary coherent host DRAM. This is the paper's
    /// on-host ghOSt baseline, expressed through the same machinery so
    /// every comparison is apples-to-apples.
    HostShared,
}

/// All latency/bandwidth constants of the interconnect model.
///
/// Field defaults come from the paper's Table 2 plus the decompositions
/// given on each field below (see also `docs/ARCHITECTURE.md`);
/// experiments that sweep hardware parameters (e.g. §7.3.3) construct
/// modified copies.
#[derive(Debug, Clone, PartialEq)]
pub struct PcieConfig {
    /// Interconnect family.
    pub kind: InterconnectKind,

    // --- MMIO (host side) ---------------------------------------------
    /// Blocking cost of a 64-bit uncacheable host read of device memory
    /// (full PCIe round trip). Paper: 750 ns.
    pub mmio_read_ns: u64,
    /// CPU cost of a 64-bit uncacheable host write (posted, not
    /// acknowledged). Paper: 50 ns.
    pub mmio_write_uc_ns: u64,
    /// CPU cost of a 64-bit store into the write-combining buffer.
    pub mmio_write_wc_ns: u64,
    /// CPU cost of `sfence` draining the write-combining buffer.
    pub wc_flush_ns: u64,
    /// Cost of a host load that hits a (write-through-cached) line.
    pub wt_hit_ns: u64,
    /// CPU cost of `clflush` on one line (the software coherence step).
    pub clflush_ns: u64,
    /// CPU cost of issuing a non-blocking prefetch.
    pub prefetch_issue_ns: u64,
    /// One-way propagation of posted writes / message data to the other
    /// side of the link.
    pub one_way_ns: u64,
    /// Cache line size (64 B on both sides of the paper's testbed).
    pub cacheline_bytes: u64,

    // --- DMA -----------------------------------------------------------
    /// Number of MMIO doorbell writes needed to initiate one DMA.
    pub dma_setup_writes: u64,
    /// Fixed engine latency per DMA transfer, beyond the doorbell writes.
    pub dma_engine_latency_ns: u64,
    /// DMA bandwidth in bytes per nanosecond (≈ GB/s). Mount Evans
    /// sustains tens of GB/s; 20 GB/s keeps the §7.4 full-address-space
    /// PTE transfer at the paper's ~1 ms.
    pub dma_bytes_per_ns: f64,

    // --- MSI-X ----------------------------------------------------------
    /// MSI-X send as a bare register write. Paper: 70 ns.
    pub msix_send_register_ns: u64,
    /// MSI-X send through the kernel ioctl path. Paper: 340 ns.
    pub msix_send_ioctl_ns: u64,
    /// Cost on the receiving host core (IRQ entry to handler). Paper:
    /// 350 ns.
    pub msix_receive_ns: u64,
    /// In-flight interrupt transit such that send(register) + transit +
    /// receive equals the paper's 1600 ns end-to-end figure.
    pub msix_transit_ns: u64,

    // --- SmartNIC SoC side ----------------------------------------------
    /// NIC-core cost per 64-bit access to queue memory mapped *uncached*
    /// on the SoC (the Table 3 baseline). Derived from the paper's
    /// open-decision numbers: 1013 ns ≈ 8 words × 84 ns + 340 ns ioctl
    /// MSI-X send.
    pub soc_uncached_word_ns: u64,
    /// NIC-core cost per 64-bit access with write-back SoC PTEs (the
    /// "WB PTEs on SmartNIC" optimization): 426 ns ≈ 8 × 11 + 340.
    pub soc_wb_word_ns: u64,
}

/// Which side of the interconnect initiates an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The host CPU.
    Host,
    /// A SmartNIC core.
    Nic,
}

impl PcieConfig {
    /// The paper's PCIe testbed (Table 2 values).
    pub fn pcie() -> Self {
        PcieConfig {
            kind: InterconnectKind::Pcie,
            mmio_read_ns: 750,
            mmio_write_uc_ns: 50,
            mmio_write_wc_ns: 10,
            wc_flush_ns: 50,
            wt_hit_ns: 2,
            clflush_ns: 20,
            prefetch_issue_ns: 2,
            one_way_ns: 350,
            cacheline_bytes: 64,
            dma_setup_writes: 3,
            dma_engine_latency_ns: 600,
            dma_bytes_per_ns: 20.0,
            msix_send_register_ns: 70,
            msix_send_ioctl_ns: 340,
            msix_receive_ns: 350,
            msix_transit_ns: 1_180,
            soc_uncached_word_ns: 84,
            soc_wb_word_ns: 11,
        }
    }

    /// The §7.3.3 UPI-emulated coherent interconnect: cross-socket loads
    /// ~150 ns, hardware coherence, IPI-like interrupts.
    pub fn coherent_upi() -> Self {
        PcieConfig {
            kind: InterconnectKind::CoherentUpi,
            mmio_read_ns: 150,
            mmio_write_uc_ns: 40,
            mmio_write_wc_ns: 8,
            wc_flush_ns: 30,
            wt_hit_ns: 2,
            clflush_ns: 0, // hardware coherence: flushes are no-ops
            prefetch_issue_ns: 2,
            one_way_ns: 70,
            cacheline_bytes: 64,
            dma_setup_writes: 3,
            dma_engine_latency_ns: 400,
            dma_bytes_per_ns: 30.0,
            msix_send_register_ns: 70,
            msix_send_ioctl_ns: 200,
            msix_receive_ns: 350,
            msix_transit_ns: 380,
            soc_uncached_word_ns: 84,
            soc_wb_word_ns: 11,
        }
    }

    /// On-host shared memory, for the paper's on-host agent baselines.
    ///
    /// Calibrated against the paper's on-host ghOSt microbenchmarks
    /// (Table 3, rows 3-4): "open a decision in agent & send interrupt"
    /// is 770 ns ~ 8 queue-word stores at ~9 ns + a ~700 ns
    /// syscall-path interrupt send.
    pub fn host_local() -> Self {
        PcieConfig {
            kind: InterconnectKind::HostShared,
            mmio_read_ns: 80, // cross-CCX cache miss
            mmio_write_uc_ns: 20,
            mmio_write_wc_ns: 10,
            wc_flush_ns: 20,
            wt_hit_ns: 2,
            clflush_ns: 0, // hardware coherence
            prefetch_issue_ns: 2,
            one_way_ns: 40, // cache-to-cache propagation
            cacheline_bytes: 64,
            dma_setup_writes: 0,
            dma_engine_latency_ns: 0,
            dma_bytes_per_ns: 40.0, // memcpy bandwidth
            msix_send_register_ns: 70,
            msix_send_ioctl_ns: 700, // kernel IPI path
            msix_receive_ns: 350,
            msix_transit_ns: 400,
            soc_uncached_word_ns: 9, // "SoC" accesses are host DRAM here
            soc_wb_word_ns: 9,
        }
    }

    /// Whether the interconnect provides hardware cache coherence.
    pub fn is_coherent(&self) -> bool {
        matches!(
            self.kind,
            InterconnectKind::CoherentUpi | InterconnectKind::HostShared
        )
    }

    /// End-to-end MSI-X latency (register-write path), paper Table 2 row
    /// 6.
    pub fn msix_end_to_end(&self) -> SimTime {
        SimTime::from_ns(self.msix_send_register_ns + self.msix_transit_ns + self.msix_receive_ns)
    }

    /// Duration of a DMA transfer of `bytes` once initiated.
    pub fn dma_duration(&self, bytes: u64) -> SimTime {
        SimTime::from_ns(self.dma_engine_latency_ns + (bytes as f64 / self.dma_bytes_per_ns) as u64)
    }

    /// Number of 64-bit words per cache line.
    pub fn words_per_line(&self) -> u64 {
        self.cacheline_bytes / 8
    }
}

impl Default for PcieConfig {
    fn default() -> Self {
        Self::pcie()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_anchors() {
        let c = PcieConfig::pcie();
        assert_eq!(c.mmio_read_ns, 750);
        assert_eq!(c.mmio_write_uc_ns, 50);
        assert_eq!(c.msix_send_register_ns, 70);
        assert_eq!(c.msix_send_ioctl_ns, 340);
        assert_eq!(c.msix_receive_ns, 350);
        assert_eq!(c.msix_end_to_end(), SimTime::from_ns(1_600));
    }

    #[test]
    fn dma_duration_scales_with_bytes() {
        let c = PcieConfig::pcie();
        let small = c.dma_duration(64);
        let big = c.dma_duration(1 << 20);
        assert!(big > small);
        // 1 MiB at 20 B/ns ~ 52 us + fixed.
        assert!((big.as_ns() as i64 / 1_000 - 52).unsigned_abs() < 4);
    }

    #[test]
    fn full_address_space_dma_near_1ms() {
        // §7.4.2: "Transferring the page table entries with DMA for the
        // entire RocksDB address space takes ~1 ms". 100 GiB / 4 KiB
        // pages = 26.2 M PTEs x 8 B = ~210 MB... the paper ships them
        // compressed per batch; we model one 8-byte PTE per 4 KiB page of
        // a 100 GiB space, in 256 KiB batches = 409600 batch headers.
        // 26.2M PTEs * 8B = 210MB at 20B/ns = 10.5ms; the paper's ~1ms
        // implies ~10:1 delta compression, i.e. ~21MB on the wire.
        let c = PcieConfig::pcie();
        let wire_bytes = 21_000_000;
        let d = c.dma_duration(wire_bytes);
        assert!(
            d >= SimTime::from_us(900) && d <= SimTime::from_us(1_200),
            "{d}"
        );
    }

    #[test]
    fn coherent_upi_is_coherent() {
        assert!(PcieConfig::coherent_upi().is_coherent());
        assert!(!PcieConfig::pcie().is_coherent());
    }

    #[test]
    fn words_per_line() {
        assert_eq!(PcieConfig::pcie().words_per_line(), 8);
    }
}
