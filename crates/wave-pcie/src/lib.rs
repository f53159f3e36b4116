//! # wave-pcie — the host↔SmartNIC interconnect substrate
//!
//! Wave's central challenge is that offloading system software "places the
//! slow PCIe interconnect directly into the decision-making fast path"
//! (§5 of the paper). This crate models that interconnect: it is the
//! simulated stand-in for the real PCIe fabric between the paper's AMD
//! Zen3 host and Intel Mount Evans SmartNIC.
//!
//! Everything is calibrated against the paper's own hardware
//! microbenchmarks (Table 2):
//!
//! | Operation | Paper | Model |
//! |---|---|---|
//! | Host MMIO 64-bit read (uncacheable) | 750 ns | [`PcieConfig::mmio_read_ns`] |
//! | Host MMIO 64-bit write (uncacheable) | 50 ns | [`PcieConfig::mmio_write_uc_ns`] |
//! | MSI-X send (register write) | 70 ns | [`PcieConfig::msix_send_register_ns`] |
//! | MSI-X send (ioctl + register write) | 340 ns | [`PcieConfig::msix_send_ioctl_ns`] |
//! | MSI-X receive | 350 ns | [`PcieConfig::msix_receive_ns`] |
//! | MSI-X end-to-end | 1600 ns | derived (send + transit + receive) |
//!
//! The mechanisms of §5.3 are implemented for real, not merely costed:
//!
//! * **Write-combining (WC)** host PTEs buffer stores per cache line and
//!   make them visible in device memory on `sfence` or when a line fills
//!   ([`mmio::HostMmio::sfence`]).
//! * **Write-through (WT)** host PTEs cache MMIO reads at cache-line
//!   granularity. Cached lines go *stale* when the SmartNIC writes — the
//!   reproduction keeps per-line snapshot timestamps so a stale read
//!   really returns old data unless the software coherence protocol
//!   (`clflush` on MSI-X receipt, §5.3.2) runs.
//! * **Prefetching** (§5.4) issues a non-blocking fill whose completion
//!   time is tracked, so a read issued early enough is free.
//! * **DMA** ([`dma::DmaEngine`]) provides high-throughput asynchronous
//!   transfers with MMIO doorbell setup costs.
//! * **MSI-X** ([`msix::MsixController`]) delivers interrupts with the
//!   Table 2 latencies.
//! * **Coherent mode** ([`PcieConfig::coherent_upi`]) models the §7.3.3
//!   UPI-attached SmartNIC: hardware coherence (no stale snapshots, no
//!   `clflush`), much lower load/store costs.
//!
//! The SmartNIC side has coherent local access to its own DRAM; its cost
//! model ([`soc`]) distinguishes uncached vs. write-back SoC mappings,
//! which is the paper's "WB PTEs on SmartNIC" optimization (Table 3).

pub mod config;
pub mod dma;
pub mod mmio;
pub mod msix;
pub mod pte;
pub mod soc;

pub use config::{InterconnectKind, PcieConfig};
pub use dma::{DmaDirection, DmaEngine, DmaTransfer};
pub use mmio::{HostMmio, LineAddr, ReadOutcome, RegionId, WriteOutcome};
pub use msix::{MsixController, MsixDelivery, MsixSendPath, MsixVector, MsixVectorTable};
pub use pte::PteType;
pub use soc::{NicSoc, SocPteMode};

use wave_sim::SimTime;

/// Bundle of all interconnect-side state for one host↔SmartNIC pair.
///
/// Experiments construct one `Interconnect` and thread it through the
/// queue and Wave-API layers.
///
/// # Examples
///
/// ```
/// use wave_pcie::Interconnect;
/// use wave_sim::SimTime;
///
/// let ic = Interconnect::pcie();
/// assert_eq!(ic.cfg.mmio_read_ns, 750);
/// assert!(ic.one_way() < SimTime::from_us(1));
/// ```
#[derive(Debug)]
pub struct Interconnect {
    /// Shared configuration.
    pub cfg: PcieConfig,
    /// Host-side MMIO state (PTE typing, WC buffer, WT cache).
    pub mmio: HostMmio,
    /// The SmartNIC DMA engine.
    pub dma: DmaEngine,
    /// The MSI-X interrupt controller.
    pub msix: MsixController,
    /// SmartNIC SoC-side access cost model.
    pub soc: NicSoc,
}

impl Interconnect {
    /// Creates an interconnect with the given configuration.
    pub fn new(cfg: PcieConfig) -> Self {
        Interconnect {
            mmio: HostMmio::new(cfg.clone()),
            dma: DmaEngine::new(cfg.clone()),
            msix: MsixController::new(cfg.clone()),
            soc: NicSoc::new(cfg.clone()),
            cfg,
        }
    }

    /// Creates the default PCIe interconnect of the paper's testbed.
    pub fn pcie() -> Self {
        Self::new(PcieConfig::pcie())
    }

    /// Creates the §7.3.3 coherent (UPI-emulated) interconnect.
    pub fn coherent_upi() -> Self {
        Self::new(PcieConfig::coherent_upi())
    }

    /// Creates the on-host shared-memory "interconnect" used by the
    /// paper's on-host agent baselines.
    pub fn host_local() -> Self {
        Self::new(PcieConfig::host_local())
    }

    /// One-way propagation latency for posted writes/messages.
    pub fn one_way(&self) -> SimTime {
        SimTime::from_ns(self.cfg.one_way_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_construction() {
        let ic = Interconnect::pcie();
        assert_eq!(ic.cfg.kind, InterconnectKind::Pcie);
        let ic = Interconnect::coherent_upi();
        assert_eq!(ic.cfg.kind, InterconnectKind::CoherentUpi);
    }

    #[test]
    fn coherent_is_faster_one_way() {
        assert!(Interconnect::coherent_upi().one_way() < Interconnect::pcie().one_way());
    }
}
