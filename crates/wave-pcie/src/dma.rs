//! The SmartNIC DMA engine (§5.2).
//!
//! DMA moves bulk data between host DRAM and SmartNIC DRAM without CPU
//! involvement beyond a few doorbell MMIO writes. Wave routes
//! high-throughput, latency-tolerant traffic over DMA — the memory
//! manager's page-table-entry shipments (§4.2) need 1+ Gbps — while
//! µs-scale traffic uses MMIO.
//!
//! Every transfer is asynchronous, the mode iPipe measured 2–7× faster
//! (quoted in §5.1): the initiator pays only the doorbell writes and
//! later observes completion at [`DmaTransfer::complete_at`].
//! A single engine serializes transfers, so queueing delay emerges under
//! load — but *only* under genuine overlap: a transfer issued after the
//! engine drains sees no queueing, which is what lets periodic callers
//! (e.g. the memory agent's 600 ms scan cadence) issue their legs on the
//! shared wall clock and still get comparable per-iteration timings.

use crate::config::{PcieConfig, Side};
use wave_sim::SimTime;

/// Transfer direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DmaDirection {
    /// Host DRAM → SmartNIC DRAM.
    HostToNic,
    /// SmartNIC DRAM → host DRAM.
    NicToHost,
}

/// A scheduled DMA transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaTransfer {
    /// CPU time consumed on the initiating core: the doorbell writes.
    pub initiator_cpu: SimTime,
    /// Absolute time at which the data is fully visible on the receiving
    /// side.
    pub complete_at: SimTime,
    /// Payload size.
    pub bytes: u64,
    /// Direction of the transfer.
    pub direction: DmaDirection,
}

/// The (single) DMA engine of the SmartNIC.
///
/// There is deliberately no second engine: every transfer serializes
/// through this one `busy_until` horizon, which is where DMA queueing
/// delay comes from.
#[derive(Debug, Clone)]
pub struct DmaEngine {
    cfg: PcieConfig,
    busy_until: SimTime,
    transfers: u64,
    bytes_moved: u64,
}

impl DmaEngine {
    /// Creates an idle engine.
    pub fn new(cfg: PcieConfig) -> Self {
        DmaEngine {
            cfg,
            busy_until: SimTime::ZERO,
            transfers: 0,
            bytes_moved: 0,
        }
    }

    /// Initiates a transfer of `bytes` at `now` from `initiator`, which
    /// pays the doorbell setup and continues.
    ///
    /// The engine serializes transfers: if it is still busy, the new
    /// transfer starts when the previous one drains.
    pub fn transfer(
        &mut self,
        now: SimTime,
        bytes: u64,
        direction: DmaDirection,
        initiator: Side,
    ) -> DmaTransfer {
        let doorbell_word_ns = match initiator {
            Side::Host => self.cfg.mmio_write_uc_ns,
            // NIC cores ring their local engine with cheap WB stores.
            Side::Nic => self.cfg.soc_wb_word_ns,
        };
        let setup = SimTime::from_ns(self.cfg.dma_setup_writes * doorbell_word_ns);
        let start = (now + setup).max(self.busy_until);
        let complete_at = start + self.cfg.dma_duration(bytes);
        self.busy_until = complete_at;
        self.transfers += 1;
        self.bytes_moved += bytes;
        DmaTransfer {
            initiator_cpu: setup,
            complete_at,
            bytes,
            direction,
        }
    }

    /// When the engine next goes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Number of transfers initiated.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Total payload bytes moved.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> DmaEngine {
        DmaEngine::new(PcieConfig::pcie())
    }

    #[test]
    fn async_initiator_pays_setup_only() {
        let mut e = engine();
        let t = e.transfer(SimTime::ZERO, 4096, DmaDirection::HostToNic, Side::Host);
        assert_eq!(t.initiator_cpu, SimTime::from_ns(3 * 50));
        assert!(t.complete_at > t.initiator_cpu);
    }

    #[test]
    fn engine_serializes_transfers() {
        let mut e = engine();
        let t1 = e.transfer(SimTime::ZERO, 1 << 20, DmaDirection::HostToNic, Side::Host);
        let t2 = e.transfer(SimTime::ZERO, 64, DmaDirection::HostToNic, Side::Host);
        assert!(
            t2.complete_at > t1.complete_at,
            "second transfer queues behind first"
        );
        assert_eq!(e.transfers(), 2);
        assert_eq!(e.bytes_moved(), (1 << 20) + 64);
    }

    #[test]
    fn idle_engine_does_not_queue_later_transfers() {
        // The property the retired per-iteration DMA clock violated:
        // two identical transfers far enough apart that the engine
        // drains in between must see identical relative latencies —
        // queueing delay exists only under genuine overlap.
        let mut e = engine();
        let t1 = e.transfer(SimTime::ZERO, 1 << 20, DmaDirection::HostToNic, Side::Host);
        let later = SimTime::from_ms(600);
        assert!(e.busy_until() < later, "engine drained between periods");
        let t2 = e.transfer(later, 1 << 20, DmaDirection::HostToNic, Side::Host);
        assert_eq!(t2.complete_at - later, t1.complete_at, "no queueing");
    }

    #[test]
    fn bandwidth_shape() {
        // Doubling bytes should roughly double transfer time for large
        // payloads.
        let mut e = engine();
        let t1 = e.transfer(SimTime::ZERO, 10 << 20, DmaDirection::HostToNic, Side::Host);
        let d1 = t1.complete_at;
        let mut e = engine();
        let t2 = e.transfer(SimTime::ZERO, 20 << 20, DmaDirection::HostToNic, Side::Host);
        let d2 = t2.complete_at;
        let ratio = d2.as_ns() as f64 / d1.as_ns() as f64;
        assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
    }
}
