//! MSI-X interrupt delivery (paper Table 2, rows 3–6).
//!
//! Wave agents "kick" host cores by writing an MSI-X vector: the paper's
//! scheduling path sends one per committed decision (Fig. 2 step ❺), and
//! the Shinjuku policy uses them for preemption. Two send paths exist:
//! a bare register write (70 ns, available to the privileged agent
//! runtime) and the kernel ioctl path (340 ns, what the prototype's
//! userspace agents use). End-to-end latency from send to handler entry
//! is 1600 ns.

use crate::config::{PcieConfig, Side};
use wave_sim::SimTime;

/// An MSI-X vector, routed to one host core's IRQ handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MsixVector(pub u32);

/// Which software path the sender uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MsixSendPath {
    /// Direct register write (70 ns). Requires the sender to own the
    /// doorbell mapping.
    Register,
    /// Kernel ioctl + register write (340 ns) — the default for
    /// userspace agents, and the path whose cost appears in the Table 3
    /// "open a decision & send MSI-X" rows.
    #[default]
    Ioctl,
}

/// Result of posting an MSI-X.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsixDelivery {
    /// CPU time the *sender* spends posting the interrupt.
    pub sender_cpu: SimTime,
    /// Absolute time the target core's IRQ handler can start.
    pub handler_at: SimTime,
    /// CPU time the *receiver* spends on IRQ entry before the handler
    /// body runs (350 ns).
    pub receiver_cpu: SimTime,
}

/// The interrupt controller connecting SmartNIC agents to host cores.
#[derive(Debug, Clone)]
pub struct MsixController {
    cfg: PcieConfig,
    sent: u64,
    suppressed: u64,
}

impl MsixController {
    /// Creates a controller from the shared interconnect config.
    pub fn new(cfg: PcieConfig) -> Self {
        MsixController {
            cfg,
            sent: 0,
            suppressed: 0,
        }
    }

    /// Posts an MSI-X at `now` from `side` using `path`.
    ///
    /// Returns the sender cost, the receiver cost, and the absolute time
    /// at which the receiving core's handler may begin (send + transit +
    /// receive). The caller schedules the handler event.
    pub fn send(
        &mut self,
        now: SimTime,
        _vector: MsixVector,
        path: MsixSendPath,
        side: Side,
    ) -> MsixDelivery {
        self.sent += 1;
        let send_ns = match path {
            MsixSendPath::Register => self.cfg.msix_send_register_ns,
            MsixSendPath::Ioctl => self.cfg.msix_send_ioctl_ns,
        };
        // Host→host "MSI-X" (used when emulating on-host agents) skips
        // the PCIe transit and behaves like an IPI.
        let transit = match side {
            Side::Nic => self.cfg.msix_transit_ns,
            Side::Host => self.cfg.msix_transit_ns / 4,
        };
        let sender_cpu = SimTime::from_ns(send_ns);
        let receiver_cpu = SimTime::from_ns(self.cfg.msix_receive_ns);
        MsixDelivery {
            sender_cpu,
            handler_at: now + sender_cpu + SimTime::from_ns(transit) + receiver_cpu,
            receiver_cpu,
        }
    }

    /// Records an interrupt that the sender *chose not to send* because
    /// the host polls instead (the `TXNS_COMMIT(q, skip msi-x)` mode used
    /// by the RPC stack, §4.3).
    pub fn suppress(&mut self) {
        self.suppressed += 1;
    }

    /// Interrupts sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Interrupts suppressed so far.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }
}

/// The device's bounded MSI-X vector space.
///
/// Real NICs expose a fixed vector table (Mount Evans: low thousands,
/// but carved up per PF/VF — a tenant's slice is small). With T tenants
/// each wanting one vector per worker core, the table is a genuinely
/// exhaustible resource: a tenant's bundle allocates all-or-nothing,
/// and a tenant that cannot get vectors falls back to *degraded
/// polling* (the host discovers decisions on a poll grid instead of
/// being kicked — see the tenant registry). Vectors are never freed, so
/// the table is a count: blocks are handed out in ascending order.
#[derive(Debug, Clone)]
pub struct MsixVectorTable {
    capacity: usize,
    in_use: usize,
}

impl MsixVectorTable {
    /// Creates a table with `capacity` vectors, all free.
    pub fn new(capacity: usize) -> Self {
        MsixVectorTable {
            capacity,
            in_use: 0,
        }
    }

    /// Vectors currently free.
    pub fn available(&self) -> usize {
        self.capacity - self.in_use
    }

    /// Allocates the next `n` vectors, all-or-nothing: a tenant bundle
    /// needs one vector per worker core, and a partial set is useless —
    /// it would still have to poll for the uncovered cores.
    pub fn alloc_block(&mut self, n: usize) -> Option<Vec<MsixVector>> {
        if self.available() < n {
            return None;
        }
        let first = self.in_use;
        self.in_use += n;
        Some((first..self.in_use).map(|i| MsixVector(i as u32)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_matches_table2() {
        let mut ctl = MsixController::new(PcieConfig::pcie());
        let d = ctl.send(
            SimTime::ZERO,
            MsixVector(0),
            MsixSendPath::Register,
            Side::Nic,
        );
        assert_eq!(d.sender_cpu, SimTime::from_ns(70));
        assert_eq!(d.receiver_cpu, SimTime::from_ns(350));
        assert_eq!(d.handler_at, SimTime::from_ns(1_600));
        assert_eq!(ctl.sent(), 1);
    }

    #[test]
    fn ioctl_path_costs_more() {
        let mut ctl = MsixController::new(PcieConfig::pcie());
        let d = ctl.send(SimTime::ZERO, MsixVector(3), MsixSendPath::Ioctl, Side::Nic);
        assert_eq!(d.sender_cpu, SimTime::from_ns(340));
        assert_eq!(d.handler_at, SimTime::from_ns(340 + 1_180 + 350));
    }

    #[test]
    fn host_side_ipi_is_faster() {
        let mut ctl = MsixController::new(PcieConfig::pcie());
        let nic = ctl.send(
            SimTime::ZERO,
            MsixVector(0),
            MsixSendPath::Register,
            Side::Nic,
        );
        let host = ctl.send(
            SimTime::ZERO,
            MsixVector(0),
            MsixSendPath::Register,
            Side::Host,
        );
        assert!(host.handler_at < nic.handler_at);
    }

    #[test]
    fn suppression_is_counted() {
        let mut ctl = MsixController::new(PcieConfig::pcie());
        ctl.suppress();
        ctl.suppress();
        assert_eq!(ctl.suppressed(), 2);
        assert_eq!(ctl.sent(), 0);
    }

    #[test]
    fn block_allocation_is_all_or_nothing() {
        let mut tbl = MsixVectorTable::new(8);
        let t0 = tbl.alloc_block(6).unwrap();
        assert_eq!(t0, (0..6).map(MsixVector).collect::<Vec<_>>());
        // Tenant 1 wants 4; only 2 remain — nothing is consumed.
        assert!(tbl.alloc_block(4).is_none());
        assert_eq!(tbl.available(), 2, "failed block left the table intact");
        assert_eq!(tbl.alloc_block(2), Some(vec![MsixVector(6), MsixVector(7)]));
        assert_eq!(tbl.available(), 0);
    }
}
