//! Calibrated host-side scheduling costs.
//!
//! The interconnect constants live in [`wave_pcie::PcieConfig`] (Table 2
//! anchors); this model holds the *kernel-path* constants that
//! [`SchedSim`](crate::sim::SchedSim) charges. `wave-lab`'s Table 3
//! measures its context-switch rows on that model: every row lands
//! within 15% of the paper's band, and three of the nine inside it.

use wave_sim::SimTime;

/// Host kernel cost constants for the scheduling path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Kernel bookkeeping on a thread event before the message is sent
    /// (update thread state, locate queues).
    pub kernel_event_ns: u64,
    /// The kernel context switch itself (save/restore, mm switch).
    pub kernel_switch_ns: u64,
    /// Transaction validation (generation check) at commit.
    pub validate_ns: u64,
    /// Reporting the transaction outcome on-host (bookkeeping only).
    pub outcome_report_ns: u64,
    /// Extra commit-path work when the agent is remote: the consumed
    /// flag and outcome record must cross PCIe and the Wave txn layer
    /// runs in full. Zero for on-host agents.
    pub remote_commit_extra_ns: u64,
    /// Spin-loop discovery latency: how long after a message becomes
    /// visible until the polling agent picks it up (half a poll
    /// iteration on average).
    pub agent_pickup_ns: u64,
    /// Words in a kernel→agent message entry.
    pub msg_words: u64,
    /// Words in a decision entry, as a ghOSt transaction lays one out
    /// (txn id, tid, generation, cpu, flags, payload). The simulated
    /// decision is just the generation-stamped `Tid`; every slot write
    /// still pays for all of them.
    pub decision_words: u64,
    /// Per-request application-layer overhead outside the measured DB
    /// service time (RPC glue, RocksDB request setup/teardown).
    pub app_overhead_ns: u64,
}

impl CostModel {
    /// Defaults calibrated against Table 3 (see module docs).
    pub fn calibrated() -> Self {
        CostModel {
            kernel_event_ns: 700,
            kernel_switch_ns: 1_900,
            validate_ns: 50,
            outcome_report_ns: 150,
            remote_commit_extra_ns: 200,
            agent_pickup_ns: 100,
            msg_words: 4,
            decision_words: 6,
            app_overhead_ns: 4_800,
        }
    }

    /// Kernel event bookkeeping cost.
    pub fn kernel_event(&self) -> SimTime {
        SimTime::from_ns(self.kernel_event_ns)
    }

    /// Context-switch cost.
    pub fn kernel_switch(&self) -> SimTime {
        SimTime::from_ns(self.kernel_switch_ns)
    }

    /// Commit-path cost on the host: validation + outcome bookkeeping,
    /// plus the remote extra if the agent is offloaded.
    pub fn commit_path(&self, offloaded: bool) -> SimTime {
        let extra = if offloaded {
            self.remote_commit_extra_ns
        } else {
            0
        };
        SimTime::from_ns(self.validate_ns + self.outcome_report_ns + extra)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_path_charges_remote_extra() {
        let c = CostModel::calibrated();
        assert!(c.commit_path(true) > c.commit_path(false));
        assert_eq!(
            c.commit_path(true) - c.commit_path(false),
            SimTime::from_ns(200)
        );
    }

    #[test]
    fn defaults_are_sane() {
        let c = CostModel::calibrated();
        assert!(c.kernel_switch() > c.kernel_event());
        assert!(c.decision_words >= 4);
    }
}
