//! The three Fig. 6 deployment scenarios as scheduling-sim configs.
//!
//! §7.3.1's comparison:
//!
//! 1. **OnHost-All** — RPC stack (8 host cores) + ghOSt scheduler (1 host
//!    core) + RocksDB (15 host cores). Everything over host shared
//!    memory.
//! 2. **OnHost-Schedule** — RPC stack offloaded to the SmartNIC; the
//!    scheduler stays on the host and must *read RPC headers over PCIe*
//!    to make placement decisions (the scenario's downfall).
//! 3. **Offload-All** — stack and scheduler co-located on the SmartNIC;
//!    RocksDB gets all 16 host cores; workers poll per-core MMIO queues
//!    (commits skip the MSI-X, §4.3).

use wave_core::workload::{ServiceMix, WorkloadSpec};
use wave_core::OptLevel;
use wave_ghost::sim::{IngressConfig, Placement, SchedConfig};
use wave_pcie::PcieConfig;
use wave_sim::SimTime;

use crate::header::RpcHeader;
use crate::stack::StackModel;

/// Which scheduler the scenario runs (Fig. 6a vs 6b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Single-queue Shinjuku (Fig. 6a).
    SingleQueue,
    /// Multi-queue Shinjuku keyed by the RPC's SLO class (Fig. 6b).
    MultiQueueSlo,
}

/// A Fig. 6 deployment scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig6Scenario {
    /// Scheduler + RPC stack on host (8 + 1 cores), RocksDB on 15.
    OnHostAll,
    /// RPC stack on the NIC, scheduler on host (1 core), RocksDB on 15.
    OnHostSchedule,
    /// Scheduler + RPC stack on the NIC, RocksDB on 16.
    OffloadAll,
    /// Apples-to-apples variant: Offload-All restricted to 15 RocksDB
    /// cores (paper: −6.3% single-queue, −7.4% multi-queue).
    OffloadAll15,
}

impl Fig6Scenario {
    /// Display label matching the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            Fig6Scenario::OnHostAll => "(1) OnHost-All",
            Fig6Scenario::OnHostSchedule => "(2) OnHost-Schedule",
            Fig6Scenario::OffloadAll => "(3) Offload-All",
            Fig6Scenario::OffloadAll15 => "(3') Offload-All (15 cores)",
        }
    }

    /// RocksDB worker cores.
    pub fn workers(self) -> u32 {
        match self {
            Fig6Scenario::OffloadAll => 16,
            _ => 15,
        }
    }

    /// Where the scheduler runs.
    pub fn scheduler_placement(self) -> Placement {
        match self {
            Fig6Scenario::OnHostAll | Fig6Scenario::OnHostSchedule => Placement::OnHost,
            _ => Placement::Offloaded,
        }
    }

    /// The stack deployment.
    pub fn stack(self) -> StackModel {
        match self {
            Fig6Scenario::OnHostAll => StackModel::onhost(),
            _ => StackModel::offloaded(),
        }
    }

    /// Host cores the whole deployment consumes (workers + scheduler +
    /// stack) — the resource-recovery story of §7.3.1 ("Offload-All
    /// recovers 9 host cores").
    pub fn host_cores_used(self) -> u32 {
        let sched = match self.scheduler_placement() {
            Placement::OnHost => 1,
            Placement::Offloaded => 0,
        };
        self.workers() + sched + self.stack().host_cores_used()
    }

    /// Per-decision scheduler-side PCIe reads: OnHost-Schedule must pull
    /// the RPC header (and, for the SLO scheduler, the payload's SLO
    /// field) through uncached MMIO loads.
    pub fn agent_decision_extra(self, kind: SchedulerKind, pcie: &PcieConfig) -> SimTime {
        if self != Fig6Scenario::OnHostSchedule {
            return SimTime::ZERO;
        }
        let words = match kind {
            // Header plus flow/dispatch state.
            SchedulerKind::SingleQueue => RpcHeader::WIRE_WORDS + 5,
            // Header + digging the SLO out of the payload: "the overhead
            // of reading the SLO (not just the RPC header) via PCIe
            // dominates" (§7.3.2).
            SchedulerKind::MultiQueueSlo => RpcHeader::WIRE_WORDS + 7,
        };
        SimTime::from_ns(words * pcie.mmio_read_ns)
    }

    /// The scenario's [`SchedConfig`] for one scheduler kind, with the
    /// paper's Fig. 6 defaults: one agent, no rebalancing, the bimodal
    /// mix at 100k req/s, a 600 ms run with 100 ms warm-up. Callers
    /// adjust `workload`, `duration`, `warmup`, `seed`, … directly.
    pub fn sched_config(self, kind: SchedulerKind) -> SchedConfig {
        let pcie = PcieConfig::pcie();
        let stack = self.stack();
        let mut cfg =
            SchedConfig::new(self.workers(), self.scheduler_placement(), OptLevel::full());
        cfg.workload = WorkloadSpec::poisson(ServiceMix::paper_bimodal(), 100_000.0);
        cfg.duration = SimTime::from_ms(600);
        cfg.warmup = SimTime::from_ms(100);
        cfg.ingress = Some(IngressConfig {
            stack_cores: stack.cores,
            stack_core: stack.core_class(),
            per_rpc: stack.per_rpc,
            network_delay: stack.network_delay,
            worker_receive: stack.worker_receive(&pcie),
            worker_respond: stack.worker_respond(&pcie),
        });
        cfg.agent_decision_extra = self.agent_decision_extra(kind, &pcie);
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offload_recovers_nine_host_cores() {
        // OnHost-All: 15 + 1 + 8 = 24; Offload-All: 16 + 0 + 0 = 16.
        // With equal workers (15) the recovery is 24 - 15 = 9 cores.
        assert_eq!(Fig6Scenario::OnHostAll.host_cores_used(), 24);
        assert_eq!(Fig6Scenario::OffloadAll.host_cores_used(), 16);
        assert_eq!(Fig6Scenario::OffloadAll15.host_cores_used(), 15);
        assert_eq!(
            Fig6Scenario::OnHostAll.host_cores_used()
                - Fig6Scenario::OffloadAll15.host_cores_used(),
            9
        );
    }

    #[test]
    fn onhost_schedule_pays_header_reads() {
        let pcie = PcieConfig::pcie();
        let single =
            Fig6Scenario::OnHostSchedule.agent_decision_extra(SchedulerKind::SingleQueue, &pcie);
        let multi =
            Fig6Scenario::OnHostSchedule.agent_decision_extra(SchedulerKind::MultiQueueSlo, &pcie);
        assert!(single >= SimTime::from_us(4));
        assert!(multi > single, "reading the SLO widens the gap");
        assert_eq!(
            Fig6Scenario::OffloadAll.agent_decision_extra(SchedulerKind::MultiQueueSlo, &pcie),
            SimTime::ZERO
        );
    }

    #[test]
    fn configs_are_buildable() {
        for sc in [
            Fig6Scenario::OnHostAll,
            Fig6Scenario::OnHostSchedule,
            Fig6Scenario::OffloadAll,
            Fig6Scenario::OffloadAll15,
        ] {
            let cfg = sc.sched_config(SchedulerKind::SingleQueue);
            assert!(cfg.ingress.is_some());
            assert_eq!(cfg.workers, sc.workers());
            assert_eq!(cfg.agents, 1);
            assert!((cfg.workload.offered() - 100_000.0).abs() < 1e-6);
            assert_eq!(cfg.duration, SimTime::from_ms(600));
            assert_eq!(cfg.warmup, SimTime::from_ms(100));
        }
    }

    #[test]
    fn sharded_config_sets_agent_count() {
        // The scenario config runs sharded: 16 workers across 4 agents,
        // every agent deciding.
        let mut cfg = Fig6Scenario::OffloadAll.sched_config(SchedulerKind::SingleQueue);
        cfg.agents = 4;
        cfg.duration = SimTime::from_ms(20);
        cfg.warmup = SimTime::from_ms(5);
        let rep = wave_ghost::sim::SchedSim::with_policy_factory(cfg, |_| {
            Box::new(wave_ghost::policies::ShinjukuPolicy::paper_default())
        })
        .run();
        assert_eq!(rep.per_agent_decisions.len(), 4);
        assert!(rep.per_agent_decisions.iter().all(|&d| d > 0));
    }
}
