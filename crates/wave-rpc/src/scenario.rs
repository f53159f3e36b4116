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

use wave_core::shard_map::RebalanceConfig;
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

    /// Starts a [`SchedConfigBuilder`] for this scenario — the one way
    /// the kind/agents/rebalance/weights/workload knobs combine into a
    /// [`SchedConfig`].
    pub fn config(self, kind: SchedulerKind) -> SchedConfigBuilder {
        SchedConfigBuilder {
            scenario: self,
            kind,
            agents: 1,
            rebalance: None,
            wakeup_weights: None,
            steal: false,
            workload: None,
            offered: None,
            duration: None,
            warmup: None,
            seed: None,
            phases: Vec::new(),
        }
    }
}

/// Builder collapsing the Fig. 6 configuration knobs: scheduler kind,
/// shard count, rebalancing, wakeup skew, and which [`WorkloadSpec`]
/// drives the run.
///
/// Defaults match the paper's Fig. 6 setup: one agent, no rebalancing,
/// the bimodal mix at 100k req/s, 600 ms / 100 ms timing.
#[derive(Debug, Clone)]
pub struct SchedConfigBuilder {
    scenario: Fig6Scenario,
    kind: SchedulerKind,
    agents: u32,
    rebalance: Option<RebalanceConfig>,
    wakeup_weights: Option<Vec<u32>>,
    steal: bool,
    workload: Option<WorkloadSpec>,
    offered: Option<f64>,
    duration: Option<SimTime>,
    warmup: Option<SimTime>,
    seed: Option<u64>,
    phases: Vec<SimTime>,
}

impl SchedConfigBuilder {
    /// Shards the scheduler across `agents` SmartNIC cores (§6
    /// scale-out). On-host scenarios would burn one host core per extra
    /// agent, so multi-agent configs are only meaningful for the
    /// offloaded scenarios; the config is built either way and the
    /// caller decides.
    pub fn agents(mut self, agents: u32) -> Self {
        self.agents = agents;
        self
    }

    /// Enables epoch-driven core rebalancing between the agent shards.
    pub fn rebalance(mut self, rc: RebalanceConfig) -> Self {
        self.rebalance = Some(rc);
        self
    }

    /// Skews new-thread wakeup routing across the shards.
    pub fn wakeup_weights(mut self, weights: Vec<u32>) -> Self {
        self.wakeup_weights = Some(weights);
        self
    }

    /// Lets an idle shard steal work from a sibling run queue.
    pub fn steal(mut self, steal: bool) -> Self {
        self.steal = steal;
        self
    }

    /// Replaces the default bimodal-Poisson workload with `spec` (e.g. a
    /// trace replay or the synthetic production generator).
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.workload = Some(spec);
        self
    }

    /// Sets the offered load (applied to whatever workload spec the
    /// builder ends up with).
    pub fn offered(mut self, rate: f64) -> Self {
        self.offered = Some(rate);
        self
    }

    /// Overrides the simulated duration.
    pub fn duration(mut self, d: SimTime) -> Self {
        self.duration = Some(d);
        self
    }

    /// Overrides the warmup window.
    pub fn warmup(mut self, w: SimTime) -> Self {
        self.warmup = Some(w);
        self
    }

    /// Overrides the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets per-phase latency-report boundaries (ascending).
    pub fn phases(mut self, phases: Vec<SimTime>) -> Self {
        self.phases = phases;
        self
    }

    /// Builds the [`SchedConfig`].
    pub fn build(self) -> SchedConfig {
        let pcie = PcieConfig::pcie();
        let stack = self.scenario.stack();
        let mut cfg = SchedConfig::new(
            self.scenario.workers(),
            self.scenario.scheduler_placement(),
            OptLevel::full(),
        );
        cfg.agents = self.agents;
        cfg.rebalance = self.rebalance;
        cfg.wakeup_weights = self.wakeup_weights;
        cfg.steal = self.steal;
        cfg.workload = self
            .workload
            .unwrap_or_else(|| WorkloadSpec::poisson(ServiceMix::paper_bimodal(), 100_000.0));
        if let Some(rate) = self.offered {
            cfg.workload.set_offered(rate);
        }
        cfg.phases = self.phases;
        cfg.duration = self.duration.unwrap_or(SimTime::from_ms(600));
        cfg.warmup = self.warmup.unwrap_or(SimTime::from_ms(100));
        if let Some(seed) = self.seed {
            cfg.seed = seed;
        }
        cfg.ingress = Some(IngressConfig {
            stack_cores: stack.cores,
            stack_core: stack.core_class(),
            per_rpc: stack.per_rpc,
            network_delay: stack.network_delay,
            worker_receive: stack.worker_receive(&pcie),
            worker_respond: stack.worker_respond(&pcie),
        });
        cfg.agent_decision_extra = self.scenario.agent_decision_extra(self.kind, &pcie);
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
            let cfg = sc.config(SchedulerKind::SingleQueue).build();
            assert!(cfg.ingress.is_some());
            assert_eq!(cfg.workers, sc.workers());
            assert_eq!(cfg.agents, 1);
        }
    }

    #[test]
    fn sharded_config_sets_agent_count() {
        let cfg = Fig6Scenario::OffloadAll
            .config(SchedulerKind::SingleQueue)
            .agents(4)
            .build();
        assert_eq!(cfg.agents, 4);
        assert_eq!(cfg.workers, 16);
    }

    #[test]
    fn builder_knobs_apply() {
        let cfg = Fig6Scenario::OffloadAll
            .config(SchedulerKind::SingleQueue)
            .agents(2)
            .steal(true)
            .wakeup_weights(vec![3, 1])
            .rebalance(RebalanceConfig::every(SimTime::from_ms(10)))
            .offered(250_000.0)
            .seed(7)
            .phases(vec![SimTime::from_ms(200)])
            .build();
        assert!(cfg.steal);
        assert_eq!(cfg.wakeup_weights, Some(vec![3, 1]));
        assert!(cfg.rebalance.is_some());
        assert!((cfg.workload.offered() - 250_000.0).abs() < 1e-6);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.phases.len(), 1);
    }
}
