//! The end-to-end scheduling simulation (Figures 4a/4b, §7.2.2 ablation).
//!
//! One simulation covers every scenario of §7.2:
//!
//! * **On-Host** — the agent spins on a dedicated host core; queues live
//!   in coherent host DRAM ([`wave_pcie::PcieConfig::host_local`]).
//! * **Offloaded** — the agent spins on a SmartNIC ARM core; every
//!   message, decision, and interrupt crosses the PCIe model with
//!   whatever [`OptLevel`] the experiment selects.
//!
//! The flow is the paper's Fig. 2: thread events send messages to the
//! agent; the agent runs the policy and stages decisions in per-core
//! slots; the host consumes them on idle transitions (prestaged path) or
//! after an MSI-X (idle/preemption path); a commit validates the
//! generation-stamped thread id against the kernel's thread arena.
//!
//! **The seam.** The model is split where Wave splits the system. The
//! host kernel (`kernel.rs`) keeps the mechanisms: admission, the cores'
//! state machine, the thread arena, commit and the latency accounting.
//! The agent (`agent.rs`) makes the decisions: the shards, their
//! policies, core ownership and rebalancing. The two meet in one
//! function per Table 1 crossing (tabled in `docs/ARCHITECTURE.md`).
//! Where the agent still reads kernel state that no message carried, a
//! `// shortcut:` comment names the message it stands in for.
//!
//! **Sharding (§6 scale-out):** [`SchedConfig::agents`] instantiates N
//! [`wave_core::runtime::AgentRuntime`]s. Core ownership lives in a
//! generation-stamped [`ShardMap`], static unless
//! [`SchedConfig::rebalance`] moves cores; new-thread wakeups are routed
//! in proportion to the shards' initial core counts or per
//! [`SchedConfig::wakeup_weights`], core-bound events
//! go to the core's owner, and [`SchedConfig::steal`] lets an idle shard
//! steal from a sibling.

mod agent;
mod kernel;
#[cfg(test)]
mod tests;

use wave_core::shard_map::{RebalanceConfig, RebalanceEvent, ShardMap};
use wave_core::workload::{Task, WorkloadSource, WorkloadSpec};
use wave_core::OptLevel;
use wave_pcie::{Interconnect, PcieConfig};
use wave_sim::cpu::{CoreClass, CpuModel};
use wave_sim::stats::Summary;
use wave_sim::{Sim, SimTime};

use crate::cost::CostModel;
use crate::msg::CpuId;
use crate::policy::{SchedPolicy, SloClass};
use agent::Agents;
use kernel::{Kernel, Segment};

/// Where the agent runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Agent on a dedicated host core, shared-memory communication (the
    /// on-host ghOSt baseline).
    OnHost,
    /// Agent on a SmartNIC ARM core, across the interconnect.
    Offloaded,
}

// Re-exported so `wave_ghost::{MixEntry, ServiceMix}` keep resolving.
pub use wave_core::workload::{MixEntry, ServiceMix};

/// An RPC-style ingress stage in front of the scheduler (Fig. 6).
///
/// Models the RPC stack: `stack_cores` parallel cores (host x86 or NIC
/// ARM) each spending `per_rpc` (host-reference) of protocol processing
/// per request before the scheduler learns about it. Worker cores pay
/// `worker_receive`/`worker_respond` per request for moving the RPC
/// payload across whatever memory separates them from the stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngressConfig {
    /// Parallel RPC-stack cores.
    pub stack_cores: u32,
    /// Where the stack runs (drives the ARM slowdown).
    pub stack_core: CoreClass,
    /// Host-reference CPU cost per RPC (TCP + RPC protocol work).
    pub per_rpc: SimTime,
    /// Wire + NIC hardware delay before stack processing.
    pub network_delay: SimTime,
    /// Worker-side cost to receive the RPC (e.g. MMIO reads of the
    /// request payload when the stack is on the SmartNIC).
    pub worker_receive: SimTime,
    /// Worker-side cost to post the response.
    pub worker_respond: SimTime,
}

/// Scheduling-experiment configuration.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Number of worker cores running request threads.
    pub workers: u32,
    /// Number of agents the worker cores are sharded across (§6
    /// scale-out). Each agent starts with a contiguous core slice
    /// ([`ShardMap::contiguous`]) and its own message queue, decision
    /// slots, and policy instance.
    pub agents: u32,
    /// Whether an idle shard with an empty run queue may steal work
    /// from a sibling run queue (multi-agent only; victims chosen per
    /// SLO class, see [`crate::policy::steal_victim`]).
    pub steal: bool,
    /// Dynamic core rebalancing: when set, a host-side
    /// [`Rebalancer`](wave_core::shard_map::Rebalancer) samples per-shard
    /// decision rates on this epoch and moves cores from idle to busy
    /// agents while the rates stay skewed
    /// ([`FeedDemand`](wave_core::shard_map::FeedDemand)). `None` (the
    /// default) keeps the static partition, bit-identical to the pre-map
    /// behavior.
    pub rebalance: Option<RebalanceConfig>,
    /// Weighted routing of new-thread wakeups across the agent shards
    /// (skewed-load experiments): the `n`-th admitted thread goes to the
    /// shard whose cumulative weight bucket contains `n % total_weight`.
    /// `None` weighs each shard by its initial core count (plain
    /// `n % agents` when the shards are equal). A zero weight starves
    /// that shard of *new* threads (it still serves its cores' events).
    pub wakeup_weights: Option<Vec<u32>>,
    /// Agent placement.
    pub placement: Placement,
    /// Wave optimization level (ignored mappings for on-host).
    pub opts: OptLevel,
    /// Kernel-path cost constants.
    pub cost: CostModel,
    /// CPU model (NIC ratios, frequency scaling).
    pub cpu: CpuModel,
    /// The workload: open-loop Poisson over a mix
    /// ([`WorkloadSpec::poisson`]), a replayed trace, or the synthetic
    /// production-trace generator. The simulation pulls arrivals and
    /// tasks from the source it builds (seeded with [`SchedConfig::seed`]).
    pub workload: WorkloadSpec,
    /// Ascending phase boundaries for per-phase latency reporting
    /// (diurnal/bursty traces): completions are bucketed by *arrival*
    /// into `phases.len() + 1` windows. Empty (the default) disables
    /// phase bucketing.
    pub phases: Vec<SimTime>,
    /// Total simulated duration.
    pub duration: SimTime,
    /// Warmup period excluded from statistics.
    pub warmup: SimTime,
    /// RNG seed.
    pub seed: u64,
    /// Drop arrivals beyond this many queued + running requests
    /// (overload safety for open-loop sweeps).
    pub max_outstanding: usize,
    /// Interconnect for the offloaded case (PCIe by default; the §7.3.3
    /// experiment swaps in the coherent config).
    pub interconnect: PcieConfig,
    /// Optional RPC ingress stage (Fig. 6).
    pub ingress: Option<IngressConfig>,
    /// Extra per-decision agent cost, e.g. the OnHost-Schedule scenario's
    /// uncached MMIO reads of RPC headers living in SmartNIC memory.
    pub agent_decision_extra: SimTime,
    /// Fraction of a NIC core's duty-cycle time this bundle receives,
    /// in `(0, 1]`: every unit of agent compute is divided by it, modeling
    /// the pump quanta spent running multi-tenant neighbors
    /// (`wave_core::tenant`). The default `1.0` divides exactly, so
    /// single-tenant runs are untouched.
    pub nic_share: f64,
    /// `Some(grid)`: this tenant holds no MSI-X vectors (vector-table
    /// exhaustion) and runs in degraded polling mode — staged decisions
    /// are *not* kicked (the would-be interrupt is counted as
    /// suppressed) and the host discovers them at the next multiple of
    /// `grid`. `None` (the default) kicks normally.
    pub poll_pickup: Option<SimTime>,
}

impl SchedConfig {
    /// A Fig. 4a-shaped default: `workers` cores, one agent, FIFO-ready,
    /// 10 µs GETs.
    pub fn new(workers: u32, placement: Placement, opts: OptLevel) -> Self {
        SchedConfig {
            workers,
            agents: 1,
            steal: false,
            rebalance: None,
            wakeup_weights: None,
            placement,
            opts,
            cost: CostModel::calibrated(),
            cpu: CpuModel::mount_evans(),
            workload: WorkloadSpec::poisson(ServiceMix::gets_10us(), 100_000.0),
            phases: Vec::new(),
            duration: SimTime::from_ms(500),
            warmup: SimTime::from_ms(50),
            seed: 42,
            max_outstanding: 20_000,
            interconnect: PcieConfig::pcie(),
            ingress: None,
            agent_decision_extra: SimTime::ZERO,
            nic_share: 1.0,
            poll_pickup: None,
        }
    }

    /// The worker cores' service capacity (req/s): `workers` over the
    /// workload's mean service time plus the per-request application
    /// overhead every task pays. Every sizing decision (offered-load
    /// fractions, saturation brackets) starts from this one figure.
    pub fn worker_capacity(&self) -> f64 {
        let mean =
            self.workload.mean_service().as_secs_f64() + self.cost.app_overhead_ns as f64 / 1e9;
        self.workers as f64 / mean
    }
}

/// Results of one load point.
#[derive(Debug, Clone)]
pub struct SchedReport {
    /// Offered load (req/s).
    pub offered: f64,
    /// Achieved throughput (completions/s within the measured window).
    pub achieved: f64,
    /// Request latency summary (arrival → completion).
    pub latency: Summary,
    /// Completions within the measured window.
    pub completed: u64,
    /// Requests turned away: by the overload guard, or because their
    /// wakeup found the agent's message queue full.
    pub dropped: u64,
    /// Host slot-read hits/misses (prestage effectiveness).
    pub prestage_hits: u64,
    /// Host slot-read misses.
    pub prestage_misses: u64,
    /// MSI-X interrupts sent.
    pub msix_sent: u64,
    /// MSI-X interrupts suppressed (degraded polling mode: staged
    /// decisions whose kick was withheld for a poll-grid pickup).
    pub msix_suppressed: u64,
    /// Decisions the agents produced (all shards).
    pub agent_decisions: u64,
    /// Simulation events the DES engine executed for this run (the
    /// benchmark's `ghost.events`, see `wavebench/README.md`).
    pub events_executed: u64,
    /// Decisions per agent shard (length = `agents`).
    pub per_agent_decisions: Vec<u64>,
    /// Request latency per SLO class, ascending class id (only classes
    /// that completed requests appear).
    pub latency_by_class: Vec<(SloClass, Summary)>,
    /// Request latency per phase window ([`SchedConfig::phases`]):
    /// `phases.len() + 1` summaries bucketed by arrival time, empty when
    /// no phase boundaries were configured.
    pub latency_by_phase: Vec<Summary>,
    /// The rebalancer's generation-stamped epoch history (empty when
    /// rebalancing is off): per-shard decision rates and core moves.
    pub rebalance: Vec<RebalanceEvent>,
    /// Diagnostic counters (kick/commit pathology analysis).
    pub diag: Diag,
    /// Request latency at each [`wave_sim::stats::QUANTILE_LADDER`] probe,
    /// for CDFs; empty when nothing completed in the measured window.
    pub latency_cdf: Vec<(f64, SimTime)>,
}

/// Diagnostic counters for the scheduling paths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Diag {
    /// MSI-X wakeups whose slot read found a decision.
    pub wakeup_hit: u64,
    /// MSI-X wakeups whose slot read found nothing.
    pub wakeup_miss: u64,
    /// Transactions that failed validation.
    pub commit_fail: u64,
    /// Idle transitions that found a prestaged decision.
    pub complete_hit: u64,
    /// Idle transitions that found nothing.
    pub complete_miss: u64,
    /// Agent pump invocations (all shards).
    pub pumps: u64,
    /// Agent-side slice expiries that staged a preemption.
    pub preempt_staged: u64,
    /// Slice expiries with no replacement (thread continued).
    pub preempt_extend: u64,
    /// Preemption IRQs that switched threads.
    pub preempt_switch: u64,
    /// Decisions an idle shard stole from a sibling's run queue.
    pub steals: u64,
    /// Cores moved between shards by the rebalancer.
    pub rebalance_moves: u64,
    /// Staged decisions re-enqueued with a moved core's new owner.
    pub rebalance_handoffs: u64,
    /// Requests still outstanding at the end of the run.
    pub outstanding_at_end: u64,
}

/// The scheduling simulation model. Drive it with [`SchedSim::run`].
pub struct SchedSim {
    cfg: SchedConfig,
    /// The interconnect every crossing between the two sides pays for.
    ic: Interconnect,
    /// The host side: cores, threads, commit, latency accounting.
    kernel: Kernel,
    /// The NIC side: agent shards, core ownership, wakeup routing.
    agents: Agents,
    diag: Diag,
}

/// Every kind of event the model schedules; [`SchedSim::handle`] runs
/// each one.
enum SchedEvent {
    /// The local load generator's next arrival.
    Arrival,
    /// A local request reaches admission after the ingress stack.
    Admit { arrival: SimTime, task: Task },
    /// A fabric-delivered request ([`SchedStepper::inject`]).
    Inject { wire_arrival: SimTime, task: Task },
    /// Shard `si`'s agent pump.
    Pump(usize),
    /// An MSI-X wakeup reaches an idle core.
    WakeupIrq(CpuId),
    /// A preemption IRQ reaches the segment's core.
    PreemptIrq(Segment),
    /// The agent's slice timer for a segment expires.
    AgentPreempt(Segment),
    /// A segment runs its thread to completion.
    Complete(Segment),
    /// The rebalancer's next epoch.
    RebalanceEpoch,
}

// Inline in every event-heap entry (56 bytes with `at` and `seq`).
const _: () = assert!(std::mem::size_of::<SchedEvent>() == 40);

type S = Sim<SchedEvent>;

impl SchedSim {
    /// Builds a single-agent model for a configuration and policy.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.agents != 1` — a sharded deployment needs one
    /// policy instance per shard; use [`SchedSim::with_policy_factory`].
    pub fn new(cfg: SchedConfig, policy: Box<dyn SchedPolicy>) -> Self {
        assert_eq!(
            cfg.agents, 1,
            "SchedSim::new wires one policy; use with_policy_factory for agents > 1"
        );
        Self::build(cfg, vec![policy])
    }

    /// Builds the model with one policy instance per agent shard, made
    /// by `make(shard_index)`.
    pub fn with_policy_factory(
        cfg: SchedConfig,
        mut make: impl FnMut(u32) -> Box<dyn SchedPolicy>,
    ) -> Self {
        let policies = (0..cfg.agents).map(&mut make).collect();
        Self::build(cfg, policies)
    }

    fn build(cfg: SchedConfig, policies: Vec<Box<dyn SchedPolicy>>) -> Self {
        assert!(
            cfg.agents >= 1 && cfg.workers >= cfg.agents,
            "need at least one agent, and a worker core per agent"
        );
        assert!(
            cfg.phases.windows(2).all(|w| w[0] <= w[1]),
            "phase boundaries must ascend"
        );
        let mut ic = Interconnect::new(match cfg.placement {
            Placement::OnHost => PcieConfig::host_local(),
            Placement::Offloaded => cfg.interconnect.clone(),
        });
        // Kernel first: with its large buffers below the agents' small
        // ones, a sim rebuilt after a drop reuses the freed heap instead of
        // faulting in fresh pages (wavebench's `setup_s`).
        SchedSim {
            kernel: Kernel::new(&cfg),
            agents: Agents::new(&cfg, &mut ic, policies),
            ic,
            diag: Diag::default(),
            cfg,
        }
    }

    /// The current core-ownership map (tests/telemetry).
    pub fn shard_map(&self) -> &ShardMap {
        &self.agents.map
    }

    /// Runs one event by calling the crossing or timer function it names.
    fn handle(&mut self, sim: &mut S, ev: SchedEvent) {
        match ev {
            SchedEvent::Arrival => self.arrival(sim),
            SchedEvent::Admit { arrival, task } => self.admit(sim, arrival, task),
            SchedEvent::Inject { wire_arrival, task } => {
                // The same overload guard a local arrival passes, without
                // the ingress stack: the fabric already carried the request.
                if self.kernel.threads.len() < self.cfg.max_outstanding {
                    self.admit(sim, wire_arrival, task);
                } else {
                    self.kernel.reject(sim.now(), wire_arrival, task.slo);
                }
            }
            SchedEvent::Pump(si) => self.agent_pump(sim, si),
            SchedEvent::WakeupIrq(cpu) => self.wakeup_irq(sim, cpu),
            SchedEvent::PreemptIrq(seg) => self.preempt_irq(sim, seg),
            SchedEvent::AgentPreempt(seg) => self.agent_preempt(sim, seg),
            SchedEvent::Complete(seg) => self.complete(sim, seg),
            SchedEvent::RebalanceEpoch => self.rebalance_epoch(sim),
        }
    }

    /// Runs the experiment to completion and reports.
    pub fn run(self) -> SchedReport {
        let mut stepper = self.into_stepper();
        let duration = stepper.model.cfg.duration;
        stepper.advance(duration);
        stepper.finish()
    }

    /// Converts the model into a stepper the caller drives forward in
    /// bounded windows, the form the fleet executor runs many hosts in.
    /// `run()` is exactly `into_stepper` + one full-duration `advance` +
    /// `finish`.
    pub fn into_stepper(mut self) -> SchedStepper {
        let mut sim: S = Sim::new();
        sim.set_horizon(self.cfg.duration);
        // The source announces the first arrival (open-loop generators:
        // the fixed 1 ns first event; a trace: its first record).
        if let Some(first) = self.kernel.source.next_arrival() {
            sim.schedule(first, SchedEvent::Arrival);
        }
        if let Some(rb) = &self.agents.rebalancer {
            let epoch = rb.config().epoch;
            sim.schedule(epoch, SchedEvent::RebalanceEpoch);
        }
        SchedStepper { sim, model: self }
    }
}

/// One request's terminal outcome on a host, drained window by window by
/// a fleet driver ([`SchedStepper::drain_completions`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostCompletion {
    /// The wire-arrival stamp latency was measured from. For injected
    /// requests this is the fleet client's emission time, so downstream
    /// latency accounting covers the forward network path.
    pub arrival: SimTime,
    /// Local virtual time the request finished (or was rejected).
    pub finished: SimTime,
    /// The request's SLO class.
    pub slo: SloClass,
    /// `true` when the host turned the request away: the overload guard
    /// shed it, or its wakeup found the agent's queue full.
    pub rejected: bool,
}

/// A [`SchedSim`] paused between time windows.
///
/// Produced by [`SchedSim::into_stepper`]; the fleet executor drives many
/// of these in lock-step windows, injecting fabric arrivals with
/// [`inject`](Self::inject) and draining [`HostCompletion`]s at each
/// window barrier. How time is cut into windows never changes a result.
pub struct SchedStepper {
    sim: S,
    model: SchedSim,
}

impl SchedStepper {
    /// Runs the host's event loop up to and including `horizon`, and
    /// returns how many events executed in this window.
    pub fn advance(&mut self, horizon: SimTime) -> u64 {
        self.sim.set_horizon(horizon);
        self.sim.run(|s, ev| self.model.handle(s, ev))
    }

    /// The time of the host's earliest pending event, if any: the next
    /// [`advance`](Self::advance) runs nothing unless its horizon reaches
    /// it or an [`inject`](Self::inject) comes first.
    pub fn next_event(&self) -> Option<SimTime> {
        self.sim.next_at()
    }

    /// Enables per-request completion logging, for a driver that reads
    /// each request's finish time through
    /// [`drain_completions`](Self::drain_completions): the fleet
    /// executor, or `wave-lab`'s Table 3 runs. Off by default: a
    /// standalone run has no driver to drain the log.
    pub fn set_completion_log(&mut self, on: bool) {
        self.model.kernel.log_completions = on;
    }

    /// Schedules an external (fabric-delivered) arrival at local time
    /// `at`. `wire_arrival` is the stamp latency is measured from —
    /// fleet drivers pass the client's emission time so the recorded
    /// latency includes the forward network hop.
    pub fn inject(&mut self, at: SimTime, wire_arrival: SimTime, task: Task) {
        self.sim
            .schedule(at, SchedEvent::Inject { wire_arrival, task });
    }

    /// Moves the completions logged since the last drain into `out`
    /// (appending; `out` is not cleared).
    pub fn drain_completions(&mut self, out: &mut Vec<HostCompletion>) {
        out.append(&mut self.model.kernel.completions);
    }

    /// Finishes the run and assembles the [`SchedReport`], exactly as
    /// [`SchedSim::run`] would.
    pub fn finish(self) -> SchedReport {
        let SchedStepper { sim, model: m } = self;
        let (k, shards) = (&m.kernel, &m.agents.shards);
        let (prestage_hits, prestage_misses) = shards
            .iter()
            .map(|sh| sh.rt.slots_ref().hit_miss())
            .fold((0, 0), |(h, m), (dh, dm)| (h + dh, m + dm));
        let per_agent_decisions: Vec<u64> = shards.iter().map(|sh| sh.rt.decisions()).collect();
        let window = m.cfg.duration - m.cfg.warmup;
        SchedReport {
            offered: m.cfg.workload.offered(),
            achieved: k.lat.count() as f64 / window.as_secs_f64(),
            latency: k.lat.summary(),
            completed: k.lat.count(),
            dropped: k.dropped,
            prestage_hits,
            prestage_misses,
            msix_sent: m.ic.msix.sent(),
            msix_suppressed: m.ic.msix.suppressed(),
            agent_decisions: per_agent_decisions.iter().sum(),
            events_executed: sim.executed(),
            per_agent_decisions,
            latency_by_class: (k.lat_by_class.iter())
                .map(|(&c, h)| (SloClass(c), h.summary()))
                .collect(),
            latency_by_phase: k.lat_by_phase.iter().map(|h| h.summary()).collect(),
            rebalance: (m.agents.rebalancer.as_ref())
                .map_or_else(Vec::new, |r| r.history().to_vec()),
            latency_cdf: k.lat.ladder(),
            diag: Diag {
                outstanding_at_end: k.threads.len() as u64,
                ..m.diag
            },
        }
    }
}
