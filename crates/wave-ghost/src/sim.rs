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
//! after an MSI-X (idle/preemption path); commits are validated against
//! the kernel's generation table.
//!
//! **Sharding (§6 scale-out):** the agent machinery lives in
//! [`wave_core::runtime::AgentRuntime`], and [`SchedConfig::agents`]
//! instantiates N of them. Core ownership lives in a generation-stamped
//! [`ShardMap`]; without rebalancing it is the static contiguous
//! partition of [`ShardMap::contiguous`] and never changes. Every
//! shard's decision-slot table spans all worker cores and is indexed by
//! core id, so ownership is the map's business alone. New-thread
//! wakeups are routed round-robin (`tid % agents`, or per
//! [`SchedConfig::wakeup_weights`] when the experiment wants a skewed
//! offered load); core-bound events go to the core's owning shard. With
//! [`SchedConfig::steal`] an idle shard whose run queue is empty pulls
//! work from a sibling — victims chosen **per SLO class**
//! ([`crate::policy::steal_victim`]: tightest class first, depth only
//! within a class), so a latency-class backlog is never starved by
//! throughput-class depth.
//!
//! **Dynamic rebalancing:** with [`SchedConfig::rebalance`] set, a
//! host-side [`Rebalancer`] samples per-shard decision rates
//! ([`AgentRuntime::take_load`]) every epoch and — when the rates stay
//! skewed — *moves cores between shards* ([`FeedDemand`]: the busiest
//! agent gains cores from the idlest). A moved core's staged-but-
//! unconsumed decision is taken out of the donor's slot table and its
//! thread re-enqueued with the recipient's policy, so no pick is lost;
//! everything else the recipient needs (core idle/busy state, thread
//! tables) already lives host-side. Rebalancing off (the default) is
//! pinned bit-identical to the static partition.

use std::collections::BTreeMap;

use wave_core::runtime::{AgentRuntime, ResourcePolicy, RuntimeConfig, SlotId, StageCost};
use wave_core::shard_map::{
    FeedDemand, RebalanceConfig, RebalanceEvent, Rebalancer, ResourceMove, ShardMap,
};
use wave_core::txn::{GenerationTable, TxnId};
use wave_core::workload::{AnySource, Task, WorkloadSource, WorkloadSpec};
use wave_core::{AgentId, OptLevel};
use wave_pcie::{Interconnect, MsixSendPath, MsixVector, PcieConfig};
use wave_sim::cpu::{CoreClass, CpuModel, WorkloadClass};
use wave_sim::stats::{Histogram, Summary};
use wave_sim::{Sim, SimTime};

use crate::arena::{ThreadRun, ThreadTable};
use crate::cost::CostModel;
use crate::msg::{CpuId, SchedMsg, SchedMsgKind, Tid};
use crate::policy::{steal_victim, SchedPolicy, SloClass, ThreadMeta};
use crate::slots::SlotDecision;

/// Where the agent runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Agent on a dedicated host core, shared-memory communication (the
    /// on-host ghOSt baseline).
    OnHost,
    /// Agent on a SmartNIC ARM core, across the interconnect.
    Offloaded,
}

// The mix types moved to `wave_core::workload` with the rest of the
// workload API; re-exported here so `wave_ghost::{MixEntry, ServiceMix}`
// keep resolving.
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
    /// Dynamic core rebalancing: when set, a host-side [`Rebalancer`]
    /// samples per-shard decision rates on this epoch and moves cores
    /// from idle to busy agents while the rates stay skewed
    /// ([`FeedDemand`]). `None` (the default) keeps the static
    /// partition, bit-identical to the pre-map behavior.
    pub rebalance: Option<RebalanceConfig>,
    /// Weighted routing of new-thread wakeups across the agent shards
    /// (skewed-load experiments): thread `tid` goes to the shard whose
    /// cumulative weight bucket contains `tid % total_weight`. `None`
    /// routes round-robin (`tid % agents`). A zero weight starves that
    /// shard of *new* threads (it still serves its cores' events).
    pub wakeup_weights: Option<Vec<u32>>,
    /// Agent placement.
    pub placement: Placement,
    /// Wave optimization level (ignored mappings for on-host).
    pub opts: OptLevel,
    /// Kernel-path cost constants.
    pub cost: CostModel,
    /// CPU model (NIC ratios, frequency scaling).
    pub cpu: CpuModel,
    /// The workload: open-loop Poisson over a mix (the legacy
    /// `mix`/`offered` pair, now [`WorkloadSpec::poisson`]), a replayed
    /// trace, or the synthetic production-trace generator. The
    /// simulation pulls arrivals and tasks from the source this spec
    /// builds (seeded with [`SchedConfig::seed`]).
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
    /// in `(0, 1]`. Multi-tenant runs derate each tenant with its
    /// arbitrated service share (`wave_core::tenant::
    /// weighted_fair_shares` / `fifo_shares`): every unit of agent
    /// compute is divided by the share, modeling the pump quanta spent
    /// running the neighbors. The default `1.0` divides by one exactly
    /// (IEEE: `x / 1.0 == x` bit-for-bit), so single-tenant runs are
    /// untouched.
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
    /// Arrivals dropped by the overload guard.
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
    /// Simulation events the DES engine executed for this run: the
    /// deterministic work counter the repository benchmark reports as
    /// `ghost.events` (see `wavebench/README.md`).
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
    /// The rebalancer's epoch history (empty when rebalancing is off):
    /// per-shard decision-rate samples and the committed core moves,
    /// generation-stamped.
    pub rebalance: Vec<RebalanceEvent>,
    /// Diagnostic counters (kick/commit pathology analysis).
    pub diag: Diag,
    /// Request latency quantile ladder ([`wave_sim::stats::QUANTILE_LADDER`]
    /// probes of the full histogram), for CDF-style reporting. Empty when
    /// no request completed inside the measured window.
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
    /// Staged decisions handed off (re-enqueued with the new owner)
    /// because their core moved shards.
    pub rebalance_handoffs: u64,
    /// Requests still outstanding at the end of the run.
    pub outstanding_at_end: u64,
}

/// Worker-core state machine, as the *host kernel* sees it.
///
/// `Idle { waiting: true }` means the core parked with nothing to run
/// and the owning agent owes it an MSI-X as soon as a decision exists;
/// the flag is set on every idle transition that finds no prestaged
/// decision (and re-armed when the agent observes the core's
/// blocked/yield/dead message), and cleared the moment the agent kicks
/// the core so duplicate interrupts are not sent.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CoreState {
    /// Idle; `waiting` means the agent owes this core an MSI-X wakeup.
    Idle { waiting: bool },
    /// Running a thread; the token invalidates stale preempt events.
    Busy { tid: Tid, token: u64 },
}

/// One agent shard: its runtime bundle plus its policy instance.
struct Shard {
    rt: AgentRuntime<SchedMsg, SlotDecision>,
    policy: Box<dyn SchedPolicy>,
}

/// Adapts a [`SchedPolicy`] pick plus the host-side generation/txn state
/// into the [`ResourcePolicy`] the runtime stages decisions through.
struct PickProducer<'a> {
    policy: &'a mut dyn SchedPolicy,
    /// The arena the policy's intrusive queues are linked through.
    threads: &'a mut ThreadTable,
    gen: &'a GenerationTable,
    next_txn: &'a mut u64,
    /// `Some` restricts the pick to one SLO class (class-aware steal).
    class: Option<SloClass>,
}

impl ResourcePolicy for PickProducer<'_> {
    type Decision = SlotDecision;

    fn produce(&mut self, now: SimTime, _slot: SlotId) -> Option<SlotDecision> {
        let tid = match self.class {
            Some(c) => self.policy.pick_class(self.threads, now, c)?,
            None => self.policy.pick_next(self.threads, now)?,
        };
        // Thread vanished between message and pick; drop it.
        let target = self.gen.snapshot(tid.0)?;
        let txn = TxnId(*self.next_txn);
        *self.next_txn += 1;
        Some(SlotDecision {
            txn,
            tid,
            target,
            preempt: false,
        })
    }

    fn compute_cost(&self) -> SimTime {
        self.policy.compute_cost()
    }

    fn backlog(&self) -> usize {
        self.policy.queue_depth()
    }

    fn wants_prestaging(&self) -> bool {
        self.policy.wants_prestaging()
    }
}

/// The scheduling simulation model. Drive it with [`SchedSim::run`].
pub struct SchedSim {
    cfg: SchedConfig,
    ic: Interconnect,
    shards: Vec<Shard>,
    /// Generation-stamped core-ownership map (static contiguous until a
    /// rebalance commits).
    map: ShardMap,
    /// Cached ascending core list per shard, rebuilt on rebalance
    /// commits (keeps the pump hot path allocation-free).
    owned_cores: Vec<Vec<u32>>,
    /// The host-side rebalance driver, when enabled.
    rebalancer: Option<Rebalancer>,
    /// Precomputed weighted-routing table `(cumulative bounds, total)`
    /// for [`SchedConfig::wakeup_weights`] — arrivals pay one mod plus
    /// a bucket probe instead of re-summing the weights.
    wakeup_route: Option<(Vec<u64>, u64)>,
    gen: GenerationTable,
    /// The thread arena: dense generational slab, probed on every
    /// message the agent pumps and on every commit/preempt/complete.
    /// The policies' run queues are intrusive lists through its rows.
    threads: ThreadTable,
    cores: Vec<CoreState>,
    /// The workload source arrivals and tasks are pulled from
    /// ([`SchedConfig::workload`] built with the config seed). For the
    /// Poisson spec this reproduces the legacy inline sampling bit for
    /// bit; traces and the synthetic generator slot in behind the same
    /// two calls. Statically dispatched — two pulls per arrival make
    /// this the sim's hottest external call.
    source: AnySource,
    /// Sequential admission counter. *Not* the thread id (ids are
    /// generation-packed arena handles): this drives the round-robin /
    /// weighted wakeup routing, so routing stays bit-identical to the
    /// old sequential-tid scheme.
    next_seq: u64,
    next_txn: u64,
    run_token: u64,
    outstanding: usize,
    lat: Histogram,
    /// Per-SLO-class latency histograms (key: class id).
    lat_by_class: BTreeMap<u8, Histogram>,
    /// Per-phase latency histograms (`cfg.phases.len() + 1` buckets by
    /// arrival time; empty when phase bucketing is off).
    lat_by_phase: Vec<Histogram>,
    completed_measured: u64,
    dropped: u64,
    /// When set (fleet mode), every terminal request outcome is appended
    /// to `completions` for the fleet driver to drain window by window.
    log_completions: bool,
    completions: Vec<HostCompletion>,
    agent_core: CoreClass,
    offloaded: bool,
    diag: Diag,
    stack_busy: Vec<SimTime>,
    /// Reused candidate buffer for the prestage walk (keeps the pump
    /// hot path allocation-free).
    prestage_scratch: Vec<SlotId>,
    /// Reused wakeup buffer for the per-pump IRQ kicks — same
    /// rationale as `prestage_scratch`.
    kicked_scratch: Vec<(CpuId, SimTime)>,
    /// Reused message buffer the pump drains the queue into.
    msg_scratch: Vec<SchedMsg>,
    /// Reused per-class depth buffer for the steal victim scan.
    class_scratch: Vec<(SloClass, usize)>,
    /// Reused move buffer for the rebalance epoch.
    moves_scratch: Vec<ResourceMove>,
}

type S = Sim<SchedSim>;

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
        assert!(cfg.agents >= 1, "need at least one agent");
        assert!(
            cfg.workers >= cfg.agents,
            "need at least one worker core per agent"
        );
        let (pcfg, agent_core, offloaded) = match cfg.placement {
            Placement::OnHost => (PcieConfig::host_local(), CoreClass::HostX86, false),
            Placement::Offloaded => (cfg.interconnect.clone(), CoreClass::NicArm, true),
        };
        if let Some(w) = &cfg.wakeup_weights {
            assert_eq!(
                w.len(),
                cfg.agents as usize,
                "one wakeup weight per agent shard"
            );
            assert!(
                w.iter().any(|&x| x > 0),
                "wakeup weights must not all be zero"
            );
        }
        let mut ic = Interconnect::new(pcfg);
        let mut shards = Vec::with_capacity(cfg.agents as usize);
        // Core ownership starts as the static contiguous partition —
        // the same one the sharded memory manager applies to its batch
        // space — and only a rebalance commit ever changes it.
        let map = ShardMap::contiguous(cfg.workers as usize, cfg.agents);
        for (i, policy) in policies.into_iter().enumerate() {
            // Every shard's slot table spans all worker cores, indexed by
            // core id, so a core can change owners without re-mapping
            // SmartNIC DRAM.
            let rcfg = RuntimeConfig {
                queue_capacity: 4096,
                msg_words: cfg.cost.msg_words,
                decision_words: cfg.cost.decision_words,
                slots: cfg.workers,
                // The scheduler is the µs-scale agent: MMIO queues (§4.1).
                msg_transport: wave_queue::Transport::Mmio,
                wire_bytes_per_msg: None,
                msg_pte: cfg.opts.message_queue_pte(),
                decision_pte: cfg.opts.decision_queue_pte(),
                soc_pte: cfg.opts.soc_pte(),
                pickup: SimTime::from_ns(cfg.cost.agent_pickup_ns),
            };
            let rt = AgentRuntime::new(&mut ic, AgentId(i as u32), agent_core, cfg.cpu, &rcfg);
            shards.push(Shard { rt, policy });
        }
        assert!(
            cfg.phases.windows(2).all(|w| w[0] <= w[1]),
            "phase boundaries must ascend"
        );
        let source = cfg.workload.build(cfg.seed);
        let owned_cores = (0..cfg.agents)
            .map(|i| map.resources_of(i).map(|r| r as u32).collect())
            .collect();
        let rebalancer = cfg.rebalance.map(|rc| {
            // Decision rates are demand the cores *serve*: feed the
            // busiest shard, never draining a sibling below one core.
            let policy = FeedDemand {
                max_moves: (cfg.workers as usize / 4).max(1),
                min_resources: 1,
            };
            Rebalancer::new(rc, Box::new(policy), cfg.agents)
        });
        let wakeup_route = cfg.wakeup_weights.as_ref().map(|w| {
            let cum: Vec<u64> = w
                .iter()
                .scan(0u64, |acc, &x| {
                    *acc += x as u64;
                    Some(*acc)
                })
                .collect();
            let total = *cum.last().expect("weights validated non-empty");
            (cum, total)
        });
        SchedSim {
            cores: vec![CoreState::Idle { waiting: true }; cfg.workers as usize],
            ic,
            shards,
            map,
            owned_cores,
            rebalancer,
            wakeup_route,
            gen: GenerationTable::new(),
            threads: ThreadTable::with_capacity(1024),
            source,
            next_seq: 0,
            next_txn: 0,
            run_token: 0,
            outstanding: 0,
            lat: Histogram::new(),
            lat_by_class: BTreeMap::new(),
            lat_by_phase: if cfg.phases.is_empty() {
                Vec::new()
            } else {
                vec![Histogram::new(); cfg.phases.len() + 1]
            },
            completed_measured: 0,
            dropped: 0,
            log_completions: false,
            completions: Vec::new(),
            agent_core,
            offloaded,
            diag: Diag::default(),
            stack_busy: vec![SimTime::ZERO; cfg.ingress.map_or(0, |i| i.stack_cores as usize)],
            prestage_scratch: Vec::with_capacity(cfg.workers as usize),
            kicked_scratch: Vec::with_capacity(cfg.workers as usize),
            msg_scratch: Vec::with_capacity(64),
            class_scratch: Vec::new(),
            moves_scratch: Vec::new(),
            cfg,
        }
    }

    /// Shard owning a worker core (dynamic: follows rebalance commits).
    fn shard_of(&self, cpu: CpuId) -> usize {
        self.map.owner(cpu.0 as usize) as usize
    }

    /// Rebuilds the per-shard owned-core cache from the map (after a
    /// rebalance commit).
    fn rebuild_owned_cores(&mut self) {
        for (i, cache) in self.owned_cores.iter_mut().enumerate() {
            cache.clear();
            cache.extend(self.map.resources_of(i as u32).map(|r| r as u32));
        }
    }

    /// The current core-ownership map (tests/telemetry).
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// Runs the experiment to completion and reports.
    pub fn run(self) -> SchedReport {
        let mut stepper = self.into_stepper();
        let duration = stepper.model.cfg.duration;
        stepper.advance(duration);
        stepper.finish()
    }

    /// Converts the model into a windowed stepper: the first arrival and
    /// the rebalance epoch are armed exactly as [`SchedSim::run`] would,
    /// but the caller drives time forward in bounded windows — the form
    /// the fleet executor needs to run many hosts in parallel.
    /// `run()` is literally `into_stepper` + one full-duration `advance`
    /// + `finish`, so single-host behavior is bit-identical.
    pub fn into_stepper(mut self) -> SchedStepper {
        let mut sim: S = Sim::new();
        sim.set_horizon(self.cfg.duration);
        // The source announces the first arrival (open-loop generators:
        // the fixed 1 ns first event; a trace: its first record).
        if let Some(first) = self.source.next_arrival() {
            sim.schedule(first, |m: &mut SchedSim, s| m.arrival(s));
        }
        if let Some(rb) = &self.rebalancer {
            sim.schedule(rb.config().epoch, |m: &mut SchedSim, s| {
                m.rebalance_epoch(s)
            });
        }
        SchedStepper { sim, model: self }
    }

    // --- Load generation -------------------------------------------------

    fn arrival(&mut self, sim: &mut S) {
        let now = sim.now();
        // Announce the next arrival first (open loop). The order —
        // next-arrival draw, overload guard, then the task draw — is
        // the legacy inline-sampling order, which is what keeps the
        // Poisson source bit-identical (a shed arrival draws no task).
        if let Some(at) = self.source.next_arrival() {
            sim.schedule(at, |m: &mut SchedSim, s| m.arrival(s));
        }

        if self.outstanding >= self.cfg.max_outstanding {
            self.dropped += 1;
            self.source.drop_task();
            return;
        }
        let task = self.source.task();
        if let Some(ing) = self.cfg.ingress {
            // Route through the RPC stack: pick the least-busy stack
            // core; the scheduler learns about the request when protocol
            // processing completes.
            let ratio = self
                .cfg
                .cpu
                .ratio(ing.stack_core, WorkloadClass::ComputeBound);
            let svc = ing.per_rpc.scale(ratio);
            let idx = (0..self.stack_busy.len())
                .min_by_key(|&i| self.stack_busy[i])
                .expect("ingress has at least one stack core");
            let start = (now + ing.network_delay).max(self.stack_busy[idx]);
            self.stack_busy[idx] = start + svc;
            let done = start + svc;
            sim.schedule(done, move |m: &mut SchedSim, s| m.admit(s, now, task));
            return;
        }
        self.admit_at(sim, now, now, task);
    }

    fn admit(&mut self, sim: &mut S, wire_arrival: SimTime, task: Task) {
        let now = sim.now();
        self.admit_at(sim, now, wire_arrival, task);
    }

    /// An arrival injected from outside the host (fleet mode): same
    /// overload guard and admission path as [`SchedSim::arrival`], but
    /// the task came over the fabric instead of from the local source,
    /// and `wire_arrival` carries the fleet client's emission stamp so
    /// recorded latency spans the forward network path too.
    fn external_arrival(&mut self, sim: &mut S, wire_arrival: SimTime, task: Task) {
        if self.outstanding >= self.cfg.max_outstanding {
            self.dropped += 1;
            if self.log_completions {
                self.completions.push(HostCompletion {
                    arrival: wire_arrival,
                    finished: sim.now(),
                    slo: task.slo,
                    rejected: true,
                });
            }
            return;
        }
        let now = sim.now();
        self.admit_at(sim, now, wire_arrival, task);
    }

    fn admit_at(&mut self, sim: &mut S, now: SimTime, wire_arrival: SimTime, task: Task) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.outstanding += 1;
        let io = self
            .cfg
            .ingress
            .map_or(SimTime::ZERO, |i| i.worker_receive + i.worker_respond);
        let tid = self.threads.insert(
            task.service + SimTime::from_ns(self.cfg.cost.app_overhead_ns) + io,
            wire_arrival,
            task.slo,
        );
        self.gen.insert(tid.0);
        // New threads are not yet bound to a core: a task carrying an
        // affinity hint (trace/synthetic hotspots) is pinned to that
        // shard; otherwise route the wakeup round-robin across the agent
        // shards (or by the experiment's skew weights). Routing keys off
        // the sequential admission counter, not the packed tid, so slot
        // reuse cannot perturb it. The load generator core sends the
        // message (its CPU time is not charged against worker
        // throughput, matching the paper's setup where the generator has
        // its own resources).
        let si = match task.affinity {
            Some(a) => (a as usize) % self.shards.len(),
            None => self.route_wakeup(seq),
        };
        let msg = SchedMsg::new(tid, SchedMsgKind::Wakeup, None);
        let (mut cost, delivered) = self.shards[si].rt.host_send(now, &mut self.ic, msg);
        if !delivered {
            // Message queue overload: drop the request.
            self.gen.remove(tid.0);
            self.threads.remove(tid);
            self.outstanding -= 1;
            self.dropped += 1;
            return;
        }
        cost += self.shards[si].rt.host_flush(now + cost, &mut self.ic);
        let visible = now + cost + self.ic.one_way();
        self.schedule_agent_pump(sim, si, visible);
    }

    /// Which shard a new-thread wakeup goes to: deterministic weighted
    /// round-robin over [`SchedConfig::wakeup_weights`], or plain
    /// `seq % agents` without weights (`seq` is the sequential
    /// admission index, matching the pre-arena sequential tids).
    fn route_wakeup(&self, seq: u64) -> usize {
        match &self.wakeup_route {
            None => (seq % self.shards.len() as u64) as usize,
            Some((cum, total)) => {
                let pos = seq % total;
                cum.partition_point(|&c| c <= pos)
            }
        }
    }

    // --- Agent ------------------------------------------------------------

    fn schedule_agent_pump(&mut self, sim: &mut S, si: usize, at: SimTime) {
        if let Some(t) = self.shards[si].rt.arm_pump(at) {
            sim.schedule(t, move |m: &mut SchedSim, s| {
                m.shards[si].rt.pump_fired();
                m.agent_pump(s, si);
            });
        }
    }

    /// One agent duty cycle for shard `si`: drain visible messages,
    /// update the policy, serve waiting cores (stage + MSI-X), then
    /// prestage.
    fn agent_pump(&mut self, sim: &mut S, si: usize) {
        if !self.shards[si].rt.is_running() {
            return;
        }
        self.diag.pumps += 1;
        let now = sim.now().max(self.shards[si].rt.busy_until());
        // Drain into the reused message scratch (taken out for the loop
        // so `self` stays borrowable inside).
        let mut msgs = std::mem::take(&mut self.msg_scratch);
        msgs.clear();
        let mut nic_cost = self.shards[si]
            .rt
            .poll_into(now, &mut self.ic, 64, &mut msgs);
        let policy_ratio = self
            .cfg
            .cpu
            .ratio(self.agent_core, WorkloadClass::ComputeBound)
            / self.cfg.nic_share;
        // Policy bookkeeping words per handled event (run-queue nodes
        // etc.) pay the SoC mapping cost.
        for &msg in &msgs {
            // Message handling touches a few run-queue words and does a
            // cheap enqueue/remove; the full policy pick cost is paid at
            // staging time in `stage_pick`.
            nic_cost += self.ic.soc.access(self.cfg.opts.soc_pte(), 8);
            nic_cost += self.shards[si]
                .policy
                .compute_cost()
                .scale(policy_ratio * 0.5);
            if msg.makes_runnable() {
                // A runnable message always refers to a live thread (a
                // thread cannot die before its wakeup is consumed); a
                // stale id could not be enqueued anyway — the arena
                // rejects it, exactly as a queued-then-dead pick would
                // fail its generation snapshot.
                if let Some(meta) = self.threads.meta(msg.tid) {
                    self.shards[si]
                        .policy
                        .on_runnable(&mut self.threads, now, msg.tid, meta);
                }
            } else if msg.removes_thread() {
                self.shards[si]
                    .policy
                    .on_removed(&mut self.threads, now, msg.tid);
            }
            if let Some(cpu) = msg.cpu {
                if msg.removes_thread() || matches!(msg.kind, SchedMsgKind::Yield) {
                    // The core parked when it sent this message; seeing
                    // it (re-)arms the agent's wakeup obligation unless
                    // the core found work again in the meantime.
                    if let CoreState::Idle { waiting } = &mut self.cores[cpu.0 as usize] {
                        *waiting = true;
                    }
                }
            }
        }
        self.msg_scratch = msgs;

        // Serve idle, waiting cores first: stage + MSI-X. The owned-core
        // cache is taken out for the duration of the pump (nothing below
        // touches it; rebalance commits happen in their own event).
        let owned = std::mem::take(&mut self.owned_cores[si]);
        let mut kicked = std::mem::take(&mut self.kicked_scratch);
        kicked.clear();
        for &c in &owned {
            let cpu = CpuId(c);
            if !matches!(self.cores[c as usize], CoreState::Idle { waiting: true }) {
                continue;
            }
            // If a decision is already staged (host missed it earlier),
            // re-kick; otherwise try to stage a fresh pick — from this
            // shard's queue, then (optionally, and only once the local
            // queue is truly empty) stolen from a sibling.
            let have = self.shards[si].rt.slots_ref().is_staged(SlotId(cpu.0))
                || self.stage_pick(now, si, cpu, &mut nic_cost)
                || (self.cfg.steal
                    && self.shards[si].policy.queue_depth() == 0
                    && self.steal_pick(now, si, cpu, &mut nic_cost));
            if have {
                let (sender_cpu, handler_at) = self.kick(now + nic_cost, cpu);
                nic_cost += sender_cpu;
                self.shards[si].rt.record_decision(now + nic_cost);
                kicked.push((cpu, handler_at));
                self.cores[c as usize] = CoreState::Idle { waiting: false };
            }
        }
        for (cpu, at) in kicked.drain(..) {
            sim.schedule(at, move |m: &mut SchedSim, s| m.wakeup_irq(s, cpu));
        }
        self.kicked_scratch = kicked;

        // Prestage one decision per busy core whose slot is empty (§5.4).
        // The runtime consults the policy's wants_prestaging/backlog and
        // walks the candidate slots in core order; the guard here only
        // skips the candidate scan when prestaging could stage nothing.
        if self.cfg.opts.prestage
            && self.shards[si].policy.wants_prestaging()
            && self.shards[si].policy.queue_depth() > 0
        {
            let mut candidates = std::mem::take(&mut self.prestage_scratch);
            candidates.clear();
            candidates.extend(
                owned
                    .iter()
                    .filter(|&&c| matches!(self.cores[c as usize], CoreState::Busy { .. }))
                    .map(|&c| SlotId(c)),
            );
            let stage_cost = self.stage_cost();
            let shard = &mut self.shards[si];
            let mut producer = PickProducer {
                policy: shard.policy.as_mut(),
                threads: &mut self.threads,
                gen: &self.gen,
                next_txn: &mut self.next_txn,
                class: None,
            };
            shard.rt.prestage_with(
                now,
                &mut self.ic,
                &mut producer,
                candidates.iter().copied(),
                stage_cost,
                &mut nic_cost,
            );
            self.prestage_scratch = candidates;
        }
        self.owned_cores[si] = owned;

        self.shards[si].rt.run_raw(now, nic_cost);
        // If entries remain (a bigger batch, or pushed-but-not-yet-
        // visible messages), pump again when they can be seen.
        if let Some(next) = self.shards[si].rt.next_visible_at() {
            let at = next.max(self.shards[si].rt.busy_until());
            self.schedule_agent_pump(sim, si, at);
        }
    }

    /// Dequeues a thread from shard `si`'s policy and stages it for
    /// `cpu`. Returns whether a decision was staged; accumulates agent
    /// cost.
    /// Pick-cost parameters shared by local picks and steals: the
    /// agent-core scaling plus any scenario-specific extra (e.g.
    /// OnHost-Schedule reading RPC headers over PCIe before it can place
    /// the request).
    fn stage_cost(&self) -> StageCost {
        StageCost {
            ratio: self
                .cfg
                .cpu
                .ratio(self.agent_core, WorkloadClass::ComputeBound)
                / self.cfg.nic_share,
            extra: self.cfg.agent_decision_extra,
        }
    }

    /// Notifies the host of a staged decision for `cpu`'s slot: an
    /// MSI-X kick normally, or — in degraded polling mode
    /// ([`SchedConfig::poll_pickup`], vector-table exhaustion) — a
    /// suppressed interrupt whose pickup lands on the next poll-grid
    /// boundary after `at`. Returns `(sender_cpu, handler_at)`, the
    /// same pair the kick path reads off [`wave_pcie::MsixDelivery`].
    fn kick(&mut self, at: SimTime, cpu: CpuId) -> (SimTime, SimTime) {
        if let Some(grid) = self.cfg.poll_pickup {
            self.ic.msix.suppress();
            let g = grid.as_ns().max(1);
            // Next strict grid boundary ≥ at (never "now": the poller
            // visits, it is not interrupt-driven).
            let aligned = at.as_ns().div_ceil(g).max(1) * g;
            (SimTime::ZERO, SimTime::from_ns(aligned))
        } else {
            let d = self.ic.msix.send(
                at,
                MsixVector(cpu.0),
                MsixSendPath::Ioctl,
                if self.offloaded {
                    wave_pcie::config::Side::Nic
                } else {
                    wave_pcie::config::Side::Host
                },
            );
            (d.sender_cpu, d.handler_at)
        }
    }

    fn stage_pick(&mut self, now: SimTime, si: usize, cpu: CpuId, nic_cost: &mut SimTime) -> bool {
        let stage_cost = self.stage_cost();
        let slot = SlotId(cpu.0);
        let shard = &mut self.shards[si];
        let mut producer = PickProducer {
            policy: shard.policy.as_mut(),
            threads: &mut self.threads,
            gen: &self.gen,
            next_txn: &mut self.next_txn,
            class: None,
        };
        shard
            .rt
            .stage_with(now, &mut self.ic, &mut producer, slot, stage_cost, nic_cost)
    }

    /// Steal hook: shard `si` has an idle core and an empty run queue;
    /// pull a pick from a sibling and stage it locally. The victim is
    /// chosen **per SLO class** ([`steal_victim`]): the tightest class
    /// with backlog wins, and only within a class does depth pick the
    /// shard — so a latency-class backlog is never starved by a deep
    /// throughput-class flood (single-class policies degenerate to the
    /// old deepest-sibling rule). The thief pays the pick cost (the
    /// victim's run queue lives in shared SmartNIC memory).
    fn steal_pick(&mut self, now: SimTime, si: usize, cpu: CpuId, nic_cost: &mut SimTime) -> bool {
        if self.shards.len() < 2 {
            return false;
        }
        let policies = self.shards.iter().map(|sh| sh.policy.as_ref());
        let Some((vi, class)) = steal_victim(policies, si, &mut self.class_scratch) else {
            return false;
        };
        let stage_cost = self.stage_cost();
        let slot = SlotId(cpu.0);
        // Split-borrow the thief's runtime and the victim's policy.
        let (lo, hi) = self.shards.split_at_mut(si.max(vi));
        let (thief, victim_policy) = if si < vi {
            (&mut lo[si], &mut hi[0].policy)
        } else {
            (&mut hi[0], &mut lo[vi].policy)
        };
        let mut producer = PickProducer {
            policy: victim_policy.as_mut(),
            threads: &mut self.threads,
            gen: &self.gen,
            next_txn: &mut self.next_txn,
            class: Some(class),
        };
        let staged =
            thief
                .rt
                .stage_with(now, &mut self.ic, &mut producer, slot, stage_cost, nic_cost);
        if staged {
            self.diag.steals += 1;
        }
        staged
    }

    // --- Rebalancing -------------------------------------------------------

    /// Host-side rebalance epoch: drain each shard's decision-rate
    /// counter into the [`Rebalancer`], let it plan against the map,
    /// and apply whatever core moves it committed. Reschedules itself
    /// on the configured epoch.
    fn rebalance_epoch(&mut self, sim: &mut S) {
        let now = sim.now();
        // The committed moves land in a reused scratch buffer (the
        // rebalancer's own history keeps the canonical copy).
        let mut moves = std::mem::take(&mut self.moves_scratch);
        moves.clear();
        let epoch = {
            let Some(rb) = self.rebalancer.as_mut() else {
                self.moves_scratch = moves;
                return;
            };
            for (i, sh) in self.shards.iter_mut().enumerate() {
                rb.record(i as u32, sh.rt.take_load());
            }
            rb.run_epoch_into(now, &mut self.map, &mut moves);
            rb.config().epoch
        };
        if !moves.is_empty() {
            self.rebuild_owned_cores();
            for &m in &moves {
                self.apply_core_move(sim, now, m);
            }
        }
        self.moves_scratch = moves;
        sim.schedule(now + epoch, |m: &mut SchedSim, s| m.rebalance_epoch(s));
    }

    /// Applies one committed core move. Ownership has already flipped
    /// in the map; what remains is the handoff: a staged-but-unconsumed
    /// decision in the donor's slot is taken out (agent-side, one local
    /// write — the host never saw it) and its thread re-enqueued with
    /// the recipient's policy, so no pick is lost; a core parked
    /// waiting for work is now the recipient's to serve, so its pump is
    /// kicked. Host-side state (core idle/busy, thread tables,
    /// generations) needs no migration — it was never per-shard.
    fn apply_core_move(&mut self, sim: &mut S, now: SimTime, m: ResourceMove) {
        self.diag.rebalance_moves += 1;
        let (from, to) = (m.from as usize, m.to as usize);
        let slot = SlotId(m.resource as u32);
        let (cost, staged) = self.shards[from]
            .rt
            .slots()
            .take_staged(now, &mut self.ic, slot);
        self.shards[from].rt.run_raw(now, cost);
        if let Some(d) = staged {
            // The donor had picked a thread for this core. If it is
            // still runnable it re-enters the recipient's run queue;
            // the old txn snapshot is discarded (the recipient
            // revalidates at its own stage time).
            let runnable_meta = self
                .threads
                .get(d.tid)
                .filter(|t| t.run == ThreadRun::Runnable)
                .map(|t| ThreadMeta {
                    arrival: t.arrival,
                    slo: t.slo,
                });
            if let Some(meta) = runnable_meta {
                self.diag.rebalance_handoffs += 1;
                self.shards[to]
                    .policy
                    .on_runnable(&mut self.threads, now, d.tid, meta);
            }
        }
        if matches!(self.cores[m.resource], CoreState::Idle { waiting: true }) {
            self.schedule_agent_pump(sim, to, now);
        }
    }

    // --- Host side ---------------------------------------------------------

    /// MSI-X handler on an idle core: software coherence + consume +
    /// commit + switch.
    fn wakeup_irq(&mut self, sim: &mut S, cpu: CpuId) {
        let now = sim.now();
        if !matches!(self.cores[cpu.0 as usize], CoreState::Idle { .. }) {
            return; // Core got work through another path meanwhile.
        }
        let si = self.shard_of(cpu);
        let slot = SlotId(cpu.0);
        let mut cost = SimTime::ZERO;
        // §5.3.2: flush the stale view, then read.
        cost += self.shards[si]
            .rt
            .slots()
            .host_invalidate(now, &mut self.ic, slot);
        let (c, got) = self.shards[si]
            .rt
            .slots()
            .host_consume(now + cost, &mut self.ic, slot);
        cost += c;
        match got {
            Some(d) => {
                self.diag.wakeup_hit += 1;
                self.try_commit(sim, cpu, d, now + cost)
            }
            None => {
                // Spurious kick (e.g. decision revoked). Stay waiting.
                self.diag.wakeup_miss += 1;
                self.cores[cpu.0 as usize] = CoreState::Idle { waiting: true };
                self.schedule_agent_pump(sim, si, now + cost + self.ic.one_way());
            }
        }
    }

    /// Validate + enforce a decision on `cpu` (the atomic commit).
    fn try_commit(&mut self, sim: &mut S, cpu: CpuId, d: SlotDecision, at: SimTime) {
        let mut cost = self.cfg.cost.commit_path(self.offloaded);
        let outcome = self.gen.validate(d.target);
        if !outcome.is_committed()
            || !matches!(
                self.threads.get(d.tid).map(|t| t.run),
                Some(ThreadRun::Runnable)
            )
        {
            // Failed transaction: clean failure, core keeps waiting.
            self.diag.commit_fail += 1;
            self.cores[cpu.0 as usize] = CoreState::Idle { waiting: true };
            let si = self.shard_of(cpu);
            self.schedule_agent_pump(sim, si, at + cost + self.ic.one_way());
            return;
        }
        cost += self.cfg.cost.kernel_switch();
        self.run_token += 1;
        let token = self.run_token;
        self.cores[cpu.0 as usize] = CoreState::Busy { tid: d.tid, token };
        if let Some(t) = self.threads.get_mut(d.tid) {
            t.run = ThreadRun::Running(cpu);
        }
        self.begin_segment(sim, cpu, d.tid, token, at + cost);
    }

    /// Starts a run segment for `tid` on `cpu` at `start`, scheduling
    /// either completion or an agent-side preemption check.
    fn begin_segment(&mut self, sim: &mut S, cpu: CpuId, tid: Tid, token: u64, start: SimTime) {
        let remaining = self.threads[tid].remaining;
        let slice = self.shards[self.shard_of(cpu)].policy.time_slice();
        match slice {
            Some(slice) if remaining > slice => {
                // The agent tracks the slice and will preempt via MSI-X.
                let at = start + slice;
                sim.schedule(at, move |m: &mut SchedSim, s| {
                    m.agent_preempt(s, cpu, tid, token, start)
                });
            }
            _ => {
                let at = start + remaining;
                sim.schedule(at, move |m: &mut SchedSim, s| {
                    m.complete(s, cpu, tid, token)
                });
            }
        }
    }

    /// Agent-side slice expiry: stage a preemption decision and kick the
    /// core (§7.2.3 — this is the path where prefetching cannot help).
    ///
    /// Shinjuku issues a decision at *every* slice boundary: if the run
    /// queue has a replacement the current thread is preempted; otherwise
    /// the agent stages a "continue" decision for the same thread. Either
    /// way the host pays the MSI-X + fresh slot read + commit — the reason
    /// the paper's Fig. 4b degrades more under offload than FIFO does.
    fn agent_preempt(&mut self, sim: &mut S, cpu: CpuId, tid: Tid, token: u64, seg_start: SimTime) {
        if !matches!(self.cores[cpu.0 as usize], CoreState::Busy { tid: t, token: k } if t == tid && k == token)
        {
            return; // Stale timer.
        }
        let si = self.shard_of(cpu);
        if !self.shards[si].rt.is_running() {
            return;
        }
        let now = sim.now().max(self.shards[si].rt.busy_until());
        let mut nic_cost = SimTime::ZERO;
        // Pick the replacement (if any) and stage it.
        let staged = self.stage_pick(now, si, cpu, &mut nic_cost);
        if staged {
            self.diag.preempt_staged += 1;
        } else {
            // Queue empty: stage a self-requeue ("continue") decision.
            self.diag.preempt_extend += 1;
            let Some(target) = self.gen.snapshot(tid.0) else {
                return;
            };
            let txn = TxnId(self.next_txn);
            self.next_txn += 1;
            let d = SlotDecision {
                txn,
                tid,
                target,
                preempt: false,
            };
            let slot = SlotId(cpu.0);
            nic_cost += self.shards[si]
                .rt
                .stage_raw(now + nic_cost, &mut self.ic, slot, d);
        }
        let (sender_cpu, handler_at) = self.kick(now + nic_cost, cpu);
        nic_cost += sender_cpu;
        self.shards[si].rt.record_decision(now + nic_cost);
        self.shards[si].rt.run_raw(now, nic_cost);
        let at = handler_at;
        sim.schedule(at, move |m: &mut SchedSim, s| {
            m.preempt_irq(s, cpu, tid, token, seg_start)
        });
    }

    /// Host IRQ for a preemption: context-switch to the staged decision,
    /// re-queue the preempted thread.
    fn preempt_irq(&mut self, sim: &mut S, cpu: CpuId, tid: Tid, token: u64, seg_start: SimTime) {
        let now = sim.now();
        if !matches!(self.cores[cpu.0 as usize], CoreState::Busy { tid: t, token: k } if t == tid && k == token)
        {
            return;
        }
        let si = self.shard_of(cpu);
        let slot = SlotId(cpu.0);
        // The kernel charges the preempted thread for its runtime.
        let ran = now.saturating_sub(seg_start);
        let rem = self.threads[tid].remaining.saturating_sub(ran);
        let mut cost = SimTime::ZERO;
        // Read the staged replacement: flush + fresh read (no prefetch
        // benefit on this path, §7.2.2).
        cost += self.shards[si]
            .rt
            .slots()
            .host_invalidate(now, &mut self.ic, slot);
        let (c, got) = self.shards[si]
            .rt
            .slots()
            .host_consume(now + cost, &mut self.ic, slot);
        cost += c;
        let Some(d) = got else {
            // Replacement vanished: keep running the current thread.
            if let Some(t) = self.threads.get_mut(tid) {
                t.remaining = rem;
            }
            self.begin_segment(sim, cpu, tid, token, now + cost);
            return;
        };
        if d.tid == tid {
            // "Continue" decision: charge the check, extend the slice.
            if rem == SimTime::ZERO {
                self.finish_thread(sim, tid, now);
                self.cores[cpu.0 as usize] = CoreState::Idle { waiting: true };
                self.schedule_agent_pump(sim, si, now + cost + self.ic.one_way());
                return;
            }
            if let Some(t) = self.threads.get_mut(tid) {
                t.remaining = rem;
            }
            self.begin_segment(sim, cpu, tid, token, now + cost);
            return;
        }
        self.diag.preempt_switch += 1;
        if rem == SimTime::ZERO {
            // The thread finished exactly at the slice boundary; treat
            // as completion, then run the replacement.
            self.finish_thread(sim, tid, now);
        } else {
            if let Some(t) = self.threads.get_mut(tid) {
                t.remaining = rem;
                t.run = ThreadRun::Runnable;
            }
            // Tell the agent the thread is runnable again.
            cost += self.cfg.cost.kernel_event();
            let msg = SchedMsg::new(tid, SchedMsgKind::Preempted, Some(cpu));
            if let Some(c) = self.shards[si]
                .rt
                .host_try_send(now + cost, &mut self.ic, msg)
            {
                cost += c;
                cost += self.shards[si].rt.host_flush(now + cost, &mut self.ic);
                self.schedule_agent_pump(sim, si, now + cost + self.ic.one_way());
            }
        }
        self.try_commit(sim, cpu, d, now + cost);
    }

    fn finish_thread(&mut self, _sim: &mut S, tid: Tid, now: SimTime) {
        let Some(t) = self.threads.get_mut(tid) else {
            return;
        };
        t.run = ThreadRun::Finished;
        let arrival = t.arrival;
        let slo = t.slo;
        self.gen.remove(tid.0);
        self.threads.remove(tid);
        self.outstanding -= 1;
        if self.log_completions {
            self.completions.push(HostCompletion {
                arrival,
                finished: now,
                slo,
                rejected: false,
            });
        }
        if arrival >= self.cfg.warmup && now <= self.cfg.duration {
            self.lat.record_time(now - arrival);
            self.lat_by_class
                .entry(slo.0)
                .or_default()
                .record_time(now - arrival);
            if !self.lat_by_phase.is_empty() {
                // Bucket by arrival: a request belongs to the phase its
                // load hit the system in, not the one it drained in.
                let idx = self.cfg.phases.partition_point(|&p| p <= arrival);
                self.lat_by_phase[idx].record_time(now - arrival);
            }
            self.completed_measured += 1;
        }
    }

    /// A request finished on `cpu`: record stats and walk the idle
    /// transition (the paper's prestaged fast path).
    fn complete(&mut self, sim: &mut S, cpu: CpuId, tid: Tid, token: u64) {
        let now = sim.now();
        if !matches!(self.cores[cpu.0 as usize], CoreState::Busy { tid: t, token: k } if t == tid && k == token)
        {
            return;
        }
        self.finish_thread(sim, tid, now);

        let si = self.shard_of(cpu);
        let slot = SlotId(cpu.0);
        let mut cost = SimTime::ZERO;
        // §5.4 ordering: prefetch first, then kernel bookkeeping + the
        // blocked/dead message — that ~1 µs of useful work hides the
        // prefetch fill.
        if self.cfg.opts.prefetch {
            cost += self.shards[si]
                .rt
                .slots()
                .host_prefetch(now, &mut self.ic, slot);
        }
        cost += self.cfg.cost.kernel_event();
        let msg = SchedMsg::new(tid, SchedMsgKind::Dead, Some(cpu));
        let (c, _delivered) = self.shards[si].rt.host_send(now + cost, &mut self.ic, msg);
        cost += c;
        cost += self.shards[si].rt.host_flush(now + cost, &mut self.ic);
        let msg_visible = now + cost + self.ic.one_way();

        // Prestaged fast path: read the slot.
        let (c, got) = self.shards[si]
            .rt
            .slots()
            .host_consume(now + cost, &mut self.ic, slot);
        cost += c;
        match got {
            Some(d) => {
                self.diag.complete_hit += 1;
                self.cores[cpu.0 as usize] = CoreState::Idle { waiting: false };
                self.schedule_agent_pump(sim, si, msg_visible);
                self.try_commit(sim, cpu, d, now + cost);
            }
            None => {
                self.diag.complete_miss += 1;
                self.cores[cpu.0 as usize] = CoreState::Idle { waiting: true };
                self.schedule_agent_pump(sim, si, msg_visible);
            }
        }
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
    /// `true` when the overload guard shed the request instead of
    /// running it.
    pub rejected: bool,
}

/// A [`SchedSim`] paused between time windows.
///
/// Produced by [`SchedSim::into_stepper`]; the fleet executor drives many
/// of these in lock-step windows, injecting fabric arrivals with
/// [`inject`](Self::inject) and draining [`HostCompletion`]s at each
/// window barrier. `SchedSim::run` is exactly `into_stepper` + one
/// full-duration `advance` + `finish`, so stepping never perturbs
/// single-host results.
pub struct SchedStepper {
    sim: S,
    model: SchedSim,
}

impl SchedStepper {
    /// Runs the host's event loop up to and including `horizon`, and
    /// returns how many events executed in this window.
    pub fn advance(&mut self, horizon: SimTime) -> u64 {
        self.sim.set_horizon(horizon);
        self.sim.run(&mut self.model)
    }

    /// The host's local virtual clock.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Enables per-request completion logging (fleet mode). Off by
    /// default: a standalone run has no driver to drain the log.
    pub fn set_completion_log(&mut self, on: bool) {
        self.model.log_completions = on;
    }

    /// Schedules an external (fabric-delivered) arrival at local time
    /// `at`. `wire_arrival` is the stamp latency is measured from —
    /// fleet drivers pass the client's emission time so the recorded
    /// latency includes the forward network hop.
    pub fn inject(&mut self, at: SimTime, wire_arrival: SimTime, task: Task) {
        self.sim.schedule(at, move |m: &mut SchedSim, s| {
            m.external_arrival(s, wire_arrival, task)
        });
    }

    /// Moves the completions logged since the last drain into `out`
    /// (appending; `out` is not cleared).
    pub fn drain_completions(&mut self, out: &mut Vec<HostCompletion>) {
        out.append(&mut self.model.completions);
    }

    /// Finishes the run and assembles the [`SchedReport`], exactly as
    /// [`SchedSim::run`] would.
    pub fn finish(self) -> SchedReport {
        let SchedStepper { sim, mut model } = self;
        let events_executed = sim.executed();
        let window = model.cfg.duration - model.cfg.warmup;
        let achieved = model.completed_measured as f64 / window.as_secs_f64();
        let (mut hits, mut misses, mut decisions) = (0u64, 0u64, 0u64);
        let mut per_agent_decisions = Vec::with_capacity(model.shards.len());
        for sh in &model.shards {
            let (h, m) = sh.rt.slots_ref().hit_miss();
            hits += h;
            misses += m;
            decisions += sh.rt.decisions();
            per_agent_decisions.push(sh.rt.decisions());
        }
        model.diag.outstanding_at_end = model.outstanding as u64;
        SchedReport {
            offered: model.cfg.workload.offered(),
            achieved,
            latency: model.lat.summary(),
            completed: model.completed_measured,
            dropped: model.dropped,
            prestage_hits: hits,
            prestage_misses: misses,
            msix_sent: model.ic.msix.sent(),
            msix_suppressed: model.ic.msix.suppressed(),
            agent_decisions: decisions,
            events_executed,
            per_agent_decisions,
            latency_by_class: model
                .lat_by_class
                .iter()
                .map(|(&c, h)| (SloClass(c), h.summary()))
                .collect(),
            latency_by_phase: model.lat_by_phase.iter().map(|h| h.summary()).collect(),
            rebalance: model
                .rebalancer
                .as_ref()
                .map(|r| r.history().to_vec())
                .unwrap_or_default(),
            latency_cdf: model.lat.ladder(),
            diag: model.diag,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{FifoPolicy, ShinjukuPolicy};

    fn quick_cfg(placement: Placement, opts: OptLevel, offered: f64) -> SchedConfig {
        let mut cfg = SchedConfig::new(4, placement, opts);
        cfg.workload.set_offered(offered);
        cfg.duration = SimTime::from_ms(200);
        cfg.warmup = SimTime::from_ms(20);
        cfg
    }

    #[test]
    fn low_load_all_requests_complete() {
        let cfg = quick_cfg(Placement::Offloaded, OptLevel::full(), 20_000.0);
        let report = SchedSim::new(cfg, Box::new(FifoPolicy::new())).run();
        // 20k/s for 180 ms measured window ~ 3600 requests.
        assert!(report.completed > 3_000, "completed {}", report.completed);
        assert_eq!(report.dropped, 0);
        // At 20k req/s on 4 cores the system is far from saturation:
        // latency should be tens of microseconds.
        assert!(
            report.latency.p99 < SimTime::from_us(120),
            "p99 {}",
            report.latency.p99
        );
    }

    #[test]
    fn onhost_low_load_latency_below_offloaded() {
        let on = SchedSim::new(
            quick_cfg(Placement::OnHost, OptLevel::full(), 20_000.0),
            Box::new(FifoPolicy::new()),
        )
        .run();
        let off = SchedSim::new(
            quick_cfg(Placement::Offloaded, OptLevel::full(), 20_000.0),
            Box::new(FifoPolicy::new()),
        )
        .run();
        assert!(
            off.latency.p50 >= on.latency.p50,
            "offload median {} should not beat on-host {}",
            off.latency.p50,
            on.latency.p50
        );
        // But with full optimizations the gap stays small (paper: a few us).
        let gap = off.latency.p99.saturating_sub(on.latency.p99);
        assert!(gap < SimTime::from_us(15), "tail gap {gap}");
    }

    #[test]
    fn optimizations_increase_saturation() {
        let mut base_cfg = quick_cfg(Placement::Offloaded, OptLevel::none(), 150_000.0);
        base_cfg.duration = SimTime::from_ms(300);
        let base = SchedSim::new(base_cfg, Box::new(FifoPolicy::new())).run();
        let full = SchedSim::new(
            {
                let mut c = quick_cfg(Placement::Offloaded, OptLevel::full(), 150_000.0);
                c.duration = SimTime::from_ms(300);
                c
            },
            Box::new(FifoPolicy::new()),
        )
        .run();
        // At a load the optimized system can absorb, the unoptimized one
        // must show far worse tail latency (it is past saturation).
        assert!(
            base.latency.p99 > full.latency.p99 * 3,
            "base p99 {} vs full p99 {}",
            base.latency.p99,
            full.latency.p99
        );
    }

    #[test]
    fn prestaging_hits_dominate_at_load() {
        let cfg = quick_cfg(Placement::Offloaded, OptLevel::full(), 150_000.0);
        let report = SchedSim::new(cfg, Box::new(FifoPolicy::new())).run();
        assert!(
            report.prestage_hits > report.prestage_misses,
            "hits {} misses {}",
            report.prestage_hits,
            report.prestage_misses
        );
    }

    #[test]
    fn shinjuku_preempts_long_requests() {
        let mut cfg = quick_cfg(Placement::Offloaded, OptLevel::full(), 20_000.0);
        cfg.workload = WorkloadSpec::poisson(ServiceMix::paper_bimodal(), 20_000.0);
        let report = SchedSim::new(cfg, Box::new(ShinjukuPolicy::paper_default())).run();
        assert!(report.completed > 2_000);
        // With 0.5% 10 ms requests and FIFO, p99 of the GETs would blow
        // past 10 ms at this load; Shinjuku keeps the p99 well below.
        assert!(
            report.latency.p99 < SimTime::from_ms(12),
            "p99 {}",
            report.latency.p99
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let r1 = SchedSim::new(
            quick_cfg(Placement::Offloaded, OptLevel::full(), 50_000.0),
            Box::new(FifoPolicy::new()),
        )
        .run();
        let r2 = SchedSim::new(
            quick_cfg(Placement::Offloaded, OptLevel::full(), 50_000.0),
            Box::new(FifoPolicy::new()),
        )
        .run();
        assert_eq!(r1.completed, r2.completed);
        assert_eq!(r1.latency.p99, r2.latency.p99);
        assert_eq!(r1.msix_sent, r2.msix_sent);
    }

    #[test]
    fn overload_guard_drops() {
        let mut cfg = quick_cfg(Placement::Offloaded, OptLevel::full(), 3_000_000.0);
        cfg.max_outstanding = 500;
        let report = SchedSim::new(cfg, Box::new(FifoPolicy::new())).run();
        assert!(report.dropped > 0);
    }

    // --- Sharding ----------------------------------------------------------

    fn sharded_cfg(workers: u32, agents: u32, offered: f64) -> SchedConfig {
        let mut cfg = SchedConfig::new(workers, Placement::Offloaded, OptLevel::full());
        cfg.agents = agents;
        cfg.workload.set_offered(offered);
        cfg.duration = SimTime::from_ms(150);
        cfg.warmup = SimTime::from_ms(20);
        cfg
    }

    #[test]
    fn sharded_agents_serve_all_cores() {
        let report = SchedSim::with_policy_factory(sharded_cfg(8, 4, 100_000.0), |_| {
            Box::new(FifoPolicy::new())
        })
        .run();
        assert!(report.completed > 10_000, "completed {}", report.completed);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.per_agent_decisions.len(), 4);
        for (i, d) in report.per_agent_decisions.iter().enumerate() {
            assert!(*d > 0, "shard {i} made no decisions");
        }
    }

    #[test]
    fn sharded_run_is_deterministic() {
        let run = || {
            SchedSim::with_policy_factory(sharded_cfg(8, 4, 200_000.0), |_| {
                Box::new(FifoPolicy::new())
            })
            .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.latency.p99, b.latency.p99);
        assert_eq!(a.msix_sent, b.msix_sent);
        assert_eq!(a.per_agent_decisions, b.per_agent_decisions);
    }

    #[test]
    fn uneven_worker_split_covers_every_core() {
        // 10 cores over 4 shards: slices of 2/3/2/3.
        let report = SchedSim::with_policy_factory(sharded_cfg(10, 4, 150_000.0), |_| {
            Box::new(FifoPolicy::new())
        })
        .run();
        assert!(report.completed > 15_000);
        assert_eq!(report.dropped, 0);
    }

    #[test]
    fn steal_rebalances_idle_shards() {
        // Bimodal mix: a 10 ms RANGE clogs one shard's cores while its
        // siblings idle — stealing should kick in.
        let mut cfg = sharded_cfg(4, 2, 60_000.0);
        cfg.workload = WorkloadSpec::poisson(ServiceMix::paper_bimodal(), 60_000.0);
        cfg.steal = true;
        let stealing =
            SchedSim::with_policy_factory(cfg.clone(), |_| Box::new(FifoPolicy::new())).run();
        assert!(stealing.diag.steals > 0, "no steals at {:?}", stealing.diag);
        let mut no_steal_cfg = cfg;
        no_steal_cfg.steal = false;
        let fixed =
            SchedSim::with_policy_factory(no_steal_cfg, |_| Box::new(FifoPolicy::new())).run();
        assert_eq!(fixed.diag.steals, 0);
        // Work conservation must not hurt completion count.
        assert!(
            stealing.completed * 100 >= fixed.completed * 99,
            "steal {} vs fixed {}",
            stealing.completed,
            fixed.completed
        );
    }

    #[test]
    #[should_panic(expected = "use with_policy_factory")]
    fn new_rejects_multi_agent_config() {
        let cfg = sharded_cfg(8, 2, 10_000.0);
        let _ = SchedSim::new(cfg, Box::new(FifoPolicy::new()));
    }

    // --- Dynamic rebalancing -----------------------------------------------

    use wave_core::shard_map::RebalanceConfig;

    /// 4:1-skewed wakeup routing over 2 shards: shard 0 serves 4x the
    /// offered load of shard 1.
    fn skewed_cfg(rebalance: bool) -> SchedConfig {
        let mut cfg = sharded_cfg(8, 2, 330_000.0);
        cfg.wakeup_weights = Some(vec![4, 1]);
        if rebalance {
            cfg.rebalance = Some(RebalanceConfig::every(SimTime::from_ms(10)));
        }
        cfg
    }

    #[test]
    fn weighted_routing_respects_weights() {
        // All wakeups to shard 0: shard 1 makes no fresh picks beyond
        // what it would via its own cores' events (none, since it never
        // receives a thread).
        let mut cfg = sharded_cfg(4, 2, 50_000.0);
        cfg.wakeup_weights = Some(vec![1, 0]);
        let r = SchedSim::with_policy_factory(cfg, |_| Box::new(FifoPolicy::new())).run();
        assert!(r.per_agent_decisions[0] > 0);
        assert_eq!(r.per_agent_decisions[1], 0, "starved shard decided");
        assert!(r.completed > 0);
    }

    #[test]
    fn rebalance_feeds_cores_to_the_loaded_shard() {
        let skewed =
            SchedSim::with_policy_factory(skewed_cfg(true), |_| Box::new(FifoPolicy::new())).run();
        assert!(
            skewed.diag.rebalance_moves > 0,
            "sustained 4:1 skew must move cores: {:?}",
            skewed.diag
        );
        // Every move feeds the busy shard (shard 0 gains, never loses).
        for e in &skewed.rebalance {
            for m in &e.moves {
                assert_eq!(m.to, 0, "moves feed the loaded shard");
            }
        }
        // The per-core decision-rate spread shrinks from the first
        // sample to the last: the raw rates stay 4:1 by construction
        // (that *is* the offered skew), but once cores follow the load
        // every owned core carries a similar rate.
        let first = skewed
            .rebalance
            .first()
            .expect("epochs fired")
            .per_resource_spread();
        let last = skewed.rebalance.last().unwrap().per_resource_spread();
        assert!(
            last < first,
            "per-core decision-rate spread must shrink: {first:.3} -> {last:.3}"
        );
        // And rebalancing must not cost throughput vs the static split.
        let fixed =
            SchedSim::with_policy_factory(skewed_cfg(false), |_| Box::new(FifoPolicy::new())).run();
        assert!(fixed.rebalance.is_empty());
        assert_eq!(fixed.diag.rebalance_moves, 0);
        assert!(
            skewed.completed >= fixed.completed,
            "rebalance {} vs static {}",
            skewed.completed,
            fixed.completed
        );
    }

    #[test]
    fn rebalance_history_is_deterministic() {
        let run = || {
            SchedSim::with_policy_factory(skewed_cfg(true), |_| Box::new(FifoPolicy::new())).run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.rebalance, b.rebalance, "generation history drifted");
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.diag, b.diag);
        assert_eq!(a.per_agent_decisions, b.per_agent_decisions);
    }

    #[test]
    fn per_class_latency_is_reported() {
        let mut cfg = quick_cfg(Placement::Offloaded, OptLevel::full(), 20_000.0);
        cfg.workload = WorkloadSpec::poisson(ServiceMix::paper_bimodal(), 20_000.0);
        let r = SchedSim::new(cfg, Box::new(ShinjukuPolicy::paper_default())).run();
        assert_eq!(r.latency_by_class.len(), 2, "both mix classes completed");
        assert_eq!(r.latency_by_class[0].0, SloClass(0));
        assert_eq!(r.latency_by_class[1].0, SloClass(1));
        // The 10 ms RANGE class must dominate the GET class's median.
        assert!(r.latency_by_class[1].1.p50 > r.latency_by_class[0].1.p50 * 10);
    }

    #[test]
    fn mix_sampling_matches_weights() {
        let mix = ServiceMix::paper_bimodal();
        let mut rng = wave_sim::rng(7);
        let mut long = 0u32;
        for _ in 0..200_000 {
            let (svc, _) = mix.sample(&mut rng);
            if svc >= SimTime::from_ms(10) {
                long += 1;
            }
        }
        // 0.5% of 200k = 1000 expected RANGEs; allow wide slack.
        assert!((600..1_400).contains(&long), "long {long}");
    }

    // --- Workload sources --------------------------------------------------

    use wave_core::workload::{SloClass as Wslo, SyntheticConfig, TraceRecord};

    #[test]
    fn synthetic_workload_drives_the_sim_deterministically() {
        let run = || {
            let mut cfg = quick_cfg(Placement::Offloaded, OptLevel::full(), 0.0);
            let mut syn = SyntheticConfig::diurnal_bursty();
            syn.base_rate = 40_000.0;
            syn.diurnal_period = SimTime::from_ms(50);
            cfg.workload = WorkloadSpec::synthetic(syn);
            SchedSim::new(cfg, Box::new(FifoPolicy::new())).run()
        };
        let (a, b) = (run(), run());
        assert!(a.completed > 2_000, "completed {}", a.completed);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.latency.p99, b.latency.p99);
        assert_eq!(a.msix_sent, b.msix_sent);
    }

    #[test]
    fn trace_workload_replays_and_affinity_pins_shards() {
        // Every task is pinned to shard 1 of 2: shard 0 never receives a
        // wakeup, so it makes no decisions — the routing analogue of the
        // weighted-routing starvation test, driven by the trace.
        // Arrivals start past the 20 ms warmup so every completion is
        // measured.
        let records: Vec<TraceRecord> = (0..2_000)
            .map(|i| TraceRecord {
                at: SimTime::from_us(21_000 + i * 20),
                service: SimTime::from_us(5),
                slo: Wslo(0),
                affinity: Some(1),
                mem_delta: 0,
            })
            .collect();
        let mut cfg = sharded_cfg(4, 2, 0.0);
        cfg.workload = WorkloadSpec::trace(records);
        let r = SchedSim::with_policy_factory(cfg, |_| Box::new(FifoPolicy::new())).run();
        assert!(r.completed > 1_500, "completed {}", r.completed);
        assert_eq!(r.per_agent_decisions[0], 0, "pinned-away shard decided");
        assert!(r.per_agent_decisions[1] > 0);
    }

    #[test]
    fn phase_boundaries_bucket_latency_by_arrival() {
        let mut cfg = quick_cfg(Placement::Offloaded, OptLevel::full(), 50_000.0);
        cfg.phases = vec![SimTime::from_ms(80), SimTime::from_ms(140)];
        let r = SchedSim::new(cfg, Box::new(FifoPolicy::new())).run();
        assert_eq!(r.latency_by_phase.len(), 3);
        let total: u64 = r.latency_by_phase.iter().map(|s| s.count).sum();
        assert_eq!(total, r.completed, "every completion lands in a phase");
        for (i, s) in r.latency_by_phase.iter().enumerate() {
            assert!(s.count > 0, "phase {i} empty");
        }
    }
}
