//! The K-sharded memory agent (§6 scale-out applied to §4.2).
//!
//! Wave's scaling story is that resource managers grow by *partitioning
//! hosts across agents*, not by fattening one agent. The scheduler
//! demonstrates it over worker cores (`SchedConfig::agents`); this
//! module applies the same pattern to the memory manager's batch space:
//! a [`ShardedSolRunner`] owns K complete agent worlds, each with
//!
//! * a contiguous **batch slice** ([`wave_core::runtime::shard_range`]
//!   over the address space, the same partition the scheduler uses for
//!   cores),
//! * its own [`AgentRuntime`], built with the runner — a private
//!   PTE-delta stream (DMA ingest), a decision outbox keyed by global
//!   batch id, and the agent's liveness flag,
//! * its own [`SolPolicy`] over the slice (global batch ids, local
//!   state — [`SolPolicy::with_base`]), and
//! * its own [`Interconnect`] and RNG stream, modelling one DMA channel
//!   per agent.
//!
//! K=1 is the single-agent deployment: shard 0 holds the whole batch
//! space and runs on the caller's thread. With K>1, because each shard
//! owns *all* of its mutable state, shards execute on real OS threads
//! ([`wave_sim::par::par_map_mut`]) with no sharing and no loss of
//! determinism.
//!
//! # Cost attribution
//!
//! One sharded iteration returns a [`ShardedCost`]: the per-shard
//! [`IterationCost`]s, each read off that shard's own runtime legs.
//! Within one agent only the classification phase divides across
//! threads (§7.4.2's two-phase story); across K *agents* every phase
//! divides, because each shard scans, classifies, and DMAs only its
//! slice. [`ShardedCost::wall`] is the iteration's wall clock, the
//! slowest shard's total (agents run concurrently), and
//! [`ShardedCost::aggregate`] the leg-wise maximum over the shards. K=1
//! produces the §7.4.2 duration table ([`crate::runner::duration_table`]).
//!
//! # Dynamic rebalancing
//!
//! Scan *work* is not uniform across the batch space: confident batches
//! climb the frequency ladder and go quiet while ambivalent ones rescan
//! every period, so a static partition can leave one shard doing most
//! of the scanning. [`ShardedSolRunner::with_rebalance`] turns on the
//! shared [`wave_core::shard_map`] layer: batch ownership lives in a
//! generation-stamped [`ShardMap`], per-shard due-batch scan rates
//! accumulate on each runtime's load counter, and a host-side
//! [`Rebalancer`] ([`ShedLoad`] direction — the busiest-scanning shard
//! gives batches away) commits moves between iterations
//! ([`ShardedSolRunner::maybe_rebalance`]). Handoff is **host replay**,
//! reusing the fault-recovery recipe: the recipient adopts moved
//! batches with a fresh prior and rescans them from the page tables;
//! no posterior is ever shipped between agents. With rebalancing off
//! (the default) the map never changes and every result is
//! bit-identical to the static partition.
//!
//! Faults and rebalancing compose: a killed shard's batches are *lent*
//! to the live siblings through the same map-commit + adopt-replay
//! path, rebalance epochs keep running with the corpse masked out of
//! the planner (the liveness mask of [`Rebalancer::run_epoch`]), and a
//! restart reclaims each lent batch from whichever shard holds it at
//! that moment.

use rand::rngs::SmallRng;
use wave_core::runtime::{shard_range, AgentRuntime, SlotId};
use wave_core::shard_map::{
    RebalanceConfig, RebalanceEvent, Rebalancer, ResourceMove, ShardMap, ShedLoad,
};
use wave_core::workload::{MemPhase, PhaseSchedule};
use wave_kvstore::DbFootprint;
use wave_pcie::Interconnect;
use wave_sim::cpu::{CpuModel, WorkloadClass};
use wave_sim::par::par_map_mut;
use wave_sim::SimTime;

use crate::runner::{IterationCost, MigrationDecision, PteDelta, RunnerConfig};
use crate::sol::{SolConfig, SolPolicy, SolStats};

/// Cost of one sharded iteration: per-shard legs plus aggregate views.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedCost {
    /// One [`IterationCost`] per shard, in shard order. A dead shard
    /// (killed by its watchdog, not yet restarted) contributes
    /// [`IterationCost::idle`].
    pub per_shard: Vec<IterationCost>,
}

impl ShardedCost {
    /// Wall-clock duration of the sharded iteration: agents run
    /// concurrently, so the slowest shard's total.
    pub fn wall(&self) -> SimTime {
        self.per_shard
            .iter()
            .map(IterationCost::total)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Leg-wise critical path across shards: each field is the maximum
    /// of that leg over the shards. With balanced slices this coincides
    /// with the slowest shard's breakdown; under skew it upper-bounds
    /// [`ShardedCost::wall`].
    pub fn aggregate(&self) -> IterationCost {
        let mut agg = IterationCost::idle();
        for c in &self.per_shard {
            agg.dma_in = agg.dma_in.max(c.dma_in);
            agg.scan = agg.scan.max(c.scan);
            agg.classify = agg.classify.max(c.classify);
            agg.dma_out = agg.dma_out.max(c.dma_out);
        }
        agg
    }
}

/// One shard's complete agent world. Owning everything (runtime,
/// policy, interconnect, RNG) is what makes the fan-out thread-safe and
/// the fault blast-radius exactly one slice of the batch space.
///
/// An iteration allocates nothing once the shard has warmed up: the
/// host leg streams the policy's due filter straight into the PTE
/// queue, the agent polls into the reused `polled` buffer and scans
/// straight off it, and the ship leg drains the outbox into the reused
/// `last_shipment` buffer. Each buffer keeps the capacity of the
/// largest iteration so far.
#[derive(Debug)]
struct MemShard {
    policy: SolPolicy,
    ic: Interconnect,
    rng: SmallRng,
    /// Spans the whole batch space: a decision's slot id is its global
    /// batch id. Not running between a watchdog kill and the operator
    /// restart.
    rt: AgentRuntime<PteDelta, MigrationDecision>,
    /// The PTE deltas the agent polled this iteration.
    polled: Vec<PteDelta>,
    /// Migration decisions shipped to the host so far.
    shipped: u64,
    /// The most recent `dma_out` shipment, in slot order (what the host
    /// received last iteration), refilled in place each iteration.
    last_shipment: Vec<(SlotId, MigrationDecision)>,
}

impl MemShard {
    /// Runs one *real* policy iteration on the shard's agent runtime:
    /// the host ships the due batches' PTE deltas over the DMA ingest
    /// leg, the agent polls them at arrival, scans and
    /// Thompson-classifies them, stages each classification flip as a
    /// migration decision, and ships the decisions back in one batched
    /// `dma_out` transfer. Returns the policy stats plus the modelled
    /// duration, derived from the runtime legs; a dead shard does no
    /// work and returns [`IterationCost::idle`].
    ///
    /// All transport legs are issued at `now` on the shard's long-lived
    /// [`Interconnect`], so an iteration only queues behind DMA traffic
    /// that is *actually* in flight — the engine sits idle across the
    /// 600 ms between scan periods, and [`IterationCost`]s stay
    /// comparable across iterations and shards. The returned cost fields
    /// are durations relative to `now`.
    ///
    /// The runtime spans the whole batch space, whatever slice the
    /// policy manages, so a slice that grows or shrinks
    /// (rebalancing, batches lent by a dead sibling) stages into the
    /// same outbox. Each iteration also notes the due-batch count on the
    /// runtime's load counter ([`AgentRuntime::note_load`]), the
    /// scan-rate signal the [`Rebalancer`] samples.
    fn run(
        &mut self,
        cfg: &RunnerConfig,
        cpu: &CpuModel,
        workload: &DbFootprint,
        now: SimTime,
    ) -> (SolStats, IterationCost) {
        if !self.rt.is_running() {
            return (SolStats::default(), IterationCost::idle());
        }
        let (ic, rt) = (&mut self.ic, &mut self.rt);

        // Host leg: push the due batches' delta stream and flush — the
        // queue's batched, delta-compressed DMA is the dma_in transfer,
        // issued at `now` so only genuinely concurrent traffic queues.
        let mut due = 0;
        for batch in self.policy.due(now) {
            rt.host_send(now, ic, PteDelta { batch });
            due += 1;
        }
        if due == 0 {
            rt.host_send(now, ic, PteDelta::HEARTBEAT);
        }
        rt.host_flush(now, ic);
        let arrive = rt.next_visible_at().expect("stream in flight");
        let dma_in = arrive - now;
        let batches = due.max(1);
        let wire = batches * cfg.wire_bytes_per_batch;
        // The two CPU phases: the memory-bound scan runs serially at full
        // cost, the compute-bound classification divides across the
        // agent's cores.
        let scan = cpu.cost(
            cfg.placement,
            WorkloadClass::MemoryBound,
            SimTime::from_ns(cfg.scan_ns_per_batch * batches),
        );
        let classify = cpu
            .cost(
                cfg.placement,
                WorkloadClass::ComputeBound,
                SimTime::from_ns(cfg.classify_ns_per_batch * batches),
            )
            .scale(1.0 / cfg.cores as f64);

        // Agent leg: pick the stream up at arrival and run the two-phase
        // pass over exactly the batches the host shipped.
        self.polled.clear();
        rt.poll_into(arrive, ic, usize::MAX, &mut self.polled);
        let shipped_batches = self
            .polled
            .iter()
            .filter(|d| **d != PteDelta::HEARTBEAT)
            .map(|d| d.batch);
        let stats = self
            .policy
            .iterate_batches(now, shipped_batches, workload, &mut self.rng);
        rt.note_load(stats.scanned);

        // Stage each classification flip as a migration decision under
        // its batch's slot id (slot id == global batch id). Decision-
        // forming compute is the classify phase above, so only the
        // stage writes accrue, onto the agent's serial clock.
        let stage_at = arrive + scan;
        let mut stage_cpu = SimTime::ZERO;
        for &(batch, hot) in self.policy.flips() {
            let d = MigrationDecision { batch, hot };
            stage_cpu += rt.stage(stage_at + stage_cpu, ic, SlotId(batch), d);
            rt.record_decision();
        }
        rt.run_raw(stage_at, stage_cpu);

        // Ship leg: one batched transfer empties the outbox —
        // only a subset migrates, so the decision stream is ~4:1
        // smaller than the ingest (<1 ms per the paper).
        let ship_at = arrive + scan + classify;
        self.last_shipment.clear();
        let shipment = rt.dma_ship_staged(ship_at, ic, (wire / 4).max(64), &mut self.last_shipment);
        self.shipped += self.last_shipment.len() as u64;
        let dma_out = shipment.complete_at - ship_at;

        (
            stats,
            IterationCost {
                dma_in,
                scan,
                classify,
                dma_out,
            },
        )
    }
}

/// The memory manager partitioned across K agent runtimes.
#[derive(Debug)]
pub struct ShardedSolRunner {
    shards: Vec<MemShard>,
    cfg: RunnerConfig,
    cpu: CpuModel,
    sol: SolConfig,
    total_batches: usize,
    /// Host-side epoch clock. The epoch is a global, host-driven event,
    /// so it lives here and not in any shard's policy — a killed or
    /// restarted shard must not perturb the cadence for the others.
    last_epoch: SimTime,
    /// Generation-stamped batch-ownership map (the static contiguous
    /// partition until a rebalance commits).
    map: ShardMap,
    /// Dynamic batch rebalancing, when enabled
    /// ([`ShardedSolRunner::with_rebalance`]).
    rebalancer: Option<Rebalancer>,
    /// Per shard: the batch ids lent to live siblings while the shard
    /// is dead (empty while alive). [`ShardedSolRunner::restart_shard`]
    /// reclaims them from whichever shard holds each one by then.
    lent: Vec<Vec<usize>>,
    /// A phase pulled from the source but not yet due — buffered so the
    /// pull-based [`PhaseSchedule`] is only advanced once per phase.
    pending_phase: Option<MemPhase>,
    /// Phases applied so far ([`ShardedSolRunner::phases_applied`]).
    phases_applied: u64,
}

impl ShardedSolRunner {
    /// Partitions `total_batches` across `shards` agents. Shard `i`
    /// owns the contiguous slice [`shard_range`]`(total_batches,
    /// shards, i)`, a fresh policy with an uninformative prior over it,
    /// the RNG stream `seed ^ (i << 32)`, and a running agent runtime
    /// over the whole batch space. With one shard this is the
    /// single-agent deployment: the whole batch space on `rng(seed)`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds `total_batches`.
    pub fn new(
        cfg: RunnerConfig,
        cpu: CpuModel,
        shards: u32,
        sol: SolConfig,
        total_batches: usize,
        seed: u64,
    ) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(
            total_batches >= shards as usize,
            "need at least one batch per shard"
        );
        let shards: Vec<MemShard> = (0..shards as usize)
            .map(|i| {
                let slice = shard_range(total_batches, shards as usize, i);
                let mut ic = Interconnect::pcie();
                let rt = AgentRuntime::new(&mut ic, &cfg.runtime_config(total_batches));
                MemShard {
                    policy: SolPolicy::with_base(sol, slice.len(), slice.start),
                    ic,
                    rng: wave_sim::rng(seed ^ (i as u64) << 32),
                    rt,
                    polled: Vec::new(),
                    shipped: 0,
                    last_shipment: Vec::new(),
                }
            })
            .collect();
        let map = ShardMap::contiguous(total_batches, shards.len() as u32);
        let lent = vec![Vec::new(); shards.len()];
        ShardedSolRunner {
            shards,
            cfg,
            cpu,
            sol,
            total_batches,
            last_epoch: SimTime::ZERO,
            map,
            rebalancer: None,
            lent,
            pending_phase: None,
            phases_applied: 0,
        }
    }

    /// Enables dynamic batch rebalancing: a host-side [`Rebalancer`]
    /// samples per-shard due-batch scan rates
    /// ([`wave_core::runtime::AgentRuntime::take_load`]) on the given
    /// epoch and — while the rates stay skewed — moves batches from the
    /// busiest-scanning shard to the idlest ([`ShedLoad`]: scan work is
    /// *generated by* the owned batches, so the overloaded shard gives
    /// batches away). Moved batches are handed off by **host replay**:
    /// the recipient adopts them with a fresh prior
    /// ([`SolPolicy::adopt_batches`]) exactly as a restarted shard
    /// re-pulls its slice, so the next scan re-derives their state from
    /// the page tables. Call [`ShardedSolRunner::maybe_rebalance`] from
    /// the host driver between iterations.
    pub fn with_rebalance(mut self, rc: RebalanceConfig) -> Self {
        let per_shard = self.total_batches / self.shards.len();
        let policy = ShedLoad {
            max_moves: (per_shard / 4).max(1),
            min_resources: 1,
        };
        self.rebalancer = Some(Rebalancer::new(
            rc,
            Box::new(policy),
            self.shards.len() as u32,
        ));
        self
    }

    /// The per-agent deployment configuration every shard runs.
    pub fn config(&self) -> RunnerConfig {
        self.cfg
    }

    /// The current batch-ownership map (tests/telemetry).
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// The rebalancer's epoch history (empty when rebalancing is off).
    pub fn rebalance_history(&self) -> &[RebalanceEvent] {
        self.rebalancer.as_ref().map_or(&[], |r| r.history())
    }

    /// Number of agent shards.
    pub fn shards(&self) -> u32 {
        self.shards.len() as u32
    }

    /// Total batches under management across all shards.
    pub fn total_batches(&self) -> usize {
        self.total_batches
    }

    /// The global batch ids shard `i` owns, ascending — a contiguous
    /// run until rebalancing moves batches around.
    pub fn shard_batches(&self, i: u32) -> Vec<usize> {
        self.map.resources_of(i).collect()
    }

    /// Runs one sharded iteration at `now`: every live shard ships its
    /// due PTE deltas, scans, classifies, stages, and ships decisions —
    /// concurrently on OS threads when K>1, on the caller's thread when
    /// K=1. Returns the merged stats and the per-shard cost breakdown.
    pub fn run_iteration(
        &mut self,
        workload: &DbFootprint,
        now: SimTime,
    ) -> (SolStats, ShardedCost) {
        let (cfg, cpu) = (&self.cfg, &self.cpu);
        let results = if self.shards.len() > 1 {
            par_map_mut(&mut self.shards, |sh| sh.run(cfg, cpu, workload, now))
        } else {
            vec![self.shards[0].run(cfg, cpu, workload, now)]
        };
        let mut merged = SolStats::default();
        let mut per_shard = Vec::with_capacity(results.len());
        for (stats, cost) in results {
            merged.scanned += stats.scanned;
            merged.hot += stats.hot;
            merged.cold += stats.cold;
            merged.demoted += stats.demoted;
            merged.promoted += stats.promoted;
            per_shard.push(cost);
        }
        (merged, ShardedCost { per_shard })
    }

    /// Runs one sharded iteration at `now` under a streaming phase
    /// schedule: first applies every [`MemPhase`] due by `now` to the
    /// footprint ([`DbFootprint::apply_phase`] — the ground truth moves;
    /// nothing agent-side is touched, the shards must re-learn it from
    /// the page tables), then runs the ordinary
    /// [`ShardedSolRunner::run_iteration`]. A phase pulled early is
    /// buffered, so a sparse schedule costs one peek per call.
    pub fn run_phased_iteration(
        &mut self,
        phases: &mut PhaseSchedule,
        workload: &mut DbFootprint,
        now: SimTime,
    ) -> (SolStats, ShardedCost) {
        while let Some(ph) = self.pending_phase.take().or_else(|| phases.next_phase()) {
            if ph.at > now {
                self.pending_phase = Some(ph);
                break;
            }
            workload.apply_phase(&ph);
            self.phases_applied += 1;
        }
        self.run_iteration(workload, now)
    }

    /// Phases applied by [`ShardedSolRunner::run_phased_iteration`] so
    /// far.
    pub fn phases_applied(&self) -> u64 {
        self.phases_applied
    }

    /// Whether an epoch boundary has passed. The epoch clock is
    /// host-side state (one cadence for the whole deployment), so it is
    /// immune to individual shard kills and restarts.
    pub fn epoch_due(&self, now: SimTime) -> bool {
        now.saturating_sub(self.last_epoch) >= self.sol.epoch
    }

    /// Applies epoch migration on every live shard's slice and advances
    /// the host's epoch clock. With K≥2 a dead shard's batches are lent
    /// to its live siblings ([`ShardedSolRunner::kill_shard`]), so they
    /// migrate with whichever shard borrowed them; only a K=1 slice,
    /// with no sibling to lend to, skips the epoch. Returns the merged
    /// `(demoted, promoted)` counts.
    pub fn epoch_migrate(&mut self, now: SimTime, footprint: &mut DbFootprint) -> (u64, u64) {
        self.last_epoch = now;
        let mut demoted = 0;
        let mut promoted = 0;
        for sh in self.shards.iter_mut().filter(|sh| sh.rt.is_running()) {
            let (d, p) = sh.policy.epoch_migrate(now, footprint);
            demoted += d;
            promoted += p;
        }
        (demoted, promoted)
    }

    /// Runs one rebalance epoch if one is due: drains each shard's
    /// scan-rate counter, lets the [`ShedLoad`] planner decide, and
    /// applies the batch moves by host-replayed handoff —
    /// [`SolPolicy::release_batches`] on the donor,
    /// [`SolPolicy::adopt_batches`] (fresh prior, due immediately) on
    /// the recipient. Runtimes are untouched: every shard's outbox
    /// already accepts any batch id of the space. Returns the epoch's
    /// event, or `None` when rebalancing is off or the epoch has not
    /// elapsed. Dead shards do not pause the epoch clock: they are
    /// masked out of the skew gate and the plan (the `alive` mask of
    /// [`Rebalancer::run_epoch`]) — ownership never moves onto or off a
    /// corpse, but the live majority keeps rebalancing.
    pub fn maybe_rebalance(&mut self, now: SimTime) -> Option<RebalanceEvent> {
        let rb = self.rebalancer.as_mut()?;
        if !rb.epoch_due(now) {
            return None;
        }
        let alive: Vec<bool> = self.shards.iter().map(|sh| sh.rt.is_running()).collect();
        for (i, sh) in self.shards.iter_mut().enumerate() {
            rb.record(i as u32, sh.rt.take_load());
        }
        let event = rb.run_epoch(now, &mut self.map, &alive).clone();
        // Group the epoch's moves per shard so the policy-side Vec
        // surgery is one batched call per donor/recipient.
        let n = self.shards.len();
        let mut released: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut adopted: Vec<Vec<usize>> = vec![Vec::new(); n];
        for m in &event.moves {
            released[m.from as usize].push(m.resource);
            adopted[m.to as usize].push(m.resource);
        }
        for (i, r) in released.into_iter().enumerate() {
            if !r.is_empty() {
                self.shards[i].policy.release_batches(&r);
            }
        }
        for (i, a) in adopted.into_iter().enumerate() {
            if !a.is_empty() {
                self.shards[i].policy.adopt_batches(&a);
            }
        }
        Some(event)
    }

    /// Migration decisions shipped to the host so far, all shards.
    pub fn shipped_decisions(&self) -> u64 {
        self.shards.iter().map(|sh| sh.shipped).sum()
    }

    /// Decisions shipped per shard, in shard order (shows every shard
    /// pulls its weight).
    pub fn per_shard_shipped(&self) -> Vec<u64> {
        self.shards.iter().map(|sh| sh.shipped).collect()
    }

    /// Shard `i`'s most recent `dma_out` shipment, in slot order (the
    /// host's view).
    pub fn last_shipment(&self, i: u32) -> impl ExactSizeIterator<Item = MigrationDecision> + '_ {
        self.shards[i as usize]
            .last_shipment
            .iter()
            .map(|&(_, d)| d)
    }

    /// Shard `i`'s agent runtime (telemetry/tests).
    pub fn shard_runtime(&self, i: u32) -> &AgentRuntime<PteDelta, MigrationDecision> {
        &self.shards[i as usize].rt
    }

    /// Shard `i`'s classification accuracy against the workload oracle
    /// over its own batches (telemetry/tests).
    pub fn shard_accuracy(&self, i: u32, workload: &DbFootprint) -> f64 {
        self.shards[i as usize].policy.accuracy(workload)
    }

    /// Whether shard `i` is alive (not killed, or restarted since).
    pub fn is_shard_running(&self, i: u32) -> bool {
        self.shards[i as usize].rt.is_running()
    }

    /// Kills shard `i` — the watchdog path (§3.3): the agent stops
    /// polling. Its batch slice does not go unmanaged, though: the
    /// corpse's batches are **lent** to the live siblings (round-robin,
    /// committed through the [`ShardMap`] like any other ownership
    /// change), and each recipient adopts its share with a fresh prior
    /// exactly as a rebalance recipient would — due at its next scan.
    /// [`restart_shard`] reclaims the lent batches from whoever holds
    /// them then. With no live sibling (K=1) the slice stays with the
    /// corpse and is unmanaged until restart. Decisions the shard had
    /// already shipped remain with the host; the outbox was drained
    /// atomically by the last `dma_out`, so nothing is stranded in
    /// SmartNIC DRAM.
    ///
    /// [`restart_shard`]: ShardedSolRunner::restart_shard
    pub fn kill_shard(&mut self, i: u32) {
        self.shards[i as usize].rt.kill();
        let live: Vec<u32> = (0..self.shards.len() as u32)
            .filter(|&s| self.is_shard_running(s))
            .collect();
        let ids: Vec<usize> = self.map.resources_of(i).collect();
        if live.is_empty() || ids.is_empty() {
            return;
        }
        let moves: Vec<ResourceMove> = ids
            .iter()
            .enumerate()
            .map(|(k, &resource)| ResourceMove {
                resource,
                from: i,
                to: live[k % live.len()],
            })
            .collect();
        self.map.commit(&moves);
        // The corpse's policy is not asked to release anything — it is
        // frozen (run() short-circuits on a killed runtime) and rebuilt from
        // scratch at restart; the map commit is the ownership truth.
        let mut adopted: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for m in &moves {
            adopted[m.to as usize].push(m.resource);
        }
        for (s, a) in adopted.into_iter().enumerate() {
            if !a.is_empty() {
                self.shards[s].policy.adopt_batches(&a);
            }
        }
        self.lent[i as usize] = ids;
    }

    /// Restarts shard `i` at `now` following the paper's §6 "keep fault
    /// recovery simple" recipe: the agent's soft policy state
    /// (posteriors, scan ladder) is *not* checkpointed — the restarted
    /// shard re-pulls a fresh uninformative prior over its slice, which
    /// makes every batch due at the next iteration. The host therefore
    /// replays the slice: the first post-restart scan re-derives and
    /// re-ships the migration decisions a mid-epoch crash may have
    /// cost, from the page tables (the source of truth), not from any
    /// agent-side journal.
    ///
    /// Batches lent out by [`kill_shard`] come home first: each is
    /// reclaimed from whichever shard holds it *now* — an interim
    /// rebalance epoch may have moved a lent batch onward, so the
    /// reclaim asks the map for the current owner rather than trusting
    /// the kill-time plan.
    ///
    /// [`kill_shard`]: ShardedSolRunner::kill_shard
    pub fn restart_shard(&mut self, i: u32, now: SimTime) {
        let lent = std::mem::take(&mut self.lent[i as usize]);
        let mut moves = Vec::with_capacity(lent.len());
        let mut released: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for &b in &lent {
            let holder = self.map.owner(b);
            if holder == i {
                continue;
            }
            moves.push(ResourceMove {
                resource: b,
                from: holder,
                to: i,
            });
            released[holder as usize].push(b);
        }
        if !moves.is_empty() {
            self.map.commit(&moves);
        }
        for (s, r) in released.into_iter().enumerate() {
            if !r.is_empty() {
                self.shards[s].policy.release_batches(&r);
            }
        }
        let ids = self.map.resources_of(i).map(|g| g as u32).collect();
        let sh = &mut self.shards[i as usize];
        sh.rt.restart(now);
        sh.policy = SolPolicy::with_batches(self.sol, ids);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wave_kvstore::{AccessPattern, FootprintConfig};
    use wave_sim::cpu::CoreClass;

    fn world(scale: f64) -> DbFootprint {
        DbFootprint::new(FootprintConfig::paper(scale), AccessPattern::Scattered, 3)
    }

    fn sharded(fp: &DbFootprint, k: u32) -> ShardedSolRunner {
        ShardedSolRunner::new(
            RunnerConfig::paper(CoreClass::NicArm, 16),
            CpuModel::mount_evans(),
            k,
            SolConfig::paper(),
            fp.batches(),
            4,
        )
    }

    #[test]
    fn shards_cover_the_batch_space_and_ship_within_their_slice() {
        let fp = world(0.001);
        let mut k4 = sharded(&fp, 4);
        let (stats, _) = k4.run_iteration(&fp, SimTime::ZERO);
        // Every batch is due at t=0 and every batch belongs to exactly
        // one shard, so the merged scan covers the whole space.
        assert_eq!(stats.scanned as usize, fp.batches());
        assert_eq!((stats.hot + stats.cold) as usize, fp.batches());
        for i in 0..4u32 {
            let slice = k4.shard_batches(i);
            let mut shipped = k4.last_shipment(i);
            assert!(shipped.len() > 0, "shard {i} shipped nothing");
            assert!(
                shipped.all(|d| slice.contains(&(d.batch as usize))),
                "shard {i} shipped a decision outside its slice"
            );
        }
    }

    #[test]
    fn sharding_divides_both_phases_and_the_wall_clock() {
        let fp = world(0.001);
        let (_, one) = sharded(&fp, 1).run_iteration(&fp, SimTime::ZERO);
        let (_, four) = sharded(&fp, 4).run_iteration(&fp, SimTime::ZERO);
        // Across agents *both* phases divide — the serial scan too,
        // unlike adding threads within one agent.
        let ratio = |leg: fn(&IterationCost) -> SimTime| {
            let max = four.per_shard.iter().map(leg).max().unwrap();
            max.as_ns() as f64 / leg(&one.per_shard[0]).as_ns() as f64
        };
        let serial_ratio = ratio(|c| c.scan);
        assert!(
            (serial_ratio - 0.25).abs() < 0.01,
            "serial phase ratio {serial_ratio}"
        );
        let par_ratio = ratio(|c| c.classify);
        assert!(
            (par_ratio - 0.25).abs() < 0.01,
            "parallel ratio {par_ratio}"
        );
        assert!(four.wall() < one.wall().scale(0.3), "wall did not scale");
        // And the aggregate view upper-bounds the wall clock.
        assert!(four.aggregate().total() >= four.wall());
    }

    #[test]
    fn rebalance_off_keeps_the_static_partition() {
        let fp = world(0.001);
        let mut k4 = sharded(&fp, 4);
        for it in 0..3u64 {
            k4.run_iteration(&fp, SimTime::from_ms(600 * it));
            assert!(k4.maybe_rebalance(SimTime::from_ms(600 * it)).is_none());
        }
        assert!(k4.rebalance_history().is_empty());
        assert_eq!(k4.shard_map().generation(), 0);
        for i in 0..4u32 {
            assert_eq!(
                k4.shard_batches(i),
                shard_range(fp.batches(), 4, i as usize).collect::<Vec<_>>()
            );
        }
    }

    use wave_kvstore::FootprintConfig as FpConfig;

    /// Front half of the space ambivalent (rescans every period),
    /// back half strongly hot/cold (goes quiet): shard 0 of 2 does
    /// nearly all the scan work until batches move.
    fn skewed_world() -> DbFootprint {
        DbFootprint::new(FpConfig::skewed(0.001, 0.5), AccessPattern::Scattered, 3)
    }

    #[test]
    fn phased_iteration_applies_due_phases_and_buffers_the_rest() {
        let mut fp = skewed_world();
        let mut k2 = ShardedSolRunner::new(
            RunnerConfig::paper(CoreClass::NicArm, 16),
            CpuModel::mount_evans(),
            2,
            SolConfig::paper(),
            fp.batches(),
            4,
        );
        // Window rotates between the two halves every 1.2 s.
        let mut sched = PhaseSchedule::new(
            (0..4u32)
                .map(|k| MemPhase {
                    at: SimTime::from_ms(600 + 1_200 * k as u64),
                    hot_fraction: fp.config().hot_fraction,
                    flappy_fraction: 0.5,
                    flappy_offset: (k % 2) as f64 / 2.0,
                    reseed: k as u64 + 1,
                })
                .collect(),
        );
        assert!(fp.is_flappy(0), "starts at the front");

        // t=0: nothing due; the first phase is buffered, not dropped.
        k2.run_phased_iteration(&mut sched, &mut fp, SimTime::ZERO);
        assert_eq!(k2.phases_applied(), 0);
        assert!(fp.is_flappy(0));

        // t=600ms: phase 0 fires (offset 0 — window still at front).
        k2.run_phased_iteration(&mut sched, &mut fp, SimTime::from_ms(600));
        assert_eq!(k2.phases_applied(), 1);
        assert!(fp.is_flappy(0));

        // t=1.8s: phase 1 fires and drags the window to the back half.
        k2.run_phased_iteration(&mut sched, &mut fp, SimTime::from_ms(1_800));
        assert_eq!(k2.phases_applied(), 2);
        let n = fp.batches();
        assert!(!fp.is_flappy(n / 4) && fp.is_flappy(n * 3 / 4));

        // Jumping past the rest applies every remaining phase at once.
        k2.run_phased_iteration(&mut sched, &mut fp, SimTime::from_ms(10_000));
        assert_eq!(k2.phases_applied(), 4);
    }

    #[test]
    fn rebalance_epochs_keep_firing_while_a_shard_is_dead() {
        let fp = skewed_world();
        let mut k2 = ShardedSolRunner::new(
            RunnerConfig::paper(CoreClass::NicArm, 16),
            CpuModel::mount_evans(),
            2,
            SolConfig::paper(),
            fp.batches(),
            4,
        )
        .with_rebalance(wave_core::shard_map::RebalanceConfig::every(
            SimTime::from_ms(600),
        ));
        k2.run_iteration(&fp, SimTime::ZERO);
        k2.kill_shard(1);
        // The epoch fires with the corpse masked out. With a single
        // live shard there is nobody to trade with, so the event
        // records an empty plan — but the clock does not pause.
        let e = k2
            .maybe_rebalance(SimTime::from_ms(600))
            .expect("epoch fires while a shard is down");
        assert!(e.moves.is_empty(), "one live shard: nobody to trade with");
        k2.restart_shard(1, SimTime::from_ms(1_200));
        k2.run_iteration(&fp, SimTime::from_ms(1_200));
        assert!(k2.maybe_rebalance(SimTime::from_ms(1_200)).is_some());
    }

    #[test]
    fn dead_shard_lends_its_slice_and_reclaims_on_restart() {
        let fp = world(0.001);
        let mut k2 = sharded(&fp, 2);
        k2.run_iteration(&fp, SimTime::ZERO);
        let slice1 = k2.shard_batches(1);

        k2.kill_shard(1);
        // The corpse owns nothing; the live sibling adopted the slice...
        assert!(k2.shard_batches(1).is_empty());
        assert_eq!(k2.shard_batches(0).len(), fp.batches());
        // ...and scans it on the very next iteration (adopted batches
        // are due immediately), so no batch goes unmanaged.
        let (stats, _) = k2.run_iteration(&fp, SimTime::from_ms(600));
        assert!(
            stats.scanned as usize >= slice1.len(),
            "adopted batches rescanned: {} < {}",
            stats.scanned,
            slice1.len()
        );

        // Restart: the lent batches come home, and the fresh prior
        // covers exactly the original slice.
        k2.restart_shard(1, SimTime::from_ms(1_200));
        assert_eq!(k2.shard_batches(1), slice1);
        assert_eq!(
            k2.shard_batches(0).len() + slice1.len(),
            fp.batches(),
            "no batch lost or duplicated across the cycle"
        );
        let (stats, _) = k2.run_iteration(&fp, SimTime::from_ms(1_200));
        assert!(stats.scanned as usize >= slice1.len());
    }

    #[test]
    fn epoch_clock_survives_shard_kill_and_restart() {
        // The epoch cadence is host-side state: killing or restarting
        // shard 0 (whose policy once held the de-facto clock) must not
        // make the epoch fire every iteration, nor fire early.
        let fp = world(0.001);
        let mut k2 = sharded(&fp, 2);
        let mut fp_mut = world(0.001);
        let epoch = SolConfig::paper().epoch;
        assert!(!k2.epoch_due(SimTime::from_ms(100)));
        assert!(k2.epoch_due(epoch));
        k2.epoch_migrate(epoch, &mut fp_mut);
        assert!(!k2.epoch_due(epoch + SimTime::from_ms(600)));

        k2.kill_shard(0);
        // One scan period after the first epoch: still not due, even
        // though the dead shard's policy clock is frozen.
        assert!(!k2.epoch_due(epoch + SimTime::from_ms(1200)));
        k2.restart_shard(0, epoch + SimTime::from_ms(1800));
        // A restart (fresh policy, last_epoch ZERO inside it) must not
        // make the epoch fire prematurely either.
        assert!(!k2.epoch_due(epoch + SimTime::from_ms(2400)));
        assert!(k2.epoch_due(epoch + epoch));
    }

    #[test]
    fn dead_shard_is_contained_and_restart_replays_its_slice() {
        let fp = world(0.001);
        let mut k2 = sharded(&fp, 2);
        k2.run_iteration(&fp, SimTime::ZERO);
        let before = k2.per_shard_shipped();

        k2.kill_shard(1);
        assert!(!k2.is_shard_running(1));
        let rt = k2.shard_runtime(1);
        assert!(!rt.is_running());
        // Outbox drained atomically by the last dma_out: nothing stuck.
        assert_eq!(rt.staged_count(), 0);

        // Mid-epoch iteration with a dead shard: only shard 0 works.
        let (stats, cost) = k2.run_iteration(&fp, SimTime::from_ms(600));
        assert_eq!(cost.per_shard[1], IterationCost::idle());
        assert!(stats.scanned > 0, "live shard kept scanning");
        let after_kill = k2.per_shard_shipped();
        assert_eq!(after_kill[1], before[1], "dead shard shipped nothing");

        // Restart: fresh prior over the slice, every batch due again.
        k2.restart_shard(1, SimTime::from_ms(1200));
        assert!(k2.is_shard_running(1));
        let slice = k2.shard_batches(1);
        let (stats, _) = k2.run_iteration(&fp, SimTime::from_ms(1200));
        assert!(
            stats.scanned as usize >= slice.len(),
            "restarted shard must rescan its whole slice"
        );
        assert!(
            k2.per_shard_shipped()[1] > after_kill[1],
            "restarted shard ships replayed decisions"
        );
    }

    #[test]
    fn single_agent_kill_restart_replays_the_whole_space() {
        let fp = world(0.001);
        let mut fp_mut = world(0.001);
        let mut one = sharded(&fp, 1);
        one.run_iteration(&fp, SimTime::ZERO);
        let shipped = one.shipped_decisions();

        one.kill_shard(0);
        // No sibling to lend to: the corpse keeps its whole slice...
        assert_eq!(one.shard_batches(0).len(), fp.batches());
        // ...and while it is dead nothing is scanned, shipped or migrated.
        let (stats, cost) = one.run_iteration(&fp, SimTime::from_ms(600));
        assert_eq!(stats, SolStats::default());
        assert_eq!(cost.per_shard, vec![IterationCost::idle()]);
        assert_eq!(one.shipped_decisions(), shipped, "dead agent shipped");
        let epoch = SolConfig::paper().epoch;
        assert_eq!(one.epoch_migrate(epoch, &mut fp_mut), (0, 0));

        // Restart: a fresh prior over every batch, all due again.
        one.restart_shard(0, epoch + SimTime::from_ms(600));
        let (stats, _) = one.run_iteration(&fp, epoch + SimTime::from_ms(600));
        assert_eq!(
            stats.scanned as usize,
            fp.batches(),
            "whole space rescanned"
        );
        assert!(
            one.shipped_decisions() > shipped,
            "restart ships replayed decisions"
        );
    }
}
