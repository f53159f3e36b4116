//! Multi-tenant SmartNIC: agent bundles as a service.
//!
//! Wave (§8) treats the SmartNIC as one host's private accelerator;
//! Meili and OSMOSIS (PAPERS.md) argue the NIC is a shared, multi-tenant
//! resource whose key contention points are the **DMA engine** and the
//! **interrupt-vector space**. This module is the service layer that
//! view demands: a [`TenantRegistry`] instantiates T tenants' agent
//! bundles — each tenant brings its own shards, workload, weight, and
//! SLO class — on ONE physical NIC, and three shared-resource
//! mechanisms keep the neighbors honest:
//!
//! * **Pump-quantum arbitration** ([`NicScheduler`]): the NIC cores'
//!   duty-cycle time is granted tenant-by-tenant via deficit round-robin
//!   over per-tenant weights. A backlogged tenant's lag behind its
//!   weighted share is bounded by one quantum plus one job — the classic
//!   DRR guarantee, proptested in `tenant_fairness.rs`. The fluid limit
//!   of that mechanism is the [`weighted_fair_shares`] water-filling
//!   model, which the `wave-lab::tenancy` sweep uses to derate each
//!   tenant's agent; [`fifo_shares`] is the null model (no arbitration:
//!   everyone slows down by the *total* demand).
//! * **One shared DMA engine** (`wave_pcie::DmaEngine`): every tenant's
//!   `dma_ship_staged`/ingest transfers serialize through the same
//!   `busy_until` horizon, with per-tenant queueing-delay attribution
//!   and a weight-ordered issue arbiter (`wave_pcie::DmaArbiter`).
//! * **Bounded MSI-X vectors** (`wave_pcie::MsixVectorTable`): a bundle
//!   allocates one vector per worker, all-or-nothing. On exhaustion the
//!   tenant is admitted *degraded*: its hosts discover decisions on a
//!   poll grid ([`TenantRegistry::poll_pickup`]) instead of being
//!   kicked, and the would-be interrupts are counted as suppressed.
//!   Teardown returns the whole slice.
//!
//! The registry also gives the rebalancer its second axis: NIC **cores
//! between tenants**, not just shards within a tenant — a
//! [`FeedDemand`] planner over per-tenant load counters
//! ([`TenantRegistry::record_load`]), reusing the same generation-
//! stamped [`ShardMap`] machinery that moves worker cores between
//! scheduler shards.

use std::collections::VecDeque;

use wave_pcie::{MsixVector, MsixVectorTable};
use wave_sim::SimTime;

use crate::runtime::AgentRuntime;
use crate::shard_map::{FeedDemand, RebalanceConfig, RebalanceEvent, Rebalancer, ShardMap};
use crate::workload::SloClass;

/// A tenant handle. Tenant ids index the registry's slot table and tag
/// every shared-resource attribution (DMA books, MSI-X ownership, load
/// counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

/// How the NIC arbitrates shared-resource access across tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Arbitration {
    /// Deficit round-robin over per-tenant weights: a backlogged
    /// tenant's service share converges to `w_i / Σw` regardless of how
    /// hard the neighbors push.
    #[default]
    WeightedFair,
    /// No arbitration: first-come first-served. The null policy a
    /// flooding neighbor exploits.
    Fifo,
}

/// One granted pump quantum: `tenant` runs a duty-cycle job of `cost`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Who runs.
    pub tenant: TenantId,
    /// Job cost in arbitrary work units (the sweep uses ns of agent
    /// compute).
    pub cost: u64,
}

#[derive(Debug, Clone)]
struct DrrQueue {
    id: TenantId,
    weight: u64,
    deficit: u64,
    /// `(arrival_seq, cost)` — FIFO within the tenant.
    jobs: VecDeque<(u64, u64)>,
    served: u64,
}

/// Weighted-fair pump-loop arbitration: deficit round-robin (DRR) over
/// per-tenant weights, in the classic Shreedhar–Varghese shape.
///
/// Tenants enqueue duty-cycle jobs ([`NicScheduler::enqueue`]); the NIC
/// core asks who runs next ([`NicScheduler::grant`]). Under
/// [`Arbitration::WeightedFair`], each round-robin visit credits the
/// tenant `quantum × weight` deficit and serves queued jobs while the
/// deficit covers them; an emptied queue forfeits its remaining deficit
/// (no banking credit while idle). Under [`Arbitration::Fifo`] grants
/// follow global arrival order and weights are ignored.
#[derive(Debug, Clone)]
pub struct NicScheduler {
    arbitration: Arbitration,
    quantum: u64,
    queues: Vec<DrrQueue>,
    cursor: usize,
    /// Whether the cursor's tenant has been credited for the current
    /// visit (one credit per arrival, however many grants it yields).
    credited: bool,
    next_seq: u64,
}

impl NicScheduler {
    /// Creates an empty scheduler. `quantum` is the deficit credited
    /// per unit weight per round; it must be ≥ 1.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero (a zero quantum can never cover any
    /// job and the round-robin would spin forever).
    pub fn new(arbitration: Arbitration, quantum: u64) -> Self {
        assert!(quantum >= 1, "zero quantum starves everyone");
        NicScheduler {
            arbitration,
            quantum,
            queues: Vec::new(),
            cursor: 0,
            credited: false,
            next_seq: 0,
        }
    }

    /// The arbitration mode.
    pub fn arbitration(&self) -> Arbitration {
        self.arbitration
    }

    /// The per-unit-weight round quantum.
    pub fn quantum(&self) -> u64 {
        self.quantum
    }

    /// Adds a tenant with `weight ≥ 1` to the round-robin ring.
    ///
    /// # Panics
    ///
    /// Panics on a zero weight or a duplicate id.
    pub fn register(&mut self, id: TenantId, weight: u64) {
        assert!(weight >= 1, "zero weight starves tenant {id:?}");
        assert!(
            self.queues.iter().all(|q| q.id != id),
            "tenant {id:?} already registered"
        );
        self.queues.push(DrrQueue {
            id,
            weight,
            deficit: 0,
            jobs: VecDeque::new(),
            served: 0,
        });
    }

    /// Removes a tenant (teardown). Unserved jobs are dropped.
    pub fn deregister(&mut self, id: TenantId) {
        if let Some(i) = self.queues.iter().position(|q| q.id == id) {
            self.queues.remove(i);
            if self.cursor > i || self.cursor >= self.queues.len() {
                self.cursor = self
                    .cursor
                    .saturating_sub(1)
                    .min(self.queues.len().saturating_sub(1));
            }
            self.credited = false;
        }
    }

    /// Enqueues one duty-cycle job of `cost ≥ 1` work units for `id`.
    ///
    /// # Panics
    ///
    /// Panics if the tenant is not registered or `cost` is zero.
    pub fn enqueue(&mut self, id: TenantId, cost: u64) {
        assert!(cost >= 1, "zero-cost job");
        let seq = self.next_seq;
        self.next_seq += 1;
        let q = self
            .queues
            .iter_mut()
            .find(|q| q.id == id)
            .unwrap_or_else(|| panic!("tenant {id:?} not registered"));
        q.jobs.push_back((seq, cost));
    }

    /// Total queued (unserved) jobs across tenants.
    pub fn backlog(&self) -> usize {
        self.queues.iter().map(|q| q.jobs.len()).sum()
    }

    /// Queued jobs for one tenant.
    pub fn backlog_of(&self, id: TenantId) -> usize {
        self.queues
            .iter()
            .find(|q| q.id == id)
            .map_or(0, |q| q.jobs.len())
    }

    /// Total work units granted to `id` so far.
    pub fn served(&self, id: TenantId) -> u64 {
        self.queues
            .iter()
            .find(|q| q.id == id)
            .map_or(0, |q| q.served)
    }

    /// Current deficit of `id` (test/diagnostic visibility: the DRR
    /// bounded-lag invariant is `deficit < quantum × weight + max_job`).
    pub fn deficit_of(&self, id: TenantId) -> u64 {
        self.queues
            .iter()
            .find(|q| q.id == id)
            .map_or(0, |q| q.deficit)
    }

    /// Grants the next pump quantum, or `None` if nothing is queued.
    pub fn grant(&mut self) -> Option<Grant> {
        if self.backlog() == 0 {
            return None;
        }
        match self.arbitration {
            Arbitration::Fifo => self.grant_fifo(),
            Arbitration::WeightedFair => self.grant_drr(),
        }
    }

    fn grant_fifo(&mut self) -> Option<Grant> {
        // Global arrival order: the smallest sequence number across all
        // tenant queue heads is the oldest job in the system.
        let i = self
            .queues
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.jobs.is_empty())
            .min_by_key(|(_, q)| q.jobs[0].0)?
            .0;
        let q = &mut self.queues[i];
        let (_, cost) = q.jobs.pop_front().expect("non-empty by filter");
        q.served += cost;
        Some(Grant { tenant: q.id, cost })
    }

    fn grant_drr(&mut self) -> Option<Grant> {
        // Terminates because backlog > 0 and every full ring pass adds
        // quantum × weight ≥ quantum deficit to each backlogged tenant,
        // so some head job is eventually covered.
        loop {
            let n = self.queues.len();
            debug_assert!(n > 0, "backlog > 0 implies a queue exists");
            let q = &mut self.queues[self.cursor];
            if q.jobs.is_empty() {
                // Idle tenants forfeit unused credit: DRR's no-banking
                // rule, and the reason the lag bound is one round.
                q.deficit = 0;
                self.cursor = (self.cursor + 1) % n;
                self.credited = false;
                continue;
            }
            if !self.credited {
                q.deficit += self.quantum * q.weight;
                self.credited = true;
            }
            let head = q.jobs[0].1;
            if head <= q.deficit {
                q.jobs.pop_front();
                q.deficit -= head;
                q.served += head;
                let grant = Grant {
                    tenant: q.id,
                    cost: head,
                };
                if q.jobs.is_empty() {
                    q.deficit = 0;
                    self.cursor = (self.cursor + 1) % n;
                    self.credited = false;
                }
                return Some(grant);
            }
            // Head exceeds the deficit: carry the credit to the next
            // round and let the ring move on.
            self.cursor = (self.cursor + 1) % n;
            self.credited = false;
        }
    }
}

/// Weighted max-min ("water-filling") service shares — the fluid limit
/// of the DRR mechanism, and the model the tenancy sweep derates each
/// tenant's agent with.
///
/// `demands[i]` is tenant i's offered NIC-core utilization (1.0 = one
/// full NIC core's worth of duty-cycle work) and `weights[i]` its
/// arbitration weight. Capacity is 1.0. Tenants demanding less than
/// their weighted share keep their full demand; the surplus refills the
/// heavier askers, round by round, until the capacity is spent. A
/// backlogged tenant is therefore guaranteed at least
/// `w_i/Σw` of the NIC regardless of its neighbors — the isolation
/// property FIFO lacks.
pub fn weighted_fair_shares(demands: &[f64], weights: &[u64]) -> Vec<f64> {
    assert_eq!(demands.len(), weights.len());
    let n = demands.len();
    let mut share = vec![0.0f64; n];
    let mut satisfied = vec![false; n];
    let mut capacity = 1.0f64;
    // Each pass satisfies at least one tenant or exits, so ≤ n passes.
    for _ in 0..n {
        let w_total: f64 = (0..n)
            .filter(|&i| !satisfied[i])
            .map(|i| weights[i] as f64)
            .sum();
        if w_total == 0.0 || capacity <= 0.0 {
            break;
        }
        let fill = capacity / w_total;
        let mut newly = 0;
        for i in 0..n {
            if satisfied[i] {
                continue;
            }
            let offer = share[i] + fill * weights[i] as f64;
            if offer >= demands[i] {
                capacity -= demands[i] - share[i];
                share[i] = demands[i];
                satisfied[i] = true;
                newly += 1;
            }
        }
        if newly == 0 {
            // Nobody satisfied: split the remaining capacity by weight
            // and stop.
            for i in 0..n {
                if !satisfied[i] {
                    share[i] += fill * weights[i] as f64;
                }
            }
            break;
        }
    }
    share
}

/// Service shares under no arbitration: every tenant's work interleaves
/// FIFO on the shared cores, so each receives service proportional to
/// its demand — `share_i = d_i / Σd` once the NIC saturates. The
/// flooding tenant takes most of the NIC and *every* tenant's slowdown
/// becomes `Σd`, which is exactly the isolation failure the weighted-
/// fair model prevents.
pub fn fifo_shares(demands: &[f64]) -> Vec<f64> {
    let total: f64 = demands.iter().sum();
    if total <= 1.0 {
        return demands.to_vec();
    }
    demands.iter().map(|d| d / total).collect()
}

/// The DRR weight boost a tenant's SLO class earns. Class 0 is the
/// latency-critical tier (the paper's 10 µs GETs): its pump quanta are
/// credited 4× so a latency tenant's jobs clear the arbiter well ahead
/// of an equal-demand throughput-class neighbor, pulling its queueing
/// p99 down without starving anyone (DRR still bounds every backlogged
/// tenant's lag). All other classes run at face-value weight.
pub fn slo_weight_multiplier(slo: SloClass) -> u64 {
    if slo.0 == 0 {
        4
    } else {
        1
    }
}

/// What a tenant brings to the NIC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Display name (reports).
    pub name: String,
    /// Arbitration weight (≥ 1).
    pub weight: u64,
    /// Worker cores the bundle serves — and MSI-X vectors it wants (one
    /// kick target per worker).
    pub workers: u32,
    /// The tenant's SLO class, threaded into its workload.
    pub slo: SloClass,
}

impl TenantSpec {
    /// A spec with the default SLO class.
    pub fn new(name: impl Into<String>, weight: u64, workers: u32) -> Self {
        TenantSpec {
            name: name.into(),
            weight,
            workers,
            slo: SloClass::DEFAULT,
        }
    }

    /// Sets the SLO class.
    pub fn with_slo(mut self, slo: SloClass) -> Self {
        self.slo = slo;
        self
    }

    /// The weight the NIC arbiter actually uses: the configured weight
    /// scaled by [`slo_weight_multiplier`] for the tenant's class.
    pub fn effective_weight(&self) -> u64 {
        self.weight * slo_weight_multiplier(self.slo)
    }
}

/// A registered tenant: its spec plus the shared resources it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantBinding {
    /// The registry-assigned id.
    pub id: TenantId,
    /// What was registered.
    pub spec: TenantSpec,
    /// The MSI-X vectors the bundle owns — empty when admitted degraded.
    pub vectors: Vec<MsixVector>,
    /// Whether the tenant was admitted without vectors (exhaustion →
    /// degraded polling mode).
    pub degraded: bool,
}

/// T tenants' agent bundles as a service on one NIC.
///
/// The registry owns the NIC-wide shared state: the bounded MSI-X
/// vector table, the pump-quantum [`NicScheduler`], per-tenant load
/// counters, and (optionally) the NIC-core [`ShardMap`] the
/// [`FeedDemand`] rebalancer moves cores across tenants with. Tenant
/// `SchedSim`/`ShardedSolRunner` bundles are constructed by the caller
/// (they live in higher crates) and *bound* here: the registry stamps
/// their runtimes' tenant ids so the shared DMA engine attributes their
/// transfers, and tells them whether to kick (vectors held) or poll
/// (degraded).
#[derive(Debug)]
pub struct TenantRegistry {
    arbitration: Arbitration,
    vectors: MsixVectorTable,
    poll_grid: SimTime,
    sched: NicScheduler,
    tenants: Vec<Option<TenantBinding>>,
    cores: Option<(ShardMap, Rebalancer)>,
}

/// Default pump quantum: 1 µs of agent compute per unit weight per
/// round — a duty cycle's worth, so one round interleaves every
/// tenant's pump at µs granularity.
pub const DEFAULT_QUANTUM_NS: u64 = 1_000;

/// Default degraded-mode poll grid: hosts of a vectorless tenant
/// discover decisions every 5 µs (the paper's spin-loop pickup is
/// ~0.6 µs; the grid models a shared poller visiting T tenants).
pub const DEFAULT_POLL_GRID: SimTime = SimTime::from_us(5);

impl TenantRegistry {
    /// Creates a registry arbitrating with `arbitration` over a NIC
    /// exposing `msix_capacity` vectors.
    pub fn new(arbitration: Arbitration, msix_capacity: usize) -> Self {
        TenantRegistry {
            arbitration,
            vectors: MsixVectorTable::new(msix_capacity),
            poll_grid: DEFAULT_POLL_GRID,
            sched: NicScheduler::new(arbitration, DEFAULT_QUANTUM_NS),
            tenants: Vec::new(),
            cores: None,
        }
    }

    /// Overrides the degraded-mode poll grid.
    pub fn with_poll_grid(mut self, grid: SimTime) -> Self {
        self.poll_grid = grid;
        self
    }

    /// The arbitration mode.
    pub fn arbitration(&self) -> Arbitration {
        self.arbitration
    }

    /// Admits a tenant: assigns the lowest free id, allocates one MSI-X
    /// vector per worker (all-or-nothing), and joins it to the pump
    /// arbiter. On vector exhaustion the tenant is admitted *degraded*
    /// — no vectors, hosts poll on [`TenantRegistry::poll_pickup`]'s
    /// grid — rather than rejected: NIC cycles are still schedulable,
    /// only the kick path is gone.
    pub fn register(&mut self, spec: TenantSpec) -> TenantId {
        let slot = self
            .tenants
            .iter()
            .position(|t| t.is_none())
            .unwrap_or_else(|| {
                self.tenants.push(None);
                self.tenants.len() - 1
            });
        let id = TenantId(slot as u32);
        let vectors = self
            .vectors
            .alloc_block(id.0, spec.workers as usize)
            .unwrap_or_default();
        let degraded = vectors.is_empty() && spec.workers > 0;
        self.sched.register(id, spec.effective_weight());
        self.tenants[slot] = Some(TenantBinding {
            id,
            spec,
            vectors,
            degraded,
        });
        id
    }

    /// Tears a tenant down: releases its MSI-X slice (claimable by the
    /// next registrant) and removes it from the arbiter.
    pub fn deregister(&mut self, id: TenantId) {
        if let Some(slot) = self.tenants.get_mut(id.0 as usize) {
            if slot.is_some() {
                self.vectors.release_owner(id.0);
                self.sched.deregister(id);
                *slot = None;
            }
        }
    }

    /// The binding for `id`, if registered.
    pub fn binding(&self, id: TenantId) -> Option<&TenantBinding> {
        self.tenants.get(id.0 as usize).and_then(|t| t.as_ref())
    }

    /// Registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.iter().filter(|t| t.is_some()).count()
    }

    /// Whether no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `Some(grid)` when `id` runs degraded (no vectors): its hosts
    /// discover decisions at the next poll-grid boundary instead of at
    /// the MSI-X handler instant. `None` while the tenant holds
    /// vectors and kicks normally.
    pub fn poll_pickup(&self, id: TenantId) -> Option<SimTime> {
        self.binding(id)
            .filter(|b| b.degraded)
            .map(|_| self.poll_grid)
    }

    /// Free vectors remaining on the NIC.
    pub fn msix_available(&self) -> usize {
        self.vectors.available()
    }

    /// Vectors currently held by tenants.
    pub fn msix_in_use(&self) -> usize {
        self.vectors.in_use()
    }

    /// The pump-quantum arbiter.
    pub fn nic_scheduler(&mut self) -> &mut NicScheduler {
        &mut self.sched
    }

    /// Stamps a runtime as belonging to `id`, so its DMA shipments are
    /// attributed on the shared engine's per-tenant books.
    pub fn bind_runtime<M, D: Copy>(&self, id: TenantId, rt: &mut AgentRuntime<M, D>) {
        rt.set_tenant(id.0);
    }

    /// Service shares for the registered tenants under the registry's
    /// arbitration mode. `demands[i]` is tenant i's offered NIC-core
    /// utilization; unregistered slots must demand 0.
    pub fn shares(&self, demands: &[f64]) -> Vec<f64> {
        match self.arbitration {
            Arbitration::WeightedFair => {
                let weights: Vec<u64> = demands
                    .iter()
                    .enumerate()
                    .map(|(i, _)| {
                        self.binding(TenantId(i as u32))
                            .map_or(1, |b| b.spec.effective_weight())
                    })
                    .collect();
                weighted_fair_shares(demands, &weights)
            }
            Arbitration::Fifo => fifo_shares(demands),
        }
    }

    // --- The second rebalance axis: NIC cores between tenants ----------

    /// Enables core rebalancing: `nic_cores` agent cores are divided
    /// contiguously across the *currently registered* tenants, and a
    /// [`FeedDemand`] planner (demand is served *by* the cores, so the
    /// busiest tenant should own more of them) re-divides them on
    /// `cfg`'s epoch whenever the per-tenant load counters stay skewed.
    ///
    /// # Panics
    ///
    /// Panics if no tenant is registered or `nic_cores` is smaller than
    /// the tenant count.
    pub fn enable_core_rebalance(&mut self, nic_cores: usize, cfg: RebalanceConfig) {
        let shards = self.tenants.len() as u32;
        assert!(shards > 0, "register tenants before enabling core moves");
        let map = ShardMap::contiguous(nic_cores, shards);
        let rb = Rebalancer::new(
            cfg,
            Box::new(FeedDemand {
                max_moves: (nic_cores / 4).max(1),
                min_resources: 1,
            }),
            shards,
        );
        self.cores = Some((map, rb));
    }

    /// Accumulates `n` load events (agent decisions) against `id` for
    /// the core-rebalance epoch.
    pub fn record_load(&mut self, id: TenantId, n: u64) {
        if let Some((_, rb)) = &mut self.cores {
            rb.record(id.0, n);
        }
    }

    /// Whether a core-rebalance epoch is due.
    pub fn core_epoch_due(&self, now: SimTime) -> bool {
        self.cores.as_ref().is_some_and(|(_, rb)| rb.epoch_due(now))
    }

    /// Runs one core-rebalance epoch; returns the event (empty moves
    /// while the skew gate holds) or `None` if core rebalancing is off.
    pub fn rebalance_cores(&mut self, now: SimTime) -> Option<RebalanceEvent> {
        let (map, rb) = self.cores.as_mut()?;
        let alive: Vec<bool> = (0..map.shards())
            .map(|s| self.tenants.get(s as usize).is_some_and(|t| t.is_some()))
            .collect();
        Some(rb.run_epoch(now, map, &alive).clone())
    }

    /// NIC cores currently owned by `id` (0 when core rebalancing is
    /// off).
    pub fn cores_of(&self, id: TenantId) -> usize {
        self.cores.as_ref().map_or(0, |(map, _)| map.count_of(id.0))
    }

    /// The core map, when core rebalancing is enabled.
    pub fn core_map(&self) -> Option<&ShardMap> {
        self.cores.as_ref().map(|(map, _)| map)
    }

    /// The core-rebalance epoch history.
    pub fn core_history(&self) -> &[RebalanceEvent] {
        self.cores.as_ref().map_or(&[], |(_, rb)| rb.history())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_admits_binds_and_tears_down() {
        let mut reg = TenantRegistry::new(Arbitration::WeightedFair, 16);
        let a = reg.register(TenantSpec::new("a", 4, 8));
        let b = reg.register(TenantSpec::new("b", 1, 8));
        assert_eq!((a, b), (TenantId(0), TenantId(1)));
        assert_eq!(reg.msix_in_use(), 16);
        assert!(reg.binding(a).is_some_and(|x| !x.degraded));
        assert_eq!(reg.poll_pickup(a), None);

        // Third tenant finds the table exhausted: admitted degraded.
        let c = reg.register(TenantSpec::new("c", 1, 4));
        let bc = reg.binding(c).unwrap();
        assert!(bc.degraded && bc.vectors.is_empty());
        assert_eq!(reg.poll_pickup(c), Some(DEFAULT_POLL_GRID));

        // Teardown of `a` frees its slice; the next registrant gets
        // vectors (and `a`'s slot id).
        reg.deregister(a);
        assert_eq!(reg.msix_available(), 8);
        let d = reg.register(TenantSpec::new("d", 2, 8));
        assert_eq!(d, TenantId(0), "slot reuse");
        assert!(!reg.binding(d).unwrap().degraded);
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn drr_converges_to_weighted_shares_under_backlog() {
        let mut s = NicScheduler::new(Arbitration::WeightedFair, 100);
        s.register(TenantId(0), 3);
        s.register(TenantId(1), 1);
        for _ in 0..1_000 {
            s.enqueue(TenantId(0), 100);
            s.enqueue(TenantId(1), 100);
        }
        // Serve 400 quanta: both stay backlogged throughout.
        let mut served = [0u64; 2];
        for _ in 0..400 {
            let g = s.grant().expect("backlogged");
            served[g.tenant.0 as usize] += g.cost;
        }
        let ratio = served[0] as f64 / served[1] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio} (want ~3)");
    }

    #[test]
    fn latency_class_beats_equal_demand_throughput_neighbor_at_p99() {
        // Two tenants, identical configured weight, identical demand: a
        // saturated NIC with both fully backlogged from t = 0. The only
        // difference is the SLO class, so any p99 gap is purely the
        // class multiplier at work in the DRR ring.
        let mut reg = TenantRegistry::new(Arbitration::WeightedFair, 16);
        let lat = reg.register(TenantSpec::new("latency", 1, 1).with_slo(SloClass(0)));
        let thr = reg.register(TenantSpec::new("throughput", 1, 1).with_slo(SloClass(1)));
        assert_eq!(reg.binding(lat).unwrap().spec.effective_weight(), 4);
        assert_eq!(reg.binding(thr).unwrap().spec.effective_weight(), 1);

        const JOBS: usize = 500;
        const COST: u64 = 1_000;
        let sched = reg.nic_scheduler();
        for _ in 0..JOBS {
            sched.enqueue(lat, COST);
            sched.enqueue(thr, COST);
        }
        // Drain on a virtual clock: each grant occupies the NIC core for
        // its cost, and the job's sojourn time is its completion instant
        // (every arrival is at t = 0).
        let mut clock = 0u64;
        let mut sojourn: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
        while let Some(g) = sched.grant() {
            clock += g.cost;
            sojourn[g.tenant.0 as usize].push(clock);
        }
        let p99 = |s: &[u64]| s[(s.len() * 99) / 100 - 1];
        let (lat_p99, thr_p99) = (p99(&sojourn[0]), p99(&sojourn[1]));
        assert!(
            (lat_p99 as f64) < 0.8 * thr_p99 as f64,
            "latency-class p99 {lat_p99} should clear well under the \
             throughput neighbor's {thr_p99}"
        );
        // Isolation is a boost, not starvation: the throughput tenant
        // still finishes everything it queued.
        assert_eq!(sojourn[1].len(), JOBS);
    }

    #[test]
    fn fifo_grants_follow_global_arrival_order() {
        let mut s = NicScheduler::new(Arbitration::Fifo, 100);
        s.register(TenantId(0), 1);
        s.register(TenantId(1), 100);
        s.enqueue(TenantId(0), 10);
        s.enqueue(TenantId(1), 10);
        s.enqueue(TenantId(0), 10);
        let order: Vec<u32> = std::iter::from_fn(|| s.grant())
            .map(|g| g.tenant.0)
            .collect();
        assert_eq!(order, vec![0, 1, 0], "weights are ignored");
    }

    #[test]
    fn weighted_fair_shares_waterfill() {
        // One flooder (demand 3.6) vs three modest tenants (0.2 each),
        // equal weights: the modest tenants keep their full demand, the
        // flooder gets the rest.
        let shares = weighted_fair_shares(&[3.6, 0.2, 0.2, 0.2], &[1, 1, 1, 1]);
        assert!((shares[1] - 0.2).abs() < 1e-12);
        assert!((shares[0] - 0.4).abs() < 1e-12);
        // FIFO: everyone is cut proportionally — the victims lose most
        // of their service.
        let fifo = fifo_shares(&[3.6, 0.2, 0.2, 0.2]);
        assert!(fifo[1] < 0.05);
        // Undersubscribed NIC: both models give everyone their demand.
        assert_eq!(fifo_shares(&[0.3, 0.2]), vec![0.3, 0.2]);
        assert_eq!(weighted_fair_shares(&[0.3, 0.2], &[1, 5]), vec![0.3, 0.2]);
    }

    #[test]
    fn core_rebalance_feeds_the_loaded_tenant() {
        let mut reg = TenantRegistry::new(Arbitration::WeightedFair, 64);
        let a = reg.register(TenantSpec::new("victim", 1, 2));
        let b = reg.register(TenantSpec::new("flooder", 1, 2));
        reg.enable_core_rebalance(8, RebalanceConfig::every(SimTime::from_ms(10)));
        assert_eq!(reg.cores_of(a), 4);
        for epoch in 1..=3u64 {
            reg.record_load(a, 100);
            reg.record_load(b, 400);
            reg.rebalance_cores(SimTime::from_ms(10 * epoch));
        }
        assert!(
            reg.cores_of(b) > reg.cores_of(a),
            "sustained 4x load pulls cores: {} vs {}",
            reg.cores_of(b),
            reg.cores_of(a)
        );
        assert!(reg.cores_of(a) >= 1, "floor holds");
        assert!(reg.core_history().iter().any(|e| !e.moves.is_empty()));
    }

    #[test]
    fn deregistered_tenant_is_masked_out_of_core_moves() {
        let mut reg = TenantRegistry::new(Arbitration::WeightedFair, 64);
        let a = reg.register(TenantSpec::new("a", 1, 1));
        let b = reg.register(TenantSpec::new("b", 1, 1));
        let c = reg.register(TenantSpec::new("c", 1, 1));
        reg.enable_core_rebalance(9, RebalanceConfig::every(SimTime::from_ms(10)));
        reg.deregister(c);
        for epoch in 1..=3u64 {
            reg.record_load(a, 400);
            reg.record_load(b, 100);
            if let Some(e) = reg.rebalance_cores(SimTime::from_ms(10 * epoch)) {
                assert!(
                    e.moves.iter().all(|m| m.from != c.0 && m.to != c.0),
                    "gone tenant neither donates nor receives"
                );
            }
        }
        assert!(reg.cores_of(a) > reg.cores_of(b));
    }
}
