//! Dynamic, load-aware shard ownership (§6 "partition hosts across
//! agents" under non-uniform load).
//!
//! The static [`shard_range`] partition hands every shard a fixed
//! contiguous resource slice, which is exactly right until the load is
//! skewed: a scheduler shard whose cores receive 4× the wakeups
//! saturates while its siblings idle, and a memory shard whose batches
//! stay uncertain rescans every period while confident slices sleep.
//! This module is the knob both §4 agents turn to fix that, built once:
//!
//! * [`ShardMap`] — a **generation-stamped** map from resource index
//!   (a worker `CpuId`, a page-batch id) to owning shard. Ownership
//!   changes are committed in batches ([`ShardMap::commit`]); every
//!   commit bumps the generation, so consumers (and determinism tests)
//!   can pin the exact reassignment history.
//! * [`RebalancePolicy`] — the pluggable planner: given the map and
//!   per-shard load counters, produce the [`ResourceMove`]s for this
//!   epoch. Two directions ship, because the two agents' load flows
//!   point opposite ways:
//!   * [`FeedDemand`] — load is *external demand served by* the
//!     resources (scheduler decision rates): give the busiest shard
//!     more cores, taken from the idlest.
//!   * [`ShedLoad`] — load is *generated by* the resources (memory
//!     agent due-batch scan rates): the busiest shard gives batches
//!     away to the idlest.
//! * [`Rebalancer`] — the epoch driver: accumulates per-shard load
//!   counters ([`Rebalancer::record`], fed from
//!   [`AgentRuntime::take_load`]), samples them on a configurable
//!   epoch, and only invokes the policy when the skew exceeds a
//!   threshold for `patience` consecutive epochs (so transient bursts
//!   do not thrash ownership). Every epoch appends a
//!   [`RebalanceEvent`] to an inspectable history — same seed + same
//!   skew ⇒ identical history, generation by generation.
//!
//! What moves is *ownership only*. The state handoff is the consumer's
//! business, and the two agents do it differently (see
//! `docs/ARCHITECTURE.md`): the scheduler re-enqueues a moved core's
//! staged pick with the recipient (cheap, the run queues are soft
//! state), while the memory manager *replays* moved batches from host
//! truth — the recipient adopts them with a fresh prior, reusing the
//! fault-recovery replay path, because Beta posteriors are
//! deliberately not checkpointed (§6 "keep fault recovery simple").
//!
//! [`shard_range`]: crate::runtime::shard_range
//! [`AgentRuntime::take_load`]: crate::runtime::AgentRuntime::take_load

use wave_sim::SimTime;

use crate::runtime::shard_range;

/// One ownership change: move `resource` from shard `from` to `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceMove {
    /// Global resource index (core id, batch id).
    pub resource: usize,
    /// The shard that owned the resource when the move was planned.
    pub from: u32,
    /// The new owner.
    pub to: u32,
}

/// A generation-stamped map from resource index to owning shard.
///
/// ```
/// use wave_core::shard_map::{ResourceMove, ShardMap};
///
/// let mut map = ShardMap::contiguous(10, 2);
/// assert_eq!(map.owner(4), 0);
/// assert_eq!(map.owner(5), 1);
/// assert_eq!(map.generation(), 0);
///
/// // Shard 1 takes over core 4.
/// map.commit(&[ResourceMove { resource: 4, from: 0, to: 1 }]);
/// assert_eq!(map.owner(4), 1);
/// assert_eq!(map.generation(), 1);
/// assert_eq!(map.count_of(1), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// Resource index → owning shard.
    owner: Vec<u32>,
    shards: u32,
    /// Bumped once per committed reassignment batch.
    generation: u64,
}

impl ShardMap {
    /// The static contiguous partition ([`shard_range`]) as a map —
    /// what every deployment starts from, and what it stays at forever
    /// when rebalancing is off (bit-identical to the pre-map slices).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds `total`.
    pub fn contiguous(total: usize, shards: u32) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(
            total >= shards as usize,
            "need at least one resource per shard"
        );
        let mut owner = vec![0u32; total];
        for i in 0..shards as usize {
            for r in shard_range(total, shards as usize, i) {
                owner[r] = i as u32;
            }
        }
        ShardMap {
            owner,
            shards,
            generation: 0,
        }
    }

    /// The shard owning `resource`.
    pub fn owner(&self, resource: usize) -> u32 {
        self.owner[resource]
    }

    /// Total resources under management.
    pub fn len(&self) -> usize {
        self.owner.len()
    }

    /// Whether the map is empty (never true — construction requires a
    /// resource per shard).
    pub fn is_empty(&self) -> bool {
        self.owner.is_empty()
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Current generation (bumped once per [`ShardMap::commit`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The resources shard `shard` owns, in ascending index order.
    pub fn resources_of(&self, shard: u32) -> impl Iterator<Item = usize> + '_ {
        self.owner
            .iter()
            .enumerate()
            .filter(move |&(_, &o)| o == shard)
            .map(|(r, _)| r)
    }

    /// How many resources shard `shard` owns.
    pub fn count_of(&self, shard: u32) -> usize {
        self.owner.iter().filter(|&&o| o == shard).count()
    }

    /// Applies a batch of ownership changes atomically and bumps the
    /// generation (once for the whole batch — the map's analogue of the
    /// transaction seal). Returns the new generation.
    ///
    /// # Panics
    ///
    /// Panics if a move's `from` does not match the current owner (a
    /// stale plan must never be applied — replan instead) or names an
    /// out-of-range shard.
    pub fn commit(&mut self, moves: &[ResourceMove]) -> u64 {
        for m in moves {
            assert!(m.to < self.shards, "move to out-of-range shard {}", m.to);
            assert_eq!(
                self.owner[m.resource], m.from,
                "stale move: resource {} is owned by {}, not {}",
                m.resource, self.owner[m.resource], m.from
            );
        }
        for m in moves {
            self.owner[m.resource] = m.to;
        }
        self.generation += 1;
        self.generation
    }
}

/// A rebalance planner: turns the current map plus per-shard load
/// counters into this epoch's ownership moves.
///
/// Implementations must be deterministic — the experiment harness pins
/// generation histories across runs.
pub trait RebalancePolicy: std::fmt::Debug + Send {
    /// Plans the moves for one epoch. `loads[s]` is the load counter
    /// shard `s` accumulated since the last epoch. Only the shards with
    /// `alive[s] == true` take part (an entry past the end of `alive`
    /// counts as live, so `&[]` means every shard is): a dead shard
    /// neither donates nor receives — its load counter reads zero
    /// precisely *because* it is dead, and planning around that lie
    /// would pile resources onto (or strip them from) a corpse.
    /// Returning an empty plan leaves the map (and its generation)
    /// untouched.
    fn plan(&self, map: &ShardMap, loads: &[u64], alive: &[bool]) -> Vec<ResourceMove>;
}

/// Picks the donor's moved resources: its highest-index resources, in
/// descending order — deterministic, and keeps low indices stable. The
/// walk starts at the top of the map and stops after `k` moves.
fn take_from(map: &ShardMap, donor: u32, to: u32, k: usize) -> Vec<ResourceMove> {
    map.owner
        .iter()
        .enumerate()
        .rev()
        .filter(|&(_, &o)| o == donor)
        .take(k)
        .map(|(resource, _)| ResourceMove {
            resource,
            from: donor,
            to,
        })
        .collect()
}

/// `(argmax, argmin)` over the live shards' loads, lowest shard index
/// winning ties — the deterministic pair every built-in planner works
/// on. `None` when every shard is dead.
fn extremes(loads: &[u64], alive: &[bool]) -> Option<(u32, u32)> {
    let mut max: Option<usize> = None;
    let mut min: Option<usize> = None;
    for (i, &l) in loads.iter().enumerate() {
        if !alive.get(i).copied().unwrap_or(true) {
            continue;
        }
        if max.is_none_or(|m| l > loads[m]) {
            max = Some(i);
        }
        if min.is_none_or(|m| l < loads[m]) {
            min = Some(i);
        }
    }
    Some((max? as u32, min? as u32))
}

/// Feed the demand: resources *serve* externally-routed load (scheduler
/// cores serving wakeup streams), so the busiest shard should own more
/// of them. Moves resources **from the least- to the most-loaded**
/// shard, sized to equalize the load-per-resource ratio in one step:
/// `k` solves `(count_d − k)/L_d = (count_r + k)/L_r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedDemand {
    /// Hard cap on moves per epoch (ownership-churn bound).
    pub max_moves: usize,
    /// No shard is drained below this many resources.
    pub min_resources: usize,
}

impl RebalancePolicy for FeedDemand {
    fn plan(&self, map: &ShardMap, loads: &[u64], alive: &[bool]) -> Vec<ResourceMove> {
        let Some((busy, idle)) = extremes(loads, alive) else {
            return Vec::new();
        };
        if busy == idle {
            return Vec::new();
        }
        let (l_busy, l_idle) = (loads[busy as usize] as f64, loads[idle as usize] as f64);
        let (c_busy, c_idle) = (map.count_of(busy) as f64, map.count_of(idle) as f64);
        // Ideal shift equalizing resources-per-load; an idle donor
        // (zero load) gives everything the floor allows.
        let ideal = if l_idle == 0.0 {
            c_idle
        } else {
            (c_idle * l_busy - c_busy * l_idle) / (l_busy + l_idle)
        };
        let headroom = map.count_of(idle).saturating_sub(self.min_resources);
        let k = (ideal.floor().max(0.0) as usize)
            .min(self.max_moves)
            .min(headroom);
        take_from(map, idle, busy, k)
    }
}

/// Shed the load: resources *generate* their shard's load (memory-agent
/// batches generating due-batch scans), so the busiest shard should own
/// fewer of them. Moves resources **from the most- to the least-loaded**
/// shard, sized to close half the load gap assuming uniform
/// per-resource load within the donor: `k = count_d·(L_d − L_r)/(2·L_d)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedLoad {
    /// Hard cap on moves per epoch (bounds the replay the recipient
    /// must absorb).
    pub max_moves: usize,
    /// No shard is drained below this many resources.
    pub min_resources: usize,
}

impl RebalancePolicy for ShedLoad {
    fn plan(&self, map: &ShardMap, loads: &[u64], alive: &[bool]) -> Vec<ResourceMove> {
        let Some((busy, idle)) = extremes(loads, alive) else {
            return Vec::new();
        };
        if busy == idle || loads[busy as usize] == 0 {
            return Vec::new();
        }
        let (l_busy, l_idle) = (loads[busy as usize] as f64, loads[idle as usize] as f64);
        let c_busy = map.count_of(busy) as f64;
        let ideal = c_busy * (l_busy - l_idle) / (2.0 * l_busy);
        let headroom = map.count_of(busy).saturating_sub(self.min_resources);
        let k = (ideal.floor().max(0.0) as usize)
            .min(self.max_moves)
            .min(headroom);
        take_from(map, busy, idle, k)
    }
}

/// Rebalancer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// Load-sampling epoch: how often counters are drained and a plan
    /// is considered.
    pub epoch: SimTime,
    /// Skew trigger: rebalance only while `max_load ≥ threshold ·
    /// min_load` (a zero min with any max counts as skewed).
    pub skew_threshold: f64,
    /// Consecutive skewed epochs required before the first move — the
    /// "decision rates *stay* skewed" guard against transient bursts.
    pub patience: u32,
}

impl RebalanceConfig {
    /// A reasonable default cadence: sample every `epoch`, act on a
    /// sustained ≥1.5× skew after two sightings.
    pub fn every(epoch: SimTime) -> Self {
        RebalanceConfig {
            epoch,
            skew_threshold: 1.5,
            patience: 2,
        }
    }
}

/// One epoch's record: the sampled loads and whatever moves were
/// committed, stamped with the map generation after the commit.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceEvent {
    /// When the epoch fired.
    pub at: SimTime,
    /// Map generation after this epoch (unchanged if no moves).
    pub generation: u64,
    /// The per-shard load counters sampled this epoch.
    pub loads: Vec<u64>,
    /// Resources each shard owned when the sample was taken (before
    /// this epoch's moves).
    pub counts: Vec<usize>,
    /// The committed moves (empty while the skew gate holds).
    pub moves: Vec<ResourceMove>,
}

impl RebalanceEvent {
    /// Relative load spread of this epoch's sample:
    /// `(max − min) / max`, 0.0 when balanced or idle. This is the
    /// convergence metric for [`ShedLoad`] deployments, where moving
    /// resources moves their load and equal raw loads is the target.
    pub fn spread(&self) -> f64 {
        let max = self.loads.iter().copied().max().unwrap_or(0);
        let min = self.loads.iter().copied().min().unwrap_or(0);
        if max == 0 {
            0.0
        } else {
            (max - min) as f64 / max as f64
        }
    }

    /// Relative spread of load *per owned resource*. This is the
    /// convergence metric for [`FeedDemand`] deployments: external
    /// demand keeps the raw rates skewed by construction, and fairness
    /// means every owned resource carries the same load.
    pub fn per_resource_spread(&self) -> f64 {
        let per: Vec<f64> = self
            .loads
            .iter()
            .zip(&self.counts)
            .map(|(&l, &c)| l as f64 / (c.max(1)) as f64)
            .collect();
        let max = per.iter().copied().fold(0.0f64, f64::max);
        if max == 0.0 {
            0.0
        } else {
            let min = per.iter().copied().fold(f64::INFINITY, f64::min);
            (max - min) / max
        }
    }
}

/// The epoch driver: per-shard load accumulation, skew gating, and the
/// generation-stamped event history.
#[derive(Debug)]
pub struct Rebalancer {
    cfg: RebalanceConfig,
    policy: Box<dyn RebalancePolicy>,
    loads: Vec<u64>,
    skewed_epochs: u32,
    last_epoch: SimTime,
    history: Vec<RebalanceEvent>,
}

impl Rebalancer {
    /// Builds the driver for `shards` shards around a planner.
    pub fn new(cfg: RebalanceConfig, policy: Box<dyn RebalancePolicy>, shards: u32) -> Self {
        Rebalancer {
            cfg,
            policy,
            loads: vec![0; shards as usize],
            skewed_epochs: 0,
            last_epoch: SimTime::ZERO,
            history: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> RebalanceConfig {
        self.cfg
    }

    /// Accumulates `n` load events against shard `shard` (decision
    /// count, due-batch scans) since the last epoch.
    pub fn record(&mut self, shard: u32, n: u64) {
        self.loads[shard as usize] += n;
    }

    /// Whether a sampling epoch has elapsed.
    pub fn epoch_due(&self, now: SimTime) -> bool {
        now.saturating_sub(self.last_epoch) >= self.cfg.epoch
    }

    /// Runs one sampling epoch at `now`: drains the counters, applies
    /// the skew/patience gate, lets the policy plan, commits the moves
    /// into `map`, and appends the [`RebalanceEvent`]. Returns the
    /// event (empty `moves` when the gate held or the plan was empty).
    ///
    /// `alive` is the liveness mask ([`RebalancePolicy::plan`]; `&[]`
    /// means every shard is live): dead shards are invisible to the
    /// skew gate (their zero counters would otherwise read as permanent
    /// maximal skew) and to the planner (they neither donate nor
    /// receive). Lets rebalancing keep running while a shard is down
    /// instead of pausing fleet-wide.
    pub fn run_epoch(
        &mut self,
        now: SimTime,
        map: &mut ShardMap,
        alive: &[bool],
    ) -> &RebalanceEvent {
        self.last_epoch = now;
        let loads = std::mem::replace(&mut self.loads, vec![0; map.shards() as usize]);
        let counts = (0..map.shards()).map(|s| map.count_of(s)).collect();
        let live = |i: usize| alive.get(i).copied().unwrap_or(true);
        let visible = loads
            .iter()
            .enumerate()
            .filter(|&(i, _)| live(i))
            .map(|(_, &l)| l);
        let max = visible.clone().max().unwrap_or(0);
        let min = visible.min().unwrap_or(0);
        let skewed = max > 0 && (min == 0 || max as f64 >= self.cfg.skew_threshold * min as f64);
        self.skewed_epochs = if skewed { self.skewed_epochs + 1 } else { 0 };
        let moves = if self.skewed_epochs >= self.cfg.patience {
            let moves = self.policy.plan(map, &loads, alive);
            if !moves.is_empty() {
                map.commit(&moves);
            }
            moves
        } else {
            Vec::new()
        };
        self.history.push(RebalanceEvent {
            at: now,
            generation: map.generation(),
            loads,
            counts,
            moves,
        });
        self.history.last().expect("just pushed")
    }

    /// Every epoch's record, in order — the generation history pinned
    /// by the determinism tests.
    pub fn history(&self) -> &[RebalanceEvent] {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_map_matches_shard_range() {
        let map = ShardMap::contiguous(10, 4);
        for i in 0..4u32 {
            let slice = shard_range(10, 4, i as usize);
            let owned: Vec<usize> = map.resources_of(i).collect();
            assert_eq!(owned, slice.collect::<Vec<_>>(), "shard {i}");
        }
        assert_eq!(map.generation(), 0);
        assert_eq!(map.len(), 10);
    }

    #[test]
    fn commit_moves_ownership_and_bumps_generation_once() {
        let mut map = ShardMap::contiguous(8, 2);
        let moves = [
            ResourceMove {
                resource: 0,
                from: 0,
                to: 1,
            },
            ResourceMove {
                resource: 1,
                from: 0,
                to: 1,
            },
        ];
        assert_eq!(map.commit(&moves), 1);
        assert_eq!(map.owner(0), 1);
        assert_eq!(map.owner(1), 1);
        assert_eq!(map.count_of(0), 2);
        assert_eq!(map.count_of(1), 6);
        assert_eq!(map.generation(), 1, "one bump per batch");
    }

    #[test]
    #[should_panic(expected = "stale move")]
    fn stale_move_is_rejected() {
        let mut map = ShardMap::contiguous(4, 2);
        map.commit(&[ResourceMove {
            resource: 3,
            from: 0, // actually owned by shard 1
            to: 0,
        }]);
    }

    #[test]
    fn feed_demand_gives_cores_to_the_busy_shard() {
        let map = ShardMap::contiguous(8, 2);
        let policy = FeedDemand {
            max_moves: 8,
            min_resources: 1,
        };
        // Shard 0 serves 4x the demand of shard 1.
        let moves = policy.plan(&map, &[400, 100], &[]);
        assert!(!moves.is_empty());
        assert!(moves.iter().all(|m| m.from == 1 && m.to == 0));
        // Ideal k = (4*400 - 4*100)/500 = 2.4 → 2 moves.
        assert_eq!(moves.len(), 2);
        // Highest-index resources of the donor move first.
        assert_eq!(moves[0].resource, 7);
        assert_eq!(moves[1].resource, 6);
    }

    #[test]
    fn feed_demand_respects_floor_and_cap() {
        let map = ShardMap::contiguous(8, 2);
        let floor = FeedDemand {
            max_moves: 8,
            min_resources: 3,
        };
        assert_eq!(floor.plan(&map, &[1_000, 0], &[]).len(), 1, "floor holds");
        let cap = FeedDemand {
            max_moves: 1,
            min_resources: 1,
        };
        assert_eq!(cap.plan(&map, &[1_000, 0], &[]).len(), 1, "cap holds");
        assert!(
            cap.plan(&map, &[5, 5], &[]).is_empty(),
            "balanced: no moves"
        );
    }

    #[test]
    fn shed_load_drains_the_busy_shard() {
        let map = ShardMap::contiguous(100, 2);
        let policy = ShedLoad {
            max_moves: 50,
            min_resources: 1,
        };
        // Shard 0's batches rescan 4x as often as shard 1's.
        let moves = policy.plan(&map, &[400, 100], &[]);
        // k = 50 * 300 / 800 = 18.75 → 18, from busy (0) to idle (1).
        assert_eq!(moves.len(), 18);
        assert!(moves.iter().all(|m| m.from == 0 && m.to == 1));
        assert_eq!(moves[0].resource, 49, "donor's tail moves first");
        assert!(policy.plan(&map, &[0, 0], &[]).is_empty(), "idle: no moves");
    }

    #[test]
    fn rebalancer_patience_gates_transient_skew() {
        let mut map = ShardMap::contiguous(8, 2);
        let mut rb = Rebalancer::new(
            RebalanceConfig {
                epoch: SimTime::from_ms(10),
                skew_threshold: 1.5,
                patience: 2,
            },
            Box::new(FeedDemand {
                max_moves: 8,
                min_resources: 1,
            }),
            2,
        );
        assert!(!rb.epoch_due(SimTime::from_ms(5)));
        assert!(rb.epoch_due(SimTime::from_ms(10)));

        // Epoch 1: skewed, but patience says wait.
        rb.record(0, 400);
        rb.record(1, 100);
        let e1 = rb.run_epoch(SimTime::from_ms(10), &mut map, &[]).clone();
        assert!(e1.moves.is_empty());
        assert_eq!(e1.generation, 0);
        assert!((e1.spread() - 0.75).abs() < 1e-12);

        // Epoch 2: still skewed — now it acts.
        rb.record(0, 400);
        rb.record(1, 100);
        let e2 = rb.run_epoch(SimTime::from_ms(20), &mut map, &[]).clone();
        assert!(!e2.moves.is_empty());
        assert_eq!(e2.generation, 1);
        assert_eq!(map.count_of(0), 6);

        // Epoch 3: balanced sample resets the patience counter.
        rb.record(0, 100);
        rb.record(1, 100);
        let e3 = rb.run_epoch(SimTime::from_ms(30), &mut map, &[]).clone();
        assert!(e3.moves.is_empty());
        assert_eq!(rb.history().len(), 3);
    }

    #[test]
    fn masked_epoch_never_trades_with_a_dead_shard() {
        // Shard 1 is dead: its counter reads 0, which an unmasked
        // planner would read as "idlest — take its cores" (FeedDemand)
        // or "idlest — give it batches" (ShedLoad). The mask removes it
        // from both roles and from the skew gate.
        let mut map = ShardMap::contiguous(12, 3);
        let mut rb = Rebalancer::new(
            RebalanceConfig {
                epoch: SimTime::from_ms(10),
                skew_threshold: 1.5,
                patience: 1,
            },
            Box::new(ShedLoad {
                max_moves: 4,
                min_resources: 1,
            }),
            3,
        );
        let alive = [true, false, true];
        rb.record(0, 800);
        rb.record(2, 100);
        let e = rb.run_epoch(SimTime::from_ms(10), &mut map, &alive).clone();
        assert!(!e.moves.is_empty(), "live pair still rebalances");
        assert!(
            e.moves.iter().all(|m| m.from == 0 && m.to == 2),
            "dead shard 1 neither donates nor receives: {:?}",
            e.moves
        );

        // All-dead-but-one: nobody to trade with, plan is empty, and the
        // lone live counter does not read as skew against the corpses.
        let mut rb1 = Rebalancer::new(
            RebalanceConfig {
                epoch: SimTime::from_ms(10),
                skew_threshold: 1.5,
                patience: 1,
            },
            Box::new(ShedLoad {
                max_moves: 4,
                min_resources: 1,
            }),
            3,
        );
        rb1.record(0, 800);
        let e = rb1
            .run_epoch(SimTime::from_ms(10), &mut map, &[true, false, false])
            .clone();
        assert!(e.moves.is_empty());
    }

    #[test]
    fn identical_inputs_yield_identical_histories() {
        let run = || {
            let mut map = ShardMap::contiguous(12, 3);
            let mut rb = Rebalancer::new(
                RebalanceConfig::every(SimTime::from_ms(10)),
                Box::new(FeedDemand {
                    max_moves: 4,
                    min_resources: 1,
                }),
                3,
            );
            for e in 1..=5u64 {
                rb.record(0, 800);
                rb.record(1, 150 + e);
                rb.record(2, 200);
                rb.run_epoch(SimTime::from_ms(10 * e), &mut map, &[]);
            }
            (rb.history().to_vec(), map)
        };
        let (h1, m1) = run();
        let (h2, m2) = run();
        assert_eq!(h1, h2);
        assert_eq!(m1, m2);
        assert!(h1.iter().any(|e| !e.moves.is_empty()));
    }
}
