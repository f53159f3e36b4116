//! Dynamic shard rebalancing under skewed load — both §4 agents.
//!
//! The paper partitions hosts across agents (§6) but never says what
//! happens when the load is skewed. The shared
//! [`wave_core::shard_map`] layer answers it; this sweep measures it,
//! once per agent, each cell run twice (static partition vs. dynamic
//! rebalancing) on identical seeds:
//!
//! * **Scheduler** — new-thread wakeups routed 4:1 across the agent
//!   shards ([`SchedConfig::wakeup_weights`]). The overloaded shard's
//!   slice saturates while its sibling's cores idle; with rebalancing
//!   the [`FeedDemand`] planner walks cores over to the loaded agent.
//!   Metrics: saturation throughput and the per-core decision-rate
//!   spread across epochs.
//! * **Memory manager** — the front half of the batch space is
//!   ambivalent ([`FootprintConfig::skewed`]): those batches never
//!   leave the fastest scan rung, so the shard owning them does almost
//!   all the scan work. With rebalancing the [`ShedLoad`] planner makes
//!   the busy shard give batches away, handed off by host replay.
//!   Metrics: scan throughput (batches per critical-path time) and the
//!   raw scan-rate spread across epochs.
//!
//! Both directions must show the acceptance property: spread shrinking
//! across epochs, end-to-end throughput at least the static baseline.
//!
//! [`FeedDemand`]: wave_core::shard_map::FeedDemand
//! [`ShedLoad`]: wave_core::shard_map::ShedLoad

use wave_core::shard_map::RebalanceConfig;
use wave_core::OptLevel;
use wave_ghost::policies::FifoPolicy;
use wave_ghost::sim::{Placement, SchedConfig, SchedSim};
use wave_kvstore::{AccessPattern, DbFootprint, FootprintConfig};
use wave_memmgr::{RunnerConfig, ShardedSolRunner, SolConfig};
use wave_sim::cpu::{CoreClass, CpuModel};
use wave_sim::par::par_map;
use wave_sim::SimTime;

use crate::report::{PaperRow, Report};

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct RebalanceSweepConfig {
    /// Scheduler worker cores.
    pub sched_workers: u32,
    /// Scheduler agent shards.
    pub sched_agents: u32,
    /// Wakeup-routing weights (the offered skew), one per shard.
    pub sched_weights: Vec<u32>,
    /// Offered load as a fraction of total worker capacity.
    pub sched_load: f64,
    /// Scheduler simulated duration / warmup.
    pub sched_duration: SimTime,
    /// Warmup excluded from scheduler stats.
    pub sched_warmup: SimTime,
    /// Scheduler rebalance epoch.
    pub sched_epoch: SimTime,
    /// Memory-agent address-space scale (1.0 = the paper's 102 GiB).
    pub mem_scale: f64,
    /// Memory-agent shards.
    pub mem_shards: u32,
    /// Fraction of the batch space that is ambivalent (always due).
    pub mem_flappy: f64,
    /// Scan iterations to run (600 ms apart).
    pub mem_iterations: u32,
    /// Memory-agent rebalance epoch.
    pub mem_epoch: SimTime,
    /// RNG seed.
    pub seed: u64,
}

impl RebalanceSweepConfig {
    /// Full-fidelity sweep.
    pub fn paper() -> Self {
        RebalanceSweepConfig {
            sched_workers: 16,
            sched_agents: 2,
            sched_weights: vec![4, 1],
            sched_load: 0.55,
            sched_duration: SimTime::from_ms(200),
            sched_warmup: SimTime::from_ms(30),
            sched_epoch: SimTime::from_ms(10),
            mem_scale: 0.02,
            mem_shards: 2,
            mem_flappy: 0.5,
            mem_iterations: 24,
            mem_epoch: SimTime::from_ms(1_800),
            seed: 42,
        }
    }

    /// CI-speed sweep.
    pub fn quick() -> Self {
        RebalanceSweepConfig {
            sched_workers: 8,
            sched_duration: SimTime::from_ms(150),
            sched_warmup: SimTime::from_ms(20),
            mem_scale: 0.005,
            mem_iterations: 20,
            ..Self::paper()
        }
    }
}

/// One scheduler cell (one run, static or dynamic).
#[derive(Debug, Clone)]
pub struct SchedRebalancePoint {
    /// Whether rebalancing was on.
    pub dynamic: bool,
    /// Completions in the measured window.
    pub completed: u64,
    /// Achieved throughput (req/s).
    pub achieved: f64,
    /// Peak per-core decision-rate spread across the epochs (dynamic
    /// only; 0.0 for static runs, which keep no history).
    pub peak_spread: f64,
    /// Per-core decision-rate spread at the last epoch (dynamic only).
    pub last_spread: f64,
    /// Cores moved between shards.
    pub moves: u64,
}

/// One memory-agent cell (one run, static or dynamic).
#[derive(Debug, Clone)]
pub struct MemRebalancePoint {
    /// Whether rebalancing was on.
    pub dynamic: bool,
    /// Batches scanned across all iterations.
    pub scanned: u64,
    /// Sum of per-iteration critical-path wall clocks (ms).
    pub wall_ms: f64,
    /// Scan throughput: batches per critical-path millisecond.
    pub scans_per_ms: f64,
    /// Peak raw scan-rate spread across the epochs (dynamic only).
    pub peak_spread: f64,
    /// Raw scan-rate spread at the last epoch (dynamic only).
    pub last_spread: f64,
    /// Batches moved between shards.
    pub moves: u64,
}

/// The sweep result: each agent measured statically and dynamically.
#[derive(Debug, Clone)]
pub struct RebalanceResult {
    /// Scheduler, static partition.
    pub sched_static: SchedRebalancePoint,
    /// Scheduler, dynamic rebalancing.
    pub sched_dynamic: SchedRebalancePoint,
    /// Memory agent, static partition.
    pub mem_static: MemRebalancePoint,
    /// Memory agent, dynamic rebalancing.
    pub mem_dynamic: MemRebalancePoint,
}

/// Runs the scheduler cell: 4:1-skewed wakeup routing, FIFO shards.
pub fn run_sched(cfg: &RebalanceSweepConfig, dynamic: bool) -> SchedRebalancePoint {
    let mut sc = SchedConfig::new(cfg.sched_workers, Placement::Offloaded, OptLevel::full());
    sc.agents = cfg.sched_agents;
    sc.duration = cfg.sched_duration;
    sc.warmup = cfg.sched_warmup;
    sc.seed = cfg.seed;
    sc.wakeup_weights = Some(cfg.sched_weights.clone());
    let mean = sc.workload.mean_service().as_secs_f64() + sc.cost.app_overhead_ns as f64 / 1e9;
    sc.workload
        .set_offered(cfg.sched_workers as f64 / mean * cfg.sched_load);
    if dynamic {
        sc.rebalance = Some(RebalanceConfig::every(cfg.sched_epoch));
    }
    let rep = SchedSim::with_policy_factory(sc, |_| Box::new(FifoPolicy::new())).run();
    let peak = rep
        .rebalance
        .iter()
        .map(|e| e.per_resource_spread())
        .fold(0.0f64, f64::max);
    let last = rep
        .rebalance
        .last()
        .map_or(0.0, |e| e.per_resource_spread());
    SchedRebalancePoint {
        dynamic,
        completed: rep.completed,
        achieved: rep.achieved,
        peak_spread: peak,
        last_spread: last,
        moves: rep.diag.rebalance_moves,
    }
}

/// Runs the memory-agent cell: half-ambivalent batch space, K shards.
pub fn run_mem(cfg: &RebalanceSweepConfig, dynamic: bool) -> MemRebalancePoint {
    let fp = DbFootprint::new(
        FootprintConfig::skewed(cfg.mem_scale, cfg.mem_flappy),
        AccessPattern::Scattered,
        cfg.seed,
    );
    let mut runner = ShardedSolRunner::new(
        RunnerConfig::paper(CoreClass::NicArm, 16),
        CpuModel::mount_evans(),
        cfg.mem_shards,
        SolConfig::paper(),
        fp.batches(),
        cfg.seed,
    );
    if dynamic {
        runner = runner.with_rebalance(RebalanceConfig::every(cfg.mem_epoch));
    }
    let mut scanned = 0u64;
    let mut wall = SimTime::ZERO;
    for it in 0..cfg.mem_iterations as u64 {
        let now = SimTime::from_ms(600 * it);
        let (s, c) = runner.run_iteration(&fp, now);
        scanned += s.scanned;
        wall += c.wall();
        runner.maybe_rebalance(now);
    }
    let history = runner.rebalance_history();
    let peak = history.iter().map(|e| e.spread()).fold(0.0f64, f64::max);
    let last = history.last().map_or(0.0, |e| e.spread());
    MemRebalancePoint {
        dynamic,
        scanned,
        wall_ms: wall.as_ms_f64(),
        scans_per_ms: scanned as f64 / wall.as_ms_f64(),
        peak_spread: peak,
        last_spread: last,
        moves: history.iter().map(|e| e.moves.len() as u64).sum(),
    }
}

/// Runs all four `(mem, dynamic)` cells in parallel across OS threads.
pub fn run(cfg: &RebalanceSweepConfig) -> RebalanceResult {
    let cells = [(false, false), (false, true), (true, false), (true, true)];
    let out = par_map(&cells, |&(mem, dynamic)| {
        if mem {
            (None, Some(run_mem(cfg, dynamic)))
        } else {
            (Some(run_sched(cfg, dynamic)), None)
        }
    });
    // Select by each point's own labels, not by cell order.
    let sched = |want: bool| {
        out.iter()
            .filter_map(|(s, _)| s.clone())
            .find(|p| p.dynamic == want)
            .expect("one sched cell per mode")
    };
    let mem = |want: bool| {
        out.iter()
            .filter_map(|(_, m)| m.clone())
            .find(|p| p.dynamic == want)
            .expect("one mem cell per mode")
    };
    RebalanceResult {
        sched_static: sched(false),
        sched_dynamic: sched(true),
        mem_static: mem(false),
        mem_dynamic: mem(true),
    }
}

/// Builds the skew-sweep report. No paper numbers exist for this
/// regime, so the "paper" column holds the static-partition baseline
/// and the ratio reads as the dynamic/static improvement.
pub fn report(cfg: &RebalanceSweepConfig) -> Report {
    let res = run(cfg);
    let mut r = Report::new("dynamic shard rebalancing under skewed load (both agents)");
    r.push(PaperRow::new(
        "sched throughput, 4:1 skew",
        res.sched_static.achieved,
        res.sched_dynamic.achieved,
        "req/s",
    ));
    r.push(PaperRow::new(
        "sched per-core rate spread, peak->last epoch",
        res.sched_dynamic.peak_spread,
        res.sched_dynamic.last_spread,
        "frac",
    ));
    r.push(PaperRow::new(
        "mem scan throughput, half-ambivalent space",
        res.mem_static.scans_per_ms,
        res.mem_dynamic.scans_per_ms,
        "batches/ms",
    ));
    r.push(PaperRow::new(
        "mem scan-rate spread, peak->last epoch",
        res.mem_dynamic.peak_spread,
        res.mem_dynamic.last_spread,
        "frac",
    ));
    r.note("no paper numbers exist for this regime; 'paper' = static partition (throughput rows) or peak epoch (spread rows)");
    r.note(format!(
        "sched: {} workers x {} agents, wakeup weights {:?}, {} cores moved; mem: {} batches x {} shards, {} batches moved",
        cfg.sched_workers,
        cfg.sched_agents,
        cfg.sched_weights,
        res.sched_dynamic.moves,
        FootprintConfig::skewed(cfg.mem_scale, cfg.mem_flappy).batches(),
        cfg.mem_shards,
        res.mem_dynamic.moves,
    ));
    r.note("handoff: sched re-enqueues a moved core's staged pick with the recipient; mem host-replays moved batches from page tables (fresh prior)");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug builds (tier-1 `cargo test -q`) run smaller cells; the
    /// release CI smoke and the bench use quick() as-is.
    fn test_cfg() -> RebalanceSweepConfig {
        let mut cfg = RebalanceSweepConfig::quick();
        if cfg!(debug_assertions) {
            cfg.sched_duration = SimTime::from_ms(60);
            cfg.sched_warmup = SimTime::from_ms(10);
            cfg.mem_scale = 0.002;
        }
        cfg
    }

    #[test]
    fn sched_dynamic_beats_static_and_spread_shrinks() {
        let cfg = test_cfg();
        let fixed = run_sched(&cfg, false);
        let dynamic = run_sched(&cfg, true);
        assert_eq!(fixed.moves, 0);
        assert!(dynamic.moves > 0, "4:1 skew must move cores");
        assert!(
            dynamic.achieved >= fixed.achieved,
            "dynamic {} vs static {} req/s",
            dynamic.achieved,
            fixed.achieved
        );
        assert!(
            dynamic.last_spread < dynamic.peak_spread,
            "per-core decision-rate spread must shrink: {:.3} -> {:.3}",
            dynamic.peak_spread,
            dynamic.last_spread
        );
    }

    #[test]
    fn mem_dynamic_beats_static_and_spread_shrinks() {
        let cfg = test_cfg();
        let fixed = run_mem(&cfg, false);
        let dynamic = run_mem(&cfg, true);
        assert_eq!(fixed.moves, 0);
        assert!(dynamic.moves > 0, "skewed scan load must move batches");
        assert!(
            dynamic.scans_per_ms > fixed.scans_per_ms,
            "dynamic {} vs static {} batches/ms",
            dynamic.scans_per_ms,
            fixed.scans_per_ms
        );
        assert!(
            dynamic.last_spread < dynamic.peak_spread,
            "scan-rate spread must shrink: {:.3} -> {:.3}",
            dynamic.peak_spread,
            dynamic.last_spread
        );
    }

    #[test]
    fn report_renders_with_all_sections() {
        let r = report(&test_cfg());
        assert_eq!(r.rows.len(), 4);
        let s = r.render();
        assert!(s.contains("sched throughput"));
        assert!(s.contains("mem scan throughput"));
        // Throughput rows: dynamic/static ratio at least 1.
        assert!(
            r.rows[0].ratio() >= 1.0,
            "sched ratio {}",
            r.rows[0].ratio()
        );
        assert!(r.rows[2].ratio() > 1.0, "mem ratio {}", r.rows[2].ratio());
        // Spread rows: last/first ratio below 1.
        assert!(
            r.rows[1].ratio() < 1.0,
            "sched spread {}",
            r.rows[1].ratio()
        );
        assert!(r.rows[3].ratio() < 1.0, "mem spread {}", r.rows[3].ratio());
    }
}
