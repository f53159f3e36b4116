//! Trace-driven production workloads through both agents.
//!
//! The paper evaluates Wave under steady open-loop Poisson load; real
//! clusters are diurnal, bursty, and heavy-tailed. This sweep drives
//! both agents with the streaming [`WorkloadSource`] layer's synthetic
//! production trace ([`SyntheticTraceGenerator`]) — millions of events,
//! bit-for-bit reproducible from one seed:
//!
//! * **Scheduler** — [`SchedSim`] pulls a diurnal + MMPP-bursty +
//!   Pareto-service trace ([`WorkloadSpec::synthetic`]). A roaming
//!   hotspot pins a fraction of tasks to one agent shard at a time
//!   (task affinity → wakeup routing), visiting every shard once per
//!   diurnal period, so the dynamic rebalancer has real phase-shifting
//!   load to chase. Latency is bucketed per diurnal quarter
//!   ([`SchedConfig::phases`]) and the rebalancer's epoch history is
//!   bucketed the same way — the acceptance check is that core moves
//!   *track* the load phases rather than firing once and going quiet.
//! * **Memory manager** — [`ShardedSolRunner::run_phased_iteration`]
//!   pulls a roaming-window [`PhaseSchedule`]: each phase drags the
//!   ambivalent (always-rescanned) window to the next shard's slice
//!   while the hot set stays put, so scan *work* migrates and the
//!   [`ShedLoad`] rebalancer must follow it with batch moves. The
//!   phase period is several SOL relaxation times long — the Beta
//!   posteriors need a few scans to notice a region went quiet — so
//!   each move of the window produces a *persistent* load skew rather
//!   than transient churn.
//!
//! Everything is deterministic: the release smoke pins the ≥1M-event
//! scheduler cell golden, and the quick cells are pinned in the module
//! tests at both optimization levels (the simulation is pure integer /
//! IEEE arithmetic, so debug and release agree bit for bit).
//!
//! [`WorkloadSource`]: wave_core::workload::WorkloadSource
//! [`SyntheticTraceGenerator`]: wave_core::workload::SyntheticTraceGenerator
//! [`ShedLoad`]: wave_core::shard_map::ShedLoad

use wave_core::shard_map::RebalanceConfig;
use wave_core::workload::{MemPhase, PhaseSchedule, SyntheticConfig, WorkloadSpec};
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
pub struct TracesConfig {
    /// Scheduler worker cores (sized to absorb the burst peak).
    pub sched_workers: u32,
    /// Scheduler agent shards (also the hotspot rotation length).
    pub sched_agents: u32,
    /// The synthetic production trace the scheduler replays.
    pub synthetic: SyntheticConfig,
    /// Scheduler simulated duration.
    pub duration: SimTime,
    /// Warmup excluded from scheduler stats.
    pub warmup: SimTime,
    /// Scheduler rebalance epoch.
    pub sched_epoch: SimTime,
    /// Memory-agent address-space scale (1.0 = the paper's 102 GiB).
    pub mem_scale: f64,
    /// Memory-agent shards (also the phase-window rotation length).
    pub mem_shards: u32,
    /// Fraction of the batch space the roaming phase window covers.
    pub mem_flappy: f64,
    /// Memory-phase period (the ambivalent window advances one slot).
    pub mem_phase_period: SimTime,
    /// Memory phases to schedule.
    pub mem_phases: usize,
    /// Scan iterations to run (600 ms apart).
    pub mem_iterations: u32,
    /// Memory-agent rebalance epoch.
    pub mem_epoch: SimTime,
    /// RNG seed.
    pub seed: u64,
}

impl TracesConfig {
    /// Full-fidelity sweep: one 4-second diurnal "day" at 250k req/s
    /// base rate — ≥1M completions through the scheduler in the
    /// measured window (the release smoke pins the exact count).
    pub fn paper() -> Self {
        let mut synthetic = SyntheticConfig::diurnal_bursty();
        synthetic.base_rate = 250_000.0;
        synthetic.diurnal_period = SimTime::from_secs(4);
        synthetic.mean_burst = SimTime::from_ms(40);
        synthetic.mean_calm = SimTime::from_ms(200);
        synthetic.hotspot_shards = 4;
        synthetic.hotspot_weight = 0.25;
        TracesConfig {
            sched_workers: 24,
            sched_agents: 4,
            synthetic,
            duration: SimTime::from_ms(4_500),
            warmup: SimTime::from_ms(500),
            sched_epoch: SimTime::from_ms(50),
            mem_scale: 0.02,
            mem_shards: 2,
            mem_flappy: 0.5,
            mem_phase_period: SimTime::from_secs(6),
            mem_phases: 4,
            mem_iterations: 50,
            mem_epoch: SimTime::from_ms(1_200),
            seed: 42,
        }
    }

    /// CI-speed sweep: a 400 ms "day" at 100k req/s base rate.
    pub fn quick() -> Self {
        let mut synthetic = SyntheticConfig::diurnal_bursty();
        synthetic.base_rate = 100_000.0;
        synthetic.diurnal_period = SimTime::from_ms(400);
        synthetic.hotspot_shards = 2;
        synthetic.hotspot_weight = 0.25;
        TracesConfig {
            sched_workers: 8,
            sched_agents: 2,
            synthetic,
            duration: SimTime::from_ms(450),
            warmup: SimTime::from_ms(50),
            sched_epoch: SimTime::from_ms(10),
            mem_scale: 0.005,
            mem_shards: 2,
            mem_flappy: 0.5,
            mem_phase_period: SimTime::from_secs(6),
            mem_phases: 4,
            mem_iterations: 50,
            mem_epoch: SimTime::from_ms(1_200),
            seed: 42,
        }
    }

    /// Phase boundaries: the measured window split into the diurnal
    /// wave's four quarters.
    pub fn phase_bounds(&self) -> Vec<SimTime> {
        let quarter = self.synthetic.diurnal_period.scale(0.25);
        (1..4)
            .map(|k| self.warmup + quarter.scale(k as f64))
            .collect()
    }
}

/// Latency of one diurnal quarter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseLatency {
    /// Completions whose arrival fell in this quarter.
    pub count: u64,
    /// Median latency (µs).
    pub p50_us: f64,
    /// Tail latency (µs).
    pub p99_us: f64,
}

/// The scheduler cell's result.
#[derive(Debug, Clone)]
pub struct SchedTracesPoint {
    /// Completions in the measured window.
    pub completed: u64,
    /// Arrivals shed by the overload guard.
    pub dropped: u64,
    /// Achieved throughput (req/s).
    pub achieved: f64,
    /// Simulation events the engine executed.
    pub events: u64,
    /// Latency per diurnal quarter (4 entries).
    pub per_phase: Vec<PhaseLatency>,
    /// Rebalancer core moves per diurnal quarter (4 entries).
    pub moves_by_phase: Vec<u64>,
    /// Total core moves.
    pub moves: u64,
}

impl SchedTracesPoint {
    /// Diurnal quarters in which the rebalancer committed moves — the
    /// "activity tracks the load phases" metric.
    pub fn active_phases(&self) -> usize {
        self.moves_by_phase.iter().filter(|&&m| m > 0).count()
    }
}

/// The memory-manager cell's result.
#[derive(Debug, Clone)]
pub struct MemTracesPoint {
    /// Workload phases applied by the phased driver.
    pub phases_applied: u64,
    /// Batches scanned across all iterations.
    pub scanned: u64,
    /// Batch moves committed by the rebalancer.
    pub moves: u64,
    /// Rebalance epochs that committed at least one move.
    pub active_epochs: usize,
    /// Batch moves bucketed by workload phase (`mem_phases + 1`
    /// entries; bucket 0 is the pre-phase window).
    pub moves_by_phase: Vec<u64>,
    /// Scan-rate spread at the final epoch.
    pub last_spread: f64,
}

impl MemTracesPoint {
    /// Phase intervals in which the rebalancer committed batch moves —
    /// the memory-side "activity tracks the load phases" metric.
    pub fn active_phases(&self) -> usize {
        self.moves_by_phase.iter().filter(|&&m| m > 0).count()
    }
}

/// The sweep result.
#[derive(Debug, Clone)]
pub struct TracesResult {
    /// Scheduler under the synthetic production trace.
    pub sched: SchedTracesPoint,
    /// Memory manager under the rotating phase schedule.
    pub mem: MemTracesPoint,
}

/// Runs the scheduler cell: the synthetic trace with a roaming hotspot,
/// per-quarter latency buckets, dynamic rebalancing on.
pub fn run_sched(cfg: &TracesConfig) -> SchedTracesPoint {
    let mut sc = SchedConfig::new(cfg.sched_workers, Placement::Offloaded, OptLevel::full());
    sc.agents = cfg.sched_agents;
    sc.duration = cfg.duration;
    sc.warmup = cfg.warmup;
    sc.seed = cfg.seed;
    sc.workload = WorkloadSpec::synthetic(cfg.synthetic);
    sc.phases = cfg.phase_bounds();
    sc.rebalance = Some(RebalanceConfig::every(cfg.sched_epoch));
    let rep = SchedSim::with_policy_factory(sc, |_| Box::new(FifoPolicy::new())).run();

    let bounds = cfg.phase_bounds();
    let mut moves_by_phase = vec![0u64; bounds.len() + 1];
    for e in &rep.rebalance {
        let bucket = bounds.partition_point(|&b| b <= e.at);
        moves_by_phase[bucket] += e.moves.len() as u64;
    }
    let per_phase = rep
        .latency_by_phase
        .iter()
        .map(|s| PhaseLatency {
            count: s.count,
            p50_us: s.p50.as_us_f64(),
            p99_us: s.p99.as_us_f64(),
        })
        .collect();
    SchedTracesPoint {
        completed: rep.completed,
        dropped: rep.dropped,
        achieved: rep.achieved,
        events: rep.events_executed,
        per_phase,
        moves_by_phase,
        moves: rep.diag.rebalance_moves,
    }
}

/// Runs the memory cell: the rotating phase schedule through
/// [`ShardedSolRunner::run_phased_iteration`], rebalancing on.
pub fn run_mem(cfg: &TracesConfig) -> MemTracesPoint {
    let fp_cfg = FootprintConfig::skewed(cfg.mem_scale, cfg.mem_flappy);
    let mut fp = DbFootprint::new(fp_cfg, AccessPattern::Scattered, cfg.seed);
    // A short scan ladder (600 ms / 1.2 s) keeps SOL responsive at the
    // trace's phase cadence: a batch the roaming window swallows is
    // re-probed within one rebalance epoch, so scan *load* follows the
    // window instead of lagging a full 9.6 s paper-ladder period.
    let mut sol = SolConfig::paper();
    sol.period_rungs = 2;
    let mut runner = ShardedSolRunner::new(
        RunnerConfig::paper(CoreClass::NicArm, 16),
        CpuModel::mount_evans(),
        cfg.mem_shards,
        sol,
        fp.batches(),
        cfg.seed,
    )
    .with_rebalance(RebalanceConfig::every(cfg.mem_epoch));
    // A roaming-window schedule with a *stable* hot set (reseed 0):
    // each phase drags the ambivalent window one shard-slice onward
    // without re-drawing hot/cold identities, so the only thing that
    // changes is *where* the every-window rescan work lives — the
    // cleanest possible signal for the load rebalancer to chase.
    let mut schedule = PhaseSchedule::new(
        (0..cfg.mem_phases)
            .map(|k| MemPhase {
                at: cfg.mem_phase_period.scale(k as f64 + 1.0),
                hot_fraction: fp_cfg.hot_fraction,
                flappy_fraction: cfg.mem_flappy,
                flappy_offset: ((k as u32 + 1) % cfg.mem_shards) as f64 / cfg.mem_shards as f64,
                reseed: 0,
            })
            .collect(),
    );
    let mut scanned = 0u64;
    for it in 0..cfg.mem_iterations as u64 {
        let now = SimTime::from_ms(600 * it);
        let (s, _) = runner.run_phased_iteration(&mut schedule, &mut fp, now);
        scanned += s.scanned;
        runner.maybe_rebalance(now);
    }
    let history = runner.rebalance_history();
    let bounds: Vec<SimTime> = (1..=cfg.mem_phases)
        .map(|k| cfg.mem_phase_period.scale(k as f64))
        .collect();
    let mut moves_by_phase = vec![0u64; bounds.len() + 1];
    for e in history {
        let bucket = bounds.partition_point(|&b| b <= e.at);
        moves_by_phase[bucket] += e.moves.len() as u64;
    }
    MemTracesPoint {
        phases_applied: runner.phases_applied(),
        scanned,
        moves: history.iter().map(|e| e.moves.len() as u64).sum(),
        active_epochs: history.iter().filter(|e| !e.moves.is_empty()).count(),
        moves_by_phase,
        last_spread: history.last().map_or(0.0, |e| e.spread()),
    }
}

/// Runs both cells (sched trace, mem phases) in parallel.
pub fn run(cfg: &TracesConfig) -> TracesResult {
    let out = par_map(&[false, true], |&mem| {
        if mem {
            (None, Some(run_mem(cfg)))
        } else {
            (Some(run_sched(cfg)), None)
        }
    });
    TracesResult {
        sched: out
            .iter()
            .find_map(|(s, _)| s.clone())
            .expect("one sched cell"),
        mem: out
            .iter()
            .find_map(|(_, m)| m.clone())
            .expect("one mem cell"),
    }
}

/// Builds the trace-replay report. No paper numbers exist for this
/// regime: latency rows pair each diurnal quarter's p50 ("paper"
/// column) with its p99, and the agent rows pair phase activity with
/// the rebalancer's response.
pub fn report(cfg: &TracesConfig) -> Report {
    let res = run(cfg);
    let mut r = Report::new("trace-driven production workloads (both agents)");
    for (k, p) in res.sched.per_phase.iter().enumerate() {
        r.push(PaperRow::new(
            match k {
                0 => "sched q1 (rising) p50 -> p99",
                1 => "sched q2 (peak) p50 -> p99",
                2 => "sched q3 (falling) p50 -> p99",
                _ => "sched q4 (trough) p50 -> p99",
            },
            p.p50_us,
            p.p99_us,
            "us",
        ));
    }
    r.push(PaperRow::new(
        "sched active quarters -> core moves",
        res.sched.active_phases() as f64,
        res.sched.moves as f64,
        "",
    ));
    r.push(PaperRow::new(
        "mem phases applied -> batch moves",
        res.mem.phases_applied as f64,
        res.mem.moves as f64,
        "",
    ));
    r.note("no paper numbers exist for this regime; 'paper' = p50 (latency rows) or phase activity (agent rows)");
    r.note(format!(
        "sched: {} completions + {} drops over a {} diurnal day ({} workers x {} agents, hotspot weight {}); mem: {} batches scanned, spread {:.3} at the last epoch",
        res.sched.completed,
        res.sched.dropped,
        cfg.synthetic.diurnal_period,
        cfg.sched_workers,
        cfg.sched_agents,
        cfg.synthetic.hotspot_weight,
        res.mem.scanned,
        res.mem.last_spread,
    ));
    r.note("same seed => same trace, bit for bit: both cells are golden-pinned (quick in tier-1, >=1M events in the release smoke)");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug builds (tier-1 `cargo test -q`) shrink the scheduler cell;
    /// the release smoke and the bench use quick() / paper() as-is.
    fn test_cfg() -> TracesConfig {
        let mut cfg = TracesConfig::quick();
        if cfg!(debug_assertions) {
            cfg.synthetic.base_rate = 60_000.0;
            cfg.synthetic.diurnal_period = SimTime::from_ms(200);
            cfg.duration = SimTime::from_ms(250);
            cfg.mem_scale = 0.002;
        }
        cfg
    }

    #[test]
    fn sched_cell_is_deterministic_and_rebalancer_tracks_phases() {
        let cfg = test_cfg();
        let a = run_sched(&cfg);
        let b = run_sched(&cfg);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.per_phase, b.per_phase);
        assert_eq!(a.moves_by_phase, b.moves_by_phase);

        // Every diurnal quarter completed work...
        assert_eq!(a.per_phase.len(), 4);
        for (k, p) in a.per_phase.iter().enumerate() {
            assert!(p.count > 0, "quarter {k} measured nothing");
        }
        // ...and the roaming hotspot kept the rebalancer moving: cores
        // moved in at least two different quarters, not one burst.
        assert!(a.moves > 0, "hotspot skew moved no cores");
        assert!(
            a.active_phases() >= 2,
            "moves must track the phases: {:?}",
            a.moves_by_phase
        );
    }

    #[test]
    fn mem_cell_applies_phases_and_moves_batches() {
        let cfg = test_cfg();
        let a = run_mem(&cfg);
        let b = run_mem(&cfg);
        assert_eq!(a.scanned, b.scanned);
        assert_eq!(a.moves, b.moves);
        assert_eq!(a.phases_applied, cfg.mem_phases as u64);
        assert!(a.moves > 0, "rotating window moved no batches");
        assert!(
            a.active_epochs >= 2,
            "batch moves must track the phases: {} active epochs",
            a.active_epochs
        );
        // Moves land in at least two distinct phase intervals: the
        // rebalancer chased the window after it moved, not just once
        // at startup.
        assert!(
            a.active_phases() >= 2,
            "moves must track the phases: {:?}",
            a.moves_by_phase
        );
    }

    #[test]
    fn report_renders_with_all_sections() {
        let r = report(&test_cfg());
        assert_eq!(r.rows.len(), 6);
        let s = r.render();
        assert!(s.contains("sched q2"));
        assert!(s.contains("mem phases applied"));
    }

    /// The ≥1M-event acceptance golden. Debug tier-1 skips it (the cell
    /// simulates ~1.3M arrivals); the CI release smoke runs it via the
    /// disjoint `traces::` filter.
    #[test]
    fn paper_trace_replays_a_million_events_golden() {
        if cfg!(debug_assertions) {
            eprintln!("skipped in debug; run with --release");
            return;
        }
        let p = run_sched(&TracesConfig::paper());
        assert!(
            p.completed >= 1_000_000,
            "paper cell must replay >=1M events: {}",
            p.completed
        );
        // Golden-pinned: the whole 1M-event replay is deterministic.
        assert_eq!(p.completed, 1_248_628, "completed drifted");
        assert!(p.active_phases() >= 2, "moves {:?}", p.moves_by_phase);
    }
}
