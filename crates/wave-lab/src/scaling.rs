//! Agent-scaling sweep: throughput vs. SmartNIC agent count.
//!
//! The paper partitions hosts across agents to scale resource management
//! out over cheap NIC cores (§6) but never measures the scaling curve.
//! This sweep does: for each (agents, workers) cell it drives the
//! scheduler past worker capacity — so the serial agents, not the
//! workers, are the bottleneck wherever one agent cannot keep up — and
//! reports the achieved (saturation) throughput. At high worker counts
//! the curve should rise monotonically from 1 to 4 agents; at low worker
//! counts the workers saturate first and extra agents buy nothing.

use wave_core::OptLevel;
use wave_ghost::policies::FifoPolicy;
use wave_ghost::sim::{Placement, SchedConfig, SchedSim};
use wave_sim::par::par_map;
use wave_sim::SimTime;

use crate::report::{PaperRow, Report};

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct ScalingConfig {
    /// Agent shard counts to sweep (the scale-out dimension).
    pub agent_counts: Vec<u32>,
    /// Worker-core counts to sweep.
    pub worker_counts: Vec<u32>,
    /// Per-point simulated duration.
    pub duration: SimTime,
    /// Warmup excluded from stats.
    pub warmup: SimTime,
    /// RNG seed.
    pub seed: u64,
    /// Whether idle shards steal from the deepest sibling run queue.
    pub steal: bool,
    /// Offered load as a multiple of worker capacity (> 1 keeps the
    /// system saturated so achieved throughput measures capacity).
    pub headroom: f64,
}

impl ScalingConfig {
    /// Full-fidelity sweep: 1–4 agents × {16, 32, 64, 72} workers.
    pub fn paper() -> Self {
        ScalingConfig {
            agent_counts: vec![1, 2, 3, 4],
            worker_counts: vec![16, 32, 64, 72],
            duration: SimTime::from_ms(200),
            warmup: SimTime::from_ms(30),
            seed: 42,
            steal: false,
            headroom: 1.25,
        }
    }

    /// CI-speed sweep: 1–4 agents × {16, 72} workers.
    pub fn quick() -> Self {
        ScalingConfig {
            worker_counts: vec![16, 72],
            duration: SimTime::from_ms(60),
            warmup: SimTime::from_ms(10),
            ..Self::paper()
        }
    }
}

/// One cell of the sweep grid.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Agent shards.
    pub agents: u32,
    /// Worker cores.
    pub workers: u32,
    /// Offered load (req/s).
    pub offered: f64,
    /// Achieved throughput (req/s) — the capacity estimate.
    pub achieved: f64,
    /// p99 latency (µs) at that point (saturated, so indicative only).
    pub p99_us: f64,
    /// Decisions per agent shard (shows all shards pulled weight).
    pub per_agent_decisions: Vec<u64>,
}

/// The full sweep result.
#[derive(Debug, Clone)]
pub struct ScalingResult {
    /// All grid cells, in (workers-major, agents-minor) order.
    pub points: Vec<ScalingPoint>,
}

impl ScalingResult {
    /// Achieved throughput for a grid cell.
    pub fn achieved(&self, agents: u32, workers: u32) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.agents == agents && p.workers == workers)
            .map(|p| p.achieved)
    }

    /// The achieved-throughput column for one worker count, ordered by
    /// agent count.
    pub fn curve(&self, workers: u32) -> Vec<(u32, f64)> {
        let mut col: Vec<(u32, f64)> = self
            .points
            .iter()
            .filter(|p| p.workers == workers)
            .map(|p| (p.agents, p.achieved))
            .collect();
        col.sort_by_key(|&(a, _)| a);
        col
    }
}

/// Runs one grid cell.
pub fn run_point(cfg: &ScalingConfig, agents: u32, workers: u32) -> ScalingPoint {
    let mut sc = SchedConfig::new(workers, Placement::Offloaded, OptLevel::full());
    sc.agents = agents;
    sc.steal = cfg.steal;
    sc.duration = cfg.duration;
    sc.warmup = cfg.warmup;
    sc.seed = cfg.seed;
    // Saturate: offer `headroom` × worker capacity. A shallow outstanding
    // cap keeps run queues short (policy ops stay cheap) while the drop
    // guard preserves the open-loop pressure.
    sc.workload.set_offered(sc.worker_capacity() * cfg.headroom);
    sc.max_outstanding = 8 * workers as usize;
    let rep = SchedSim::with_policy_factory(sc, |_| Box::new(FifoPolicy::new())).run();
    ScalingPoint {
        agents,
        workers,
        offered: rep.offered,
        achieved: rep.achieved,
        p99_us: rep.latency.p99.as_us_f64(),
        per_agent_decisions: rep.per_agent_decisions,
    }
}

/// Runs the whole grid, load points in parallel across OS threads.
pub fn run(cfg: &ScalingConfig) -> ScalingResult {
    let grid: Vec<(u32, u32)> = cfg
        .worker_counts
        .iter()
        .flat_map(|&w| cfg.agent_counts.iter().map(move |&a| (a, w)))
        .collect();
    let points = par_map(&grid, |&(a, w)| run_point(cfg, a, w));
    ScalingResult { points }
}

/// Builds the scale-out report. The paper gives no numbers for this
/// regime, so the "paper" column holds the single-agent baseline of each
/// worker count and the ratio column reads as the scale-out speedup.
pub fn report(cfg: &ScalingConfig) -> Report {
    let res = run(cfg);
    let mut r = Report::new("§6 scale-out: saturation throughput vs agent count");
    for &w in &cfg.worker_counts {
        let curve = res.curve(w);
        let Some(&(_, base)) = curve.first() else {
            continue;
        };
        for (a, achieved) in curve {
            r.push(PaperRow::new(
                format!("{w} workers, {a} agent(s)"),
                base,
                achieved,
                "req/s",
            ));
        }
    }
    r.note("no paper numbers exist for this sweep; 'paper' = 1-agent baseline, ratio = speedup");
    r.note("offered load is headroom x worker capacity, so achieved = capacity of the bottleneck");
    r.note(format!(
        "steal={}, duration={} per point, seed={}",
        cfg.steal, cfg.duration, cfg.seed
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug builds (tier-1 `cargo test -q`) get a shorter window so the
    /// un-optimized DES stays fast; the release CI smoke run and the
    /// bench use the longer one.
    fn test_cfg() -> ScalingConfig {
        let (dur_ms, warm_ms) = if cfg!(debug_assertions) {
            (18, 3)
        } else {
            (50, 10)
        };
        ScalingConfig {
            duration: SimTime::from_ms(dur_ms),
            warmup: SimTime::from_ms(warm_ms),
            ..ScalingConfig::quick()
        }
    }

    #[test]
    fn scaling_sweep_is_monotone_at_high_worker_count() {
        let cfg = test_cfg();
        let res = run(&cfg);
        let curve = res.curve(72);
        assert_eq!(curve.len(), 4);
        for pair in curve.windows(2) {
            let ((a0, t0), (a1, t1)) = (pair[0], pair[1]);
            assert!(
                t1 > t0,
                "throughput must rise {a0}→{a1} agents: {t0:.0} vs {t1:.0}"
            );
        }
        let (_, one) = curve[0];
        let (_, four) = curve[3];
        assert!(
            four > 1.5 * one,
            "4 agents ({four:.0}) should beat 1 agent ({one:.0}) by >1.5x"
        );
    }

    #[test]
    fn scaling_sweep_low_worker_count_is_worker_bound() {
        let cfg = test_cfg();
        // At 16 workers a single agent already keeps up, so extra agents
        // must not *hurt* much; the curve stays within a narrow band.
        let res = run(&cfg);
        let curve = res.curve(16);
        let (_, one) = curve[0];
        for &(a, t) in &curve {
            assert!(
                t > 0.85 * one,
                "{a} agents collapsed at 16 workers: {t:.0} vs {one:.0}"
            );
        }
    }

    #[test]
    fn every_shard_contributes() {
        let cfg = test_cfg();
        let p = run_point(&cfg, 4, 72);
        assert_eq!(p.per_agent_decisions.len(), 4);
        for (i, d) in p.per_agent_decisions.iter().enumerate() {
            assert!(*d > 0, "shard {i} idle: {:?}", p.per_agent_decisions);
        }
    }

    #[test]
    fn report_renders() {
        let mut cfg = test_cfg();
        cfg.agent_counts = vec![1, 2];
        cfg.worker_counts = vec![16];
        cfg.duration = SimTime::from_ms(30);
        let r = report(&cfg);
        assert_eq!(r.rows.len(), 2);
        assert!(r.render().contains("16 workers, 2 agent(s)"));
    }
}
