//! Figure 6 — RPC stack placement scenarios (§7.3).

use wave_ghost::policies::{MultiQueueShinjuku, ShinjukuPolicy};
use wave_ghost::policy::SchedPolicy;
use wave_ghost::sim::{SchedReport, SchedSim};
use wave_rpc::{Fig6Scenario, SchedulerKind};
use wave_sim::par::par_map;
use wave_sim::stats::Curve;
use wave_sim::SimTime;

use crate::report::{PaperRow, Report};

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Fig6Config {
    /// Which scheduler (Fig. 6a single-queue vs 6b multi-queue SLO).
    pub kind: SchedulerKind,
    /// Per-point duration.
    pub duration: SimTime,
    /// Warmup excluded from stats.
    pub warmup: SimTime,
    /// RNG seed.
    pub seed: u64,
    /// p99 cap (µs) defining saturation (the figure's y-axis reaches
    /// 1 ms).
    pub p99_cap_us: f64,
}

impl Fig6Config {
    /// Full-fidelity Fig. 6a.
    pub fn single_queue_paper() -> Self {
        Fig6Config {
            kind: SchedulerKind::SingleQueue,
            duration: SimTime::from_secs(2),
            warmup: SimTime::from_ms(200),
            seed: 42,
            p99_cap_us: 400.0,
        }
    }

    /// CI-speed Fig. 6a.
    pub fn single_queue_quick() -> Self {
        Fig6Config {
            duration: SimTime::from_ms(600),
            warmup: SimTime::from_ms(100),
            ..Self::single_queue_paper()
        }
    }

    /// Full-fidelity Fig. 6b.
    pub fn multi_queue_paper() -> Self {
        Fig6Config {
            kind: SchedulerKind::MultiQueueSlo,
            ..Self::single_queue_paper()
        }
    }

    /// CI-speed Fig. 6b.
    pub fn multi_queue_quick() -> Self {
        Fig6Config {
            kind: SchedulerKind::MultiQueueSlo,
            ..Self::single_queue_quick()
        }
    }

    fn make_policy(&self) -> Box<dyn SchedPolicy> {
        match self.kind {
            SchedulerKind::SingleQueue => Box::new(ShinjukuPolicy::paper_default()),
            SchedulerKind::MultiQueueSlo => Box::new(MultiQueueShinjuku::paper_default()),
        }
    }
}

/// Runs one load point of a scenario.
pub fn run_point(cfg: &Fig6Config, scenario: Fig6Scenario, offered: f64) -> SchedReport {
    let mut sc = scenario.sched_config(cfg.kind);
    sc.workload.set_offered(offered);
    sc.duration = cfg.duration;
    sc.warmup = cfg.warmup;
    sc.seed = cfg.seed;
    SchedSim::new(sc, cfg.make_policy()).run()
}

/// Runs a latency-throughput curve, one simulation thread per load
/// point.
pub fn run_curve(cfg: &Fig6Config, scenario: Fig6Scenario, loads: &[f64]) -> Curve {
    let mut curve = Curve::new(scenario.label());
    let points = par_map(loads, |&offered| {
        let rep = run_point(cfg, scenario, offered);
        (rep.achieved / 1_000.0, rep.latency.p99.as_us_f64())
    });
    for (x, y) in points {
        curve.push(x, y);
    }
    curve
}

/// Saturation throughput of a scenario under the p99 cap.
pub fn saturation(cfg: &Fig6Config, scenario: Fig6Scenario) -> f64 {
    let cap = cfg.p99_cap_us;
    // Upper bound: workers over mean service (incl. overheads).
    let mean_ns = 0.995 * 21_000.0 + 0.005 * 10_030_000.0;
    let upper = scenario.workers() as f64 / (mean_ns / 1e9) * 1.3;
    let mut lo = upper * 0.2;
    let mut hi = upper;
    let mut best = 0.0f64;
    for _ in 0..7 {
        let rep = run_point(cfg, scenario, lo);
        if rep.latency.p99.as_us_f64() <= cap && rep.achieved >= lo * 0.9 {
            best = rep.achieved;
            break;
        }
        hi = lo;
        lo *= 0.65;
    }
    for _ in 0..9 {
        let mid = (lo + hi) / 2.0;
        let rep = run_point(cfg, scenario, mid);
        if rep.latency.p99.as_us_f64() <= cap && rep.achieved >= mid * 0.9 {
            best = best.max(rep.achieved);
            lo = mid;
        } else {
            hi = mid;
        }
    }
    best
}

/// Figure-level result.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// OnHost-All saturation (req/s).
    pub onhost_all: f64,
    /// OnHost-Schedule saturation.
    pub onhost_schedule: f64,
    /// Offload-All saturation.
    pub offload_all: f64,
    /// Offload-All with 15 workers (apples-to-apples).
    pub offload_all_15: f64,
}

impl Fig6Result {
    /// Offload-All vs OnHost-All (paper: ≈0% single-queue, −2.2%
    /// multi-queue).
    pub fn offload_delta(&self) -> f64 {
        self.offload_all / self.onhost_all - 1.0
    }

    /// Apples-to-apples 15-core delta (paper: −6.3% / −7.4%).
    pub fn offload15_delta(&self) -> f64 {
        self.offload_all_15 / self.onhost_all - 1.0
    }

    /// OnHost-Schedule vs OnHost-All (paper: "saturates at a much lower
    /// throughput").
    pub fn schedule_delta(&self) -> f64 {
        self.onhost_schedule / self.onhost_all - 1.0
    }
}

/// Runs the full scenario comparison, the four independent saturation
/// searches in parallel.
pub fn run(cfg: &Fig6Config) -> Fig6Result {
    let sats = par_map(
        &[
            Fig6Scenario::OnHostAll,
            Fig6Scenario::OnHostSchedule,
            Fig6Scenario::OffloadAll,
            Fig6Scenario::OffloadAll15,
        ],
        |&sc| saturation(cfg, sc),
    );
    Fig6Result {
        onhost_all: sats[0],
        onhost_schedule: sats[1],
        offload_all: sats[2],
        offload_all_15: sats[3],
    }
}

/// Builds the paper-vs-measured report.
pub fn report(cfg: &Fig6Config) -> Report {
    let res = run(cfg);
    let (title, paper_offload, paper_15) = match cfg.kind {
        SchedulerKind::SingleQueue => ("Fig. 6a: RPC single-queue Shinjuku", 0.0, -6.3),
        SchedulerKind::MultiQueueSlo => ("Fig. 6b: RPC multi-queue Shinjuku (SLO)", -2.2, -7.4),
    };
    let mut r = Report::new(title);
    r.push(PaperRow::new(
        "Offload-All vs OnHost-All",
        paper_offload,
        res.offload_delta() * 100.0,
        "%",
    ));
    r.push(PaperRow::new(
        "Offload-All(15) vs OnHost-All",
        paper_15,
        res.offload15_delta() * 100.0,
        "%",
    ));
    r.push(PaperRow::new(
        "OnHost-Schedule vs OnHost-All",
        -40.0,
        res.schedule_delta() * 100.0,
        "%",
    ));
    r.note(format!(
        "absolute saturations (req/s): onhost-all {:.0}, onhost-schedule {:.0}, offload-all {:.0}, offload-all-15 {:.0}",
        res.onhost_all, res.onhost_schedule, res.offload_all, res.offload_all_15
    ));
    r.note("OnHost-Schedule paper value is qualitative ('much lower'); we anchor at -40%");
    r.note("Offload-All recovers 9 host cores vs OnHost-All at equal worker count");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_point_runs() {
        let cfg = Fig6Config::single_queue_quick();
        let rep = run_point(&cfg, Fig6Scenario::OffloadAll, 50_000.0);
        assert!(rep.completed > 5_000);
    }
}
