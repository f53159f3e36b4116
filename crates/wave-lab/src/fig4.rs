//! Figures 4a/4b and the §7.2.2 optimization ablation.
//!
//! Three scenarios, exactly as in the paper:
//!
//! * **On-Host, 16 CPUs** — 1 host core runs the ghOSt agent, 15 run
//!   RocksDB workers.
//! * **Wave, 15 CPUs** — agent on the SmartNIC, same 15 workers
//!   (apples-to-apples: the freed core is left idle).
//! * **Wave, 16 CPUs** — the freed core becomes a 16th worker.
//!
//! Fig. 4a drives a FIFO policy with 10 µs GETs; Fig. 4b drives Shinjuku
//! (30 µs slice) with the 99.5%/0.5% GET/RANGE mix. The ablation repeats
//! Wave-16 at each [`OptLevel`] rung.

use wave_core::workload::WorkloadSpec;
use wave_core::OptLevel;
use wave_ghost::policies::{FifoPolicy, ShinjukuPolicy};
use wave_ghost::policy::SchedPolicy;
use wave_ghost::sim::{Placement, SchedConfig, ServiceMix};
use wave_sim::par::par_map;
use wave_sim::SimTime;

use crate::report::{PaperRow, Report};

/// Which figure (policy + mix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Fig. 4a: FIFO, pure 10 µs GETs.
    Fifo,
    /// Fig. 4b: Shinjuku 30 µs slice, bimodal mix.
    Shinjuku,
}

/// The three comparison scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// On-host ghOSt: 15 workers + 1 agent core.
    OnHost16,
    /// Wave with 15 workers (freed core idle).
    Wave15,
    /// Wave with 16 workers (freed core used).
    Wave16,
}

impl Scenario {
    /// Worker-core count for the scenario.
    pub fn workers(self) -> u32 {
        match self {
            Scenario::OnHost16 | Scenario::Wave15 => 15,
            Scenario::Wave16 => 16,
        }
    }

    /// Agent placement for the scenario.
    pub fn placement(self) -> Placement {
        match self {
            Scenario::OnHost16 => Placement::OnHost,
            Scenario::Wave15 | Scenario::Wave16 => Placement::Offloaded,
        }
    }

    /// Display label matching the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            Scenario::OnHost16 => "On-Host, 16 CPUs",
            Scenario::Wave15 => "Wave, 15 CPUs",
            Scenario::Wave16 => "Wave, 16 CPUs",
        }
    }
}

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Fig4Config {
    /// Policy/mix selection.
    pub policy: Policy,
    /// Per-point simulated duration.
    pub duration: SimTime,
    /// Warmup excluded from stats.
    pub warmup: SimTime,
    /// RNG seed.
    pub seed: u64,
    /// Optimization level for the Wave scenarios.
    pub opts: OptLevel,
    /// p99 cap (µs) defining saturation, matching the figure's y-axis.
    pub p99_cap_us: f64,
}

impl Fig4Config {
    /// Full-fidelity Fig. 4a configuration.
    pub fn fifo_paper() -> Self {
        Fig4Config {
            policy: Policy::Fifo,
            duration: SimTime::from_ms(400),
            warmup: SimTime::from_ms(50),
            seed: 42,
            opts: OptLevel::full(),
            p99_cap_us: 200.0,
        }
    }

    /// CI-speed Fig. 4a configuration.
    pub fn fifo_quick() -> Self {
        Fig4Config {
            duration: SimTime::from_ms(120),
            warmup: SimTime::from_ms(20),
            ..Self::fifo_paper()
        }
    }

    /// Full-fidelity Fig. 4b configuration.
    pub fn shinjuku_paper() -> Self {
        Fig4Config {
            policy: Policy::Shinjuku,
            duration: SimTime::from_secs(2),
            warmup: SimTime::from_ms(200),
            seed: 42,
            opts: OptLevel::full(),
            p99_cap_us: 250.0,
        }
    }

    /// CI-speed Fig. 4b configuration.
    pub fn shinjuku_quick() -> Self {
        Fig4Config {
            duration: SimTime::from_ms(600),
            warmup: SimTime::from_ms(100),
            ..Self::shinjuku_paper()
        }
    }

    fn mix(&self) -> ServiceMix {
        match self.policy {
            Policy::Fifo => ServiceMix::gets_10us(),
            Policy::Shinjuku => ServiceMix::paper_bimodal(),
        }
    }

    fn make_policy(&self) -> Box<dyn SchedPolicy> {
        match self.policy {
            Policy::Fifo => Box::new(FifoPolicy::new()),
            Policy::Shinjuku => Box::new(ShinjukuPolicy::paper_default()),
        }
    }
}

/// The scenario's host under `cfg`; callers set the offered rate.
pub fn sched_config(cfg: &Fig4Config, scenario: Scenario) -> SchedConfig {
    let mut sc = SchedConfig::new(scenario.workers(), scenario.placement(), cfg.opts);
    sc.workload = WorkloadSpec::poisson(cfg.mix(), 100_000.0);
    sc.duration = cfg.duration;
    sc.warmup = cfg.warmup;
    sc.seed = cfg.seed;
    sc
}

/// Full figure result.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// Saturation throughput per scenario (req/s): on-host, wave-15,
    /// wave-16.
    pub sat_onhost: f64,
    /// Wave, 15 CPUs.
    pub sat_wave15: f64,
    /// Wave, 16 CPUs.
    pub sat_wave16: f64,
}

impl Fig4Result {
    /// Wave-15 relative to On-Host (paper: −1.1% for FIFO, −7.6% for
    /// Shinjuku).
    pub fn wave15_delta(&self) -> f64 {
        self.sat_wave15 / self.sat_onhost - 1.0
    }

    /// Wave-16 relative to On-Host (paper: +4.6% FIFO, +1.9% Shinjuku).
    pub fn wave16_delta(&self) -> f64 {
        self.sat_wave16 / self.sat_onhost - 1.0
    }
}

/// Runs the saturation comparison for a figure, the three independent
/// scenario searches in parallel.
pub fn run(cfg: &Fig4Config) -> Fig4Result {
    let sats = par_map(
        &[Scenario::OnHost16, Scenario::Wave15, Scenario::Wave16],
        |&sc| crate::saturation(&sched_config(cfg, sc), || cfg.make_policy(), cfg.p99_cap_us),
    );
    Fig4Result {
        sat_onhost: sats[0],
        sat_wave15: sats[1],
        sat_wave16: sats[2],
    }
}

/// The §7.2.2 ablation: Wave-16 FIFO saturation at each optimization
/// rung (each rung an independent parallel search). Returns
/// `(label, saturation req/s)` in ladder order.
pub fn ablation(cfg: &Fig4Config) -> Vec<(&'static str, f64)> {
    let ladder = OptLevel::ablation_ladder();
    let sats = par_map(&ladder, |(_, opts)| {
        let mut sc = sched_config(cfg, Scenario::Wave16);
        sc.opts = *opts;
        crate::saturation(&sc, || cfg.make_policy(), cfg.p99_cap_us)
    });
    ladder
        .into_iter()
        .map(|(label, _)| label)
        .zip(sats)
        .collect()
}

/// Builds the paper-vs-measured report for a figure.
pub fn report(cfg: &Fig4Config) -> Report {
    let res = run(cfg);
    let (title, paper15, paper16) = match cfg.policy {
        Policy::Fifo => ("Fig. 4a: FIFO scheduling (10us GETs)", -1.1, 4.6),
        Policy::Shinjuku => ("Fig. 4b: Shinjuku (99.5/0.5 bimodal)", -7.6, 1.9),
    };
    let mut r = Report::new(title);
    r.push(PaperRow::new(
        "Wave-15 vs On-Host saturation",
        paper15,
        res.wave15_delta() * 100.0,
        "%",
    ));
    r.push(PaperRow::new(
        "Wave-16 vs On-Host saturation",
        paper16,
        res.wave16_delta() * 100.0,
        "%",
    ));
    r.note(format!(
        "absolute saturations (req/s): on-host {:.0}, wave-15 {:.0}, wave-16 {:.0}",
        res.sat_onhost, res.sat_wave15, res.sat_wave16
    ));
    r.note("shape target: Wave-15 < On-Host < Wave-16; magnitudes within a few points");
    r
}

/// Builds the §7.2.2 ablation report.
pub fn ablation_report(cfg: &Fig4Config) -> Report {
    let rungs = ablation(cfg);
    let paper = [258_000.0, 520_000.0, 680_000.0, 895_000.0];
    let mut r = Report::new("§7.2.2: optimization ablation (Wave-16, FIFO)");
    for ((label, sat), p) in rungs.into_iter().zip(paper) {
        r.push(PaperRow::new(label, p, sat, "req/s"));
    }
    r.note("cumulative ladder; the paper reports +102%/+31%/+32% steps");
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use wave_ghost::sim::SchedSim;

    #[test]
    fn quick_point_runs() {
        let cfg = Fig4Config::fifo_quick();
        let mut sc = sched_config(&cfg, Scenario::Wave16);
        sc.workload.set_offered(200_000.0);
        let rep = SchedSim::new(sc, cfg.make_policy()).run();
        assert!(rep.completed > 10_000);
        assert!(rep.latency.p99 < SimTime::from_us(200));
    }
}
