//! Figure 5 — VM scheduling: Wave (no ticks) vs. on-host ghOSt (ticks).
//!
//! Two 128-vCPU VMs share one 128-logical-core socket. With the
//! scheduler offloaded, host timer ticks are disabled; idle cores park
//! in deep C-states and the turbo governor boosts the active ones.
//! Running `busy_loop` on 1…128 vCPUs sweeps the active-core count;
//! Fig. 5a plots average per-vCPU work, Fig. 5b the percentage
//! improvement of Wave over the ticking baseline.
//!
//! Anchors: +11.2% at 1 active vCPU, ≈+9.7% at 31, +1.7% at 128 (pure
//! tick overhead once turbo headroom is gone).

use wave_sim::cpu::SmtModel;
use wave_sim::stats::Curve;
use wave_sim::turbo::{vcpu_work_rate, TickModel, TurboModel};

use crate::report::{PaperRow, Report};

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Fig5Config {
    /// Socket turbo model.
    pub turbo: TurboModel,
    /// Tick interference model.
    pub ticks: TickModel,
    /// SMT sharing model.
    pub smt: SmtModel,
}

impl Fig5Config {
    /// The paper's Zen3 socket configuration.
    pub fn paper() -> Self {
        Fig5Config {
            turbo: TurboModel::zen3(),
            ticks: TickModel::production(),
            smt: SmtModel::default(),
        }
    }
}

impl Default for Fig5Config {
    fn default() -> Self {
        Self::paper()
    }
}

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Point {
    /// Busy vCPUs (`busy_loop` instances).
    pub vcpus: u32,
    /// Average per-vCPU work rate, Wave (no ticks).
    pub wave: f64,
    /// Average per-vCPU work rate, on-host (ticks).
    pub onhost: f64,
}

impl Fig5Point {
    /// Percentage improvement of Wave (Fig. 5b's y-axis).
    pub fn improvement(&self) -> f64 {
        (self.wave / self.onhost - 1.0) * 100.0
    }
}

/// Average per-vCPU work for `n` busy vCPUs on the 64-physical-core
/// socket: vCPUs fill first hyperthreads before second siblings
/// (§7.2.4's placement).
fn avg_work(cfg: &Fig5Config, n: u32, ticks_enabled: bool) -> f64 {
    let physical = cfg.turbo.physical_cores;
    let active_physical = n.min(physical);
    let dual = n.saturating_sub(physical); // cores running two busy vCPUs
    let single = active_physical - dual;
    let mut total = 0.0;
    total += single as f64
        * vcpu_work_rate(
            &cfg.turbo,
            &cfg.ticks,
            &cfg.smt,
            active_physical,
            false,
            ticks_enabled,
        );
    total += (2 * dual) as f64
        * vcpu_work_rate(
            &cfg.turbo,
            &cfg.ticks,
            &cfg.smt,
            active_physical,
            true,
            ticks_enabled,
        );
    total / n as f64
}

/// Runs the 1…128-vCPU sweep.
pub fn run(cfg: &Fig5Config) -> Vec<Fig5Point> {
    (1..=2 * cfg.turbo.physical_cores)
        .map(|n| Fig5Point {
            vcpus: n,
            wave: avg_work(cfg, n, false),
            onhost: avg_work(cfg, n, true),
        })
        .collect()
}

/// The two figure curves (per-vCPU work; Fig. 5a).
pub fn curves(cfg: &Fig5Config) -> (Curve, Curve) {
    let points = run(cfg);
    let mut wave = Curve::new("Wave (No Ticks)");
    let mut onhost = Curve::new("On-Host (Ticks)");
    for p in points {
        wave.push(p.vcpus as f64, p.wave);
        onhost.push(p.vcpus as f64, p.onhost);
    }
    (wave, onhost)
}

/// Builds the paper-vs-measured report at the paper's anchor points.
pub fn report(cfg: &Fig5Config) -> Report {
    let points = run(cfg);
    let at = |n: u32| points[(n - 1) as usize].improvement();
    let mut r = Report::new("Fig. 5: VM scheduling, Wave (no ticks) vs on-host (ticks)");
    r.push(PaperRow::new("improvement @ 1 vCPU", 11.2, at(1), "%"));
    r.push(PaperRow::new("improvement @ 31 vCPUs", 9.7, at(31), "%"));
    r.push(PaperRow::new("improvement @ 128 vCPUs", 1.7, at(128), "%"));
    r.note("one SmartNIC core replaces per-core tick scheduling; the paper derives 4.4 host cores saved per machine at the 128-vCPU point");
    r
}

/// The paper's headline resource claim: cores saved per host at full
/// occupancy (1.7% × 256 hyperthreads = 4.4 cores).
pub fn cores_saved_at_full_load(cfg: &Fig5Config) -> f64 {
    let points = run(cfg);
    let imp = points[127].improvement() / 100.0;
    imp * 256.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_match_paper() {
        let r = report(&Fig5Config::paper());
        for row in &r.rows {
            let err = (row.measured - row.paper).abs();
            assert!(
                err < 1.0,
                "{}: {} vs {}",
                row.label,
                row.measured,
                row.paper
            );
        }
    }

    #[test]
    fn improvement_monotone_non_increasing_in_steps() {
        let points = run(&Fig5Config::paper());
        // Improvements step down across turbo brackets and flatten at
        // the tick-only floor.
        assert!(points[0].improvement() > points[40].improvement());
        assert!(points[40].improvement() > points[70].improvement());
        let last = points[127].improvement();
        assert!((last - 1.7).abs() < 0.3, "floor {last}");
    }

    #[test]
    fn per_vcpu_work_declines_with_occupancy() {
        // Fig. 5a's shape: more active vCPUs, less per-vCPU work.
        let points = run(&Fig5Config::paper());
        assert!(points[0].wave > points[63].wave);
        assert!(points[63].wave > points[127].wave);
    }

    #[test]
    fn cores_saved_matches_paper_arithmetic() {
        let saved = cores_saved_at_full_load(&Fig5Config::paper());
        assert!((saved - 4.4).abs() < 0.5, "saved {saved}");
    }
}
