//! §7.3.3 — coherent-interconnect (UPI) emulation.
//!
//! The paper emulates a UPI-attached SmartNIC with the second CPU socket
//! and sweeps the emulated NIC frequency (3 / 2.5 / 2 GHz). We run the
//! same Fig. 6-style Offload-All workload against the coherent
//! interconnect model and the frequency-scaled CPU model:
//!
//! * slowdowns at saturation vs. on-host: 1.3% (3 GHz), 2.5% (2.5 GHz),
//!   3.5% (2 GHz);
//! * UPI at 3 GHz beats the real PCIe-attached SmartNIC by 0.9%.

use wave_core::workload::WorkloadSpec;
use wave_core::OptLevel;
use wave_ghost::policies::ShinjukuPolicy;
use wave_ghost::sim::{Placement, SchedConfig, ServiceMix};
use wave_pcie::PcieConfig;
use wave_sim::cpu::CpuModel;
use wave_sim::par::par_map;
use wave_sim::SimTime;

use crate::report::{PaperRow, Report};

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct UpiConfig {
    /// Worker cores (same count in both scenarios: apples-to-apples).
    pub workers: u32,
    /// Per-point duration.
    pub duration: SimTime,
    /// Warmup.
    pub warmup: SimTime,
    /// RNG seed.
    pub seed: u64,
    /// p99 saturation cap (µs).
    pub p99_cap_us: f64,
}

impl UpiConfig {
    /// Paper-shaped configuration.
    pub fn paper() -> Self {
        UpiConfig {
            workers: 15,
            duration: SimTime::from_secs(1),
            warmup: SimTime::from_ms(150),
            seed: 42,
            p99_cap_us: 250.0,
        }
    }

    /// CI-speed configuration.
    pub fn quick() -> Self {
        UpiConfig {
            duration: SimTime::from_ms(400),
            warmup: SimTime::from_ms(80),
            ..Self::paper()
        }
    }
}

/// Which deployment a measurement uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpiScenario {
    /// Everything on the host (the §7.3.3 on-host baseline).
    OnHost,
    /// Agent offloaded across the coherent interconnect, with the
    /// emulated SmartNIC clocked at `ghz`.
    CoherentNic {
        /// Emulated SmartNIC frequency in GHz.
        ghz: f64,
    },
    /// Agent offloaded across real PCIe at the nominal 3 GHz.
    PcieNic,
}

/// The scenario's host under `cfg`; callers set the offered rate.
pub fn sched_config(cfg: &UpiConfig, scenario: UpiScenario) -> SchedConfig {
    let mut sc = SchedConfig::new(
        cfg.workers,
        match scenario {
            UpiScenario::OnHost => Placement::OnHost,
            _ => Placement::Offloaded,
        },
        OptLevel::full(),
    );
    sc.workload = WorkloadSpec::poisson(ServiceMix::paper_bimodal(), 100_000.0);
    sc.duration = cfg.duration;
    sc.warmup = cfg.warmup;
    sc.seed = cfg.seed;
    match scenario {
        UpiScenario::OnHost => {}
        UpiScenario::CoherentNic { ghz } => {
            sc.interconnect = PcieConfig::coherent_upi();
            sc.cpu = CpuModel::mount_evans().with_nic_ghz(ghz);
        }
        UpiScenario::PcieNic => {
            sc.interconnect = PcieConfig::pcie();
        }
    }
    sc
}

/// Full experiment result.
#[derive(Debug, Clone)]
pub struct UpiResult {
    /// On-host saturation (req/s).
    pub onhost: f64,
    /// Coherent NIC at 3 GHz.
    pub upi_3ghz: f64,
    /// Coherent NIC at 2.5 GHz.
    pub upi_2_5ghz: f64,
    /// Coherent NIC at 2 GHz.
    pub upi_2ghz: f64,
    /// PCIe NIC at 3 GHz.
    pub pcie_3ghz: f64,
}

/// Runs all five measurements, the independent saturation searches in
/// parallel.
pub fn run(cfg: &UpiConfig) -> UpiResult {
    let sats = par_map(
        &[
            UpiScenario::OnHost,
            UpiScenario::CoherentNic { ghz: 3.0 },
            UpiScenario::CoherentNic { ghz: 2.5 },
            UpiScenario::CoherentNic { ghz: 2.0 },
            UpiScenario::PcieNic,
        ],
        |&sc| saturation(cfg, sc),
    );
    UpiResult {
        onhost: sats[0],
        upi_3ghz: sats[1],
        upi_2_5ghz: sats[2],
        upi_2ghz: sats[3],
        pcie_3ghz: sats[4],
    }
}

fn saturation(cfg: &UpiConfig, scenario: UpiScenario) -> f64 {
    crate::saturation(
        &sched_config(cfg, scenario),
        || Box::new(ShinjukuPolicy::paper_default()),
        cfg.p99_cap_us,
    )
}

/// Builds the paper-vs-measured report.
pub fn report(cfg: &UpiConfig) -> Report {
    let res = run(cfg);
    let slowdown = |x: f64| (1.0 - x / res.onhost) * 100.0;
    let mut r = Report::new("§7.3.3: coherent-interconnect (UPI) emulation");
    r.push(PaperRow::new(
        "slowdown @ 3 GHz",
        1.3,
        slowdown(res.upi_3ghz),
        "%",
    ));
    r.push(PaperRow::new(
        "slowdown @ 2.5 GHz",
        2.5,
        slowdown(res.upi_2_5ghz),
        "%",
    ));
    r.push(PaperRow::new(
        "slowdown @ 2 GHz",
        3.5,
        slowdown(res.upi_2ghz),
        "%",
    ));
    r.push(PaperRow::new(
        "UPI gain over PCIe @ 3 GHz",
        0.9,
        (res.upi_3ghz / res.pcie_3ghz - 1.0) * 100.0,
        "%",
    ));
    r.note(format!(
        "absolute saturations (req/s): onhost {:.0}, upi3 {:.0}, upi2.5 {:.0}, upi2 {:.0}, pcie {:.0}",
        res.onhost, res.upi_3ghz, res.upi_2_5ghz, res.upi_2ghz, res.pcie_3ghz
    ));
    r.note("Wave benefits from hardware coherence but performs well without it (§7.3.3)");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coherent_beats_pcie_at_same_frequency() {
        let cfg = UpiConfig::quick();
        let upi = saturation(&cfg, UpiScenario::CoherentNic { ghz: 3.0 });
        let pcie = saturation(&cfg, UpiScenario::PcieNic);
        assert!(upi >= pcie, "upi {upi} vs pcie {pcie}");
    }
}
