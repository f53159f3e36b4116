//! CPU model: host x86 cores vs. SmartNIC ARM cores.
//!
//! The paper's testbed pairs an AMD Zen3 host (2.45–3.5 GHz) with an Intel
//! Mount Evans SoC (16 ARM Neoverse N1 cores @ 3.0 GHz). Two effects of
//! the weaker ARM cores matter to the evaluation:
//!
//! 1. **Policy compute runs slower on the NIC.** §7.4.2 measures the same
//!    SOL iteration at 623 ms on one host core vs. 1018 ms on one NIC core,
//!    but the *parallel* (compute-bound) and *serial* (memory/DMA-bound)
//!    phases scale differently. Solving the two-phase Amdahl system from
//!    the paper's 1-core and 16-core rows gives a compute-bound slowdown of
//!    ≈2.08× and a memory-bound slowdown of ≈1.11× — those are the default
//!    [`CpuModel`] ratios.
//! 2. **Agent message handling is serial** and paced by the NIC clock,
//!    which is what the scheduling experiments stress.
//!
//! The model expresses all costs in *host nanoseconds* and scales them by
//! the target core's ratio for the workload class.

use crate::time::SimTime;

/// Where a piece of work executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreClass {
    /// A host x86 core (AMD Zen3 in the paper's testbed).
    HostX86,
    /// A SmartNIC ARM core (Neoverse N1 in the paper's testbed).
    NicArm,
}

/// What kind of work it is, which determines the ARM slowdown ratio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Compute-bound work (e.g. SOL's Thompson-sampling classification,
    /// policy arithmetic). Default slowdown ≈2.08× on the NIC.
    ComputeBound,
    /// Memory-/IO-bound work (e.g. scanning PTE batches, queue
    /// bookkeeping). Default slowdown ≈1.11× on the NIC.
    MemoryBound,
}

/// Cycle-rate model translating host-referenced costs to a target core.
///
/// # Examples
///
/// ```
/// use wave_sim::cpu::{CoreClass, CpuModel, WorkloadClass};
/// use wave_sim::SimTime;
///
/// let cpu = CpuModel::mount_evans();
/// let host = cpu.cost(CoreClass::HostX86, WorkloadClass::ComputeBound, SimTime::from_us(100));
/// let nic = cpu.cost(CoreClass::NicArm, WorkloadClass::ComputeBound, SimTime::from_us(100));
/// assert_eq!(host, SimTime::from_us(100));
/// assert!(nic > host);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// NIC slowdown for compute-bound work (host = 1.0).
    pub nic_compute_ratio: f64,
    /// NIC slowdown for memory-bound work (host = 1.0).
    pub nic_membound_ratio: f64,
    /// Frequency scale applied on top of the ratios, used by the §7.3.3
    /// UPI experiment which clocks the emulated SmartNIC at 3 / 2.5 /
    /// 2 GHz. `1.0` means the nominal 3 GHz.
    pub nic_frequency_scale: f64,
    /// Number of NIC cores available to agents (16 on Mount Evans).
    pub nic_cores: u32,
}

impl CpuModel {
    /// The paper's testbed: Intel Mount Evans SmartNIC attached to an AMD
    /// Zen3 host. Ratios derived from the §7.4.2 iteration-duration table
    /// (see module docs).
    pub fn mount_evans() -> Self {
        CpuModel {
            nic_compute_ratio: 2.08,
            nic_membound_ratio: 1.11,
            nic_frequency_scale: 1.0,
            nic_cores: 16,
        }
    }

    /// Returns a copy with the NIC clocked at `ghz` instead of the nominal
    /// 3 GHz (the §7.3.3 frequency sweep).
    pub fn with_nic_ghz(mut self, ghz: f64) -> Self {
        assert!(ghz > 0.0 && ghz.is_finite(), "invalid frequency {ghz}");
        self.nic_frequency_scale = 3.0 / ghz;
        self
    }

    /// Slowdown multiplier for running `workload` on `core`.
    pub fn ratio(&self, core: CoreClass, workload: WorkloadClass) -> f64 {
        match core {
            CoreClass::HostX86 => 1.0,
            CoreClass::NicArm => {
                let base = match workload {
                    WorkloadClass::ComputeBound => self.nic_compute_ratio,
                    WorkloadClass::MemoryBound => self.nic_membound_ratio,
                };
                base * self.nic_frequency_scale
            }
        }
    }

    /// Cost of running work that takes `host_cost` on a host core when
    /// executed on `core` instead.
    pub fn cost(&self, core: CoreClass, workload: WorkloadClass, host_cost: SimTime) -> SimTime {
        host_cost.scale(self.ratio(core, workload))
    }
}

impl Default for CpuModel {
    fn default() -> Self {
        Self::mount_evans()
    }
}

/// SMT (hyperthread) throughput model.
///
/// The Fig. 5 experiment fills the first hyperthread of all 64 physical
/// cores before using second siblings; when both siblings are busy, each
/// gets a little over half a core's throughput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmtModel {
    /// Per-thread throughput multiplier when the sibling is idle.
    pub alone: f64,
    /// Per-thread throughput multiplier when both siblings are busy.
    /// 0.55 ⇒ a fully-SMT core yields 1.1× a single thread.
    pub shared: f64,
}

impl Default for SmtModel {
    fn default() -> Self {
        SmtModel {
            alone: 1.0,
            shared: 0.55,
        }
    }
}

impl SmtModel {
    /// Throughput multiplier for one thread given whether its sibling is
    /// busy.
    pub fn factor(&self, sibling_busy: bool) -> f64 {
        if sibling_busy {
            self.shared
        } else {
            self.alone
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_is_unit_ratio() {
        let cpu = CpuModel::mount_evans();
        assert_eq!(
            cpu.ratio(CoreClass::HostX86, WorkloadClass::ComputeBound),
            1.0
        );
        assert_eq!(
            cpu.ratio(CoreClass::HostX86, WorkloadClass::MemoryBound),
            1.0
        );
    }

    #[test]
    fn nic_slowdowns_match_design() {
        let cpu = CpuModel::mount_evans();
        assert!((cpu.ratio(CoreClass::NicArm, WorkloadClass::ComputeBound) - 2.08).abs() < 1e-9);
        assert!((cpu.ratio(CoreClass::NicArm, WorkloadClass::MemoryBound) - 1.11).abs() < 1e-9);
    }

    #[test]
    fn frequency_sweep_scales_ratio() {
        let cpu = CpuModel::mount_evans().with_nic_ghz(2.0);
        // 3 GHz nominal -> 2 GHz = 1.5x slower again.
        let r = cpu.ratio(CoreClass::NicArm, WorkloadClass::ComputeBound);
        assert!((r - 2.08 * 1.5).abs() < 1e-9);
    }

    #[test]
    fn cost_scales_duration() {
        let cpu = CpuModel::mount_evans();
        let c = cpu.cost(
            CoreClass::NicArm,
            WorkloadClass::MemoryBound,
            SimTime::from_ns(1000),
        );
        assert_eq!(c.as_ns(), 1110);
    }

    #[test]
    fn smt_factors() {
        let smt = SmtModel::default();
        assert_eq!(smt.factor(false), 1.0);
        assert!((smt.factor(true) - 0.55).abs() < 1e-12);
    }

    #[test]
    fn amdahl_derivation_matches_paper_table() {
        // Sanity-check the closed-form derivation quoted in the module
        // docs: with host phases S=288ms, P=335ms and NIC ratios
        // (1.11, 2.08), the predicted §7.4.2 endpoints must be close.
        let s_host = 288.0;
        let p_host = 335.0;
        let cpu = CpuModel::mount_evans();
        let s_nic = s_host * cpu.nic_membound_ratio;
        let p_nic = p_host * cpu.nic_compute_ratio;
        let t1 = s_nic + p_nic;
        let t16 = s_nic + p_nic / 16.0;
        assert!((t1 - 1018.0).abs() < 30.0, "t1 {t1}");
        assert!((t16 - 364.0).abs() < 30.0, "t16 {t16}");
    }
}
