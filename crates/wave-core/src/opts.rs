//! The optimization toggles of §5.3–§5.4.
//!
//! The paper's ablation (§7.2.2) adds optimizations cumulatively:
//!
//! | Level | Saturation throughput |
//! |---|---|
//! | Baseline (no optimizations) | 258 k req/s |
//! | + SmartNIC WB PTEs (§5.3.1) | 520 k (+102%) |
//! | + Host WC/WT PTEs (§5.3.1) | 680 k (+31%) |
//! | + Prestage & prefetch (§5.4) | 895 k (+32%) |
//!
//! `OptLevel` makes those levers *data*: the same mechanism code runs at
//! every level, only mappings and fast-path enablement change.

use wave_pcie::{PteType, SocPteMode};

/// Which Wave optimizations are enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptLevel {
    /// Map queue memory write-back on the SmartNIC SoC (§5.3.1).
    pub nic_wb: bool,
    /// Map the host message queue write-combining and the decision slots
    /// write-through (§5.3.1/§5.3.2).
    pub host_wc_wt: bool,
    /// Agents prestage decisions ahead of demand (§5.4).
    pub prestage: bool,
    /// The host prefetches prestaged decisions before it needs them
    /// (§5.4).
    pub prefetch: bool,
}

impl OptLevel {
    /// No optimizations: the §7.2.2 baseline.
    pub const fn none() -> Self {
        OptLevel {
            nic_wb: false,
            host_wc_wt: false,
            prestage: false,
            prefetch: false,
        }
    }

    /// + SmartNIC WB PTEs.
    pub const fn nic_wb() -> Self {
        OptLevel {
            nic_wb: true,
            ..Self::none()
        }
    }

    /// + Host WC/WT PTEs.
    pub const fn host_pte() -> Self {
        OptLevel {
            host_wc_wt: true,
            ..Self::nic_wb()
        }
    }

    /// All optimizations (+ prestaging and prefetching): the configuration
    /// Wave runs in every end-to-end comparison.
    pub const fn full() -> Self {
        OptLevel {
            prestage: true,
            prefetch: true,
            ..Self::host_pte()
        }
    }

    /// The cumulative ablation ladder of §7.2.2, in order.
    pub fn ablation_ladder() -> [(&'static str, OptLevel); 4] {
        [
            ("baseline (no optimizations)", Self::none()),
            ("+ SmartNIC WB PTEs", Self::nic_wb()),
            ("+ host WC/WT PTEs", Self::host_pte()),
            ("+ prestage & prefetch", Self::full()),
        ]
    }

    /// Host PTE type for the host→NIC message queue.
    pub fn message_queue_pte(self) -> PteType {
        if self.host_wc_wt {
            PteType::WriteCombining
        } else {
            PteType::Uncacheable
        }
    }

    /// Host PTE type for the per-core decision slots (the paper's
    /// decision queues).
    pub fn decision_queue_pte(self) -> PteType {
        if self.host_wc_wt {
            PteType::WriteThrough
        } else {
            PteType::Uncacheable
        }
    }

    /// SoC-side mapping for queue memory.
    pub fn soc_pte(self) -> SocPteMode {
        if self.nic_wb {
            SocPteMode::WriteBack
        } else {
            SocPteMode::Uncached
        }
    }
}

impl Default for OptLevel {
    fn default() -> Self {
        Self::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_cumulative() {
        let ladder = OptLevel::ablation_ladder();
        assert_eq!(ladder.len(), 4);
        assert_eq!(ladder[0].1, OptLevel::none());
        assert_eq!(ladder[3].1, OptLevel::full());
        // Each step keeps the previous step's toggles.
        assert!(ladder[1].1.nic_wb && !ladder[1].1.host_wc_wt);
        assert!(ladder[2].1.nic_wb && ladder[2].1.host_wc_wt && !ladder[2].1.prestage);
    }

    #[test]
    fn pte_mapping_follows_toggles() {
        assert_eq!(OptLevel::none().message_queue_pte(), PteType::Uncacheable);
        assert_eq!(OptLevel::none().decision_queue_pte(), PteType::Uncacheable);
        assert_eq!(
            OptLevel::full().message_queue_pte(),
            PteType::WriteCombining
        );
        assert_eq!(OptLevel::full().decision_queue_pte(), PteType::WriteThrough);
        assert_eq!(OptLevel::none().soc_pte(), SocPteMode::Uncached);
        assert_eq!(OptLevel::full().soc_pte(), SocPteMode::WriteBack);
    }
}
