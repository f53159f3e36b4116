//! Table 3 — scheduling microbenchmarks, measured on [`SchedSim`].
//!
//! The paper measures two quantities per configuration:
//!
//! 1. **"Open a decision in agent & send MSI-X"** — the agent-side cost
//!    of writing one decision into its slot and kicking the host: the
//!    [`SlotTable::stage`] write plus the MSI-X sender cost, the two
//!    primitives every `SchedSim` kick pays.
//! 2. **"Context switch overhead on host"** — a thread finishes → the
//!    next thread runs, across the full communication path. Each row is
//!    one two-request [`SchedSim`] run on one worker and one FIFO agent:
//!    request B arrives while A runs, and the row is the gap between A
//!    finishing and B starting, read off the completion log. With
//!    prestaging on, the agent stages B while A still runs and the host
//!    finds it on its idle transition; otherwise the host parks and the
//!    agent's pick reaches it by MSI-X.
//!
//! Paper bands (ns):
//!
//! | Row | Band |
//! |---|---|
//! | Offloaded open decision, baseline | 1,013 |
//! | Offloaded open decision, SoC WB | 426 |
//! | Offloaded ctx switch, baseline | 13,310–13,530 |
//! | + SmartNIC WB PTEs | 9,940–10,160 |
//! | + host WC/WT PTEs | 6,100–6,910 |
//! | + prestage & prefetch | 3,320–4,040 |
//! | On-host open decision & interrupt | 770 |
//! | On-host ctx switch, baseline | 4,380–4,990 |
//! | On-host ctx switch, prestaged | 2,350–3,260 |

use wave_core::runtime::{SlotId, SlotTable};
use wave_core::workload::{TraceRecord, WorkloadSpec};
use wave_core::OptLevel;
use wave_ghost::policies::FifoPolicy;
use wave_ghost::sim::{Diag, Placement, SchedConfig, SchedSim};
use wave_ghost::{CostModel, SloClass};
use wave_pcie::config::Side;
use wave_pcie::{Interconnect, MsixSendPath, MsixVector, PcieConfig};
use wave_sim::SimTime;

use crate::report::{PaperRow, Report};

/// Which single-decision path a row measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// Open a decision in the agent and send the MSI-X.
    OpenDecision,
    /// Host context switch from one finished thread to the next.
    ContextSwitch,
}

/// One Table 3 row: what it measures and the paper's band.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Row label matching the paper's table.
    pub label: &'static str,
    /// The path measured.
    pub path: Path,
    /// Where the agent runs.
    pub placement: Placement,
    /// The optimization level.
    pub opts: OptLevel,
    /// The paper's reported band (low, high), in ns.
    pub paper_band: (u64, u64),
}

/// The nine rows, in the paper's order.
pub const ROWS: [Row; 9] = [
    Row {
        label: "offloaded: open decision + MSI-X (baseline)",
        path: Path::OpenDecision,
        placement: Placement::Offloaded,
        opts: OptLevel::none(),
        paper_band: (1_013, 1_013),
    },
    Row {
        label: "offloaded: open decision + MSI-X (SoC WB PTEs)",
        path: Path::OpenDecision,
        placement: Placement::Offloaded,
        opts: OptLevel::nic_wb(),
        paper_band: (426, 426),
    },
    Row {
        label: "offloaded: context switch (baseline)",
        path: Path::ContextSwitch,
        placement: Placement::Offloaded,
        opts: OptLevel::none(),
        paper_band: (13_310, 13_530),
    },
    Row {
        label: "offloaded: context switch (+SoC WB PTEs)",
        path: Path::ContextSwitch,
        placement: Placement::Offloaded,
        opts: OptLevel::nic_wb(),
        paper_band: (9_940, 10_160),
    },
    Row {
        label: "offloaded: context switch (+host WC/WT PTEs)",
        path: Path::ContextSwitch,
        placement: Placement::Offloaded,
        opts: OptLevel::host_pte(),
        paper_band: (6_100, 6_910),
    },
    Row {
        label: "offloaded: context switch (+prestage & prefetch)",
        path: Path::ContextSwitch,
        placement: Placement::Offloaded,
        opts: OptLevel::full(),
        paper_band: (3_320, 4_040),
    },
    Row {
        label: "on-host: open decision + interrupt",
        path: Path::OpenDecision,
        placement: Placement::OnHost,
        opts: OptLevel::full(),
        paper_band: (770, 770),
    },
    Row {
        label: "on-host: context switch (baseline)",
        path: Path::ContextSwitch,
        placement: Placement::OnHost,
        opts: OptLevel::host_pte(),
        paper_band: (4_380, 4_990),
    },
    Row {
        label: "on-host: context switch (prestaged)",
        path: Path::ContextSwitch,
        placement: Placement::OnHost,
        opts: OptLevel::full(),
        paper_band: (2_350, 3_260),
    },
];

impl Row {
    /// Measures the row.
    pub fn measure(&self) -> SimTime {
        match self.path {
            Path::OpenDecision => open_decision(self.placement, self.opts),
            Path::ContextSwitch => context_switch(self.placement, self.opts).0,
        }
    }
}

/// "Open a decision in agent & send MSI-X": one decision-slot write on
/// the placement's interconnect, plus the MSI-X sender's CPU cost.
pub fn open_decision(placement: Placement, opts: OptLevel) -> SimTime {
    let (pcfg, side) = match placement {
        Placement::OnHost => (PcieConfig::host_local(), Side::Host),
        Placement::Offloaded => (PcieConfig::pcie(), Side::Nic),
    };
    let mut ic = Interconnect::new(pcfg);
    let words = CostModel::calibrated().decision_words;
    let (host_pte, nic_pte) = (opts.decision_queue_pte(), opts.soc_pte());
    let mut slots = SlotTable::new(&mut ic, 1, words, host_pte, nic_pte);
    let t0 = SimTime::from_us(10);
    // The write's cost is in its words, not its payload.
    let stage = slots.stage(t0, &mut ic, SlotId(0), ());
    let kick = ic
        .msix
        .send(t0 + stage, MsixVector(0), MsixSendPath::Ioctl, side);
    stage + kick.sender_cpu
}

/// "Context switch overhead on host": runs request A, then request B
/// arriving while A runs, on one worker under one FIFO agent, and
/// returns the time from A finishing to B running (B's finish minus A's,
/// less B's own service) with the run's diagnostic counters.
pub fn context_switch(placement: Placement, opts: OptLevel) -> (SimTime, Diag) {
    let mut sc = SchedConfig::new(1, placement, opts);
    let request = |at_us, service_us| TraceRecord {
        at: SimTime::from_us(at_us),
        service: SimTime::from_us(service_us),
        slo: SloClass::DEFAULT,
        affinity: None,
    };
    // A starts within ~15 µs of arriving on every row; B arrives well
    // after that and well before A's 50 µs of service ends.
    let (a, b) = (request(1, 50), request(30, 10));
    let b_busy = b.service + SimTime::from_ns(sc.cost.app_overhead_ns);
    sc.workload = WorkloadSpec::trace(vec![a, b]);
    sc.duration = SimTime::from_ms(1);
    sc.warmup = SimTime::ZERO;
    let end = sc.duration;
    let mut stepper = SchedSim::new(sc, Box::new(FifoPolicy::new())).into_stepper();
    stepper.set_completion_log(true);
    stepper.advance(end);
    let mut done = Vec::new();
    stepper.drain_completions(&mut done);
    assert!(
        done.len() == 2 && !done.iter().any(|c| c.rejected),
        "both requests complete: {done:?}"
    );
    let gap = done[1].finished - done[0].finished - b_busy;
    (gap, stepper.finish().diag)
}

/// Builds the paper-vs-measured report for all Table 3 rows.
pub fn report() -> Report {
    let mut r = Report::new("Table 3: scheduling microbenchmarks");
    for row in &ROWS {
        let paper_mid = (row.paper_band.0 + row.paper_band.1) as f64 / 2.0;
        let measured = row.measure().as_ns() as f64;
        r.push(PaperRow::new(row.label, paper_mid, measured, "ns"));
    }
    r.note("paper column is the band midpoint; ranges in the paper reflect run-to-run variability");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_is_pinned_to_the_ns() {
        // The ±15% band below cannot tell a rig or cost-model change
        // from a faithful one; this golden can.
        let measured: Vec<u64> = ROWS.iter().map(|r| r.measure().as_ns()).collect();
        assert_eq!(
            measured,
            [1_012, 428, 12_236, 10_703, 6_803, 3_174, 772, 4_599, 2_894]
        );
    }

    #[test]
    fn all_rows_within_15_percent_of_paper() {
        for row in &ROWS {
            let t = row.measure();
            let lo = (row.paper_band.0 as f64 * 0.85) as u64;
            let hi = (row.paper_band.1 as f64 * 1.15) as u64;
            assert!(
                (lo..=hi).contains(&t.as_ns()),
                "{}: measured {t} outside paper band {:?}",
                row.label,
                row.paper_band
            );
        }
    }

    #[test]
    fn open_decision_anchors() {
        let base = open_decision(Placement::Offloaded, OptLevel::none());
        let wb = open_decision(Placement::Offloaded, OptLevel::nic_wb());
        assert!(base.as_ns().abs_diff(1_013) < 150, "base {base}");
        assert!(wb.as_ns().abs_diff(426) < 100, "wb {wb}");
    }

    #[test]
    fn each_context_switch_takes_its_rows_path() {
        // A prestaged row must find B in the slot on A's idle transition;
        // the others must park and wait for the agent's MSI-X. A B that
        // arrived before A started would silently take the slow path.
        for row in ROWS.iter().filter(|r| r.path == Path::ContextSwitch) {
            let (_, diag) = context_switch(row.placement, row.opts);
            let hit = u64::from(row.opts.prestage);
            assert_eq!(diag.complete_hit, hit, "{}: {diag:?}", row.label);
            assert_eq!(diag.commit_fail, 0, "{}", row.label);
        }
    }

    #[test]
    fn optimization_order_is_monotone() {
        let rung = |opts| context_switch(Placement::Offloaded, opts).0;
        let ladder = OptLevel::ablation_ladder().map(|(_, opts)| rung(opts));
        assert!(ladder.windows(2).all(|w| w[0] > w[1]), "{ladder:?}");
    }

    #[test]
    fn onhost_faster_than_offloaded() {
        let on = context_switch(Placement::OnHost, OptLevel::full()).0;
        let off = context_switch(Placement::Offloaded, OptLevel::full()).0;
        assert!(on < off, "on-host {on} must beat offloaded {off}");
    }

    #[test]
    fn all_rows_close_to_paper() {
        let r = report();
        assert_eq!(r.rows.len(), 9);
        for row in &r.rows {
            let ratio = row.ratio().expect("Table 3 anchors are non-zero");
            assert!((0.8..=1.2).contains(&ratio), "{} ratio {ratio}", row.label);
        }
    }
}
