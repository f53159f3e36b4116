//! Table 3 microbenchmarks: the single-decision scheduling paths.
//!
//! The paper measures two quantities per configuration:
//!
//! 1. **"Open a decision in agent & send MSI-X"** — the agent-side cost
//!    of writing one decision into SmartNIC memory and kicking the host.
//! 2. **"Context switch overhead on host"** — thread blocks → next
//!    thread running, across the full communication path.
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

use wave_core::runtime::{AgentRuntime, RuntimeConfig, SlotId};
use wave_core::txn::TxnId;
use wave_core::{AgentId, OptLevel};
use wave_pcie::{Interconnect, MsixSendPath, MsixVector, PcieConfig};
use wave_queue::Transport;
use wave_sim::cpu::{CoreClass, CpuModel, WorkloadClass};
use wave_sim::SimTime;

use crate::cost::CostModel;
use crate::msg::{CpuId, SchedMsg, SchedMsgKind, Tid};
use crate::sim::Placement;
use crate::slots::SlotDecision;

/// One measured row.
#[derive(Debug, Clone, PartialEq)]
pub struct MicrobenchRow {
    /// Row label matching the paper's table.
    pub label: &'static str,
    /// Measured duration.
    pub measured: SimTime,
    /// The paper's reported band (low, high).
    pub paper_band: (u64, u64),
}

impl MicrobenchRow {
    /// Whether the measurement falls within `slack` (relative) of the
    /// paper band.
    pub fn within(&self, slack: f64) -> bool {
        let lo = (self.paper_band.0 as f64 * (1.0 - slack)) as u64;
        let hi = (self.paper_band.1 as f64 * (1.0 + slack)) as u64;
        (lo..=hi).contains(&self.measured.as_ns())
    }
}

/// The single-agent runtime behind every Table 3 row.
type Runtime = AgentRuntime<SchedMsg, SlotDecision>;

/// A 64-entry MMIO message queue and two decision slots, on the
/// placement's interconnect and agent core.
fn test_rig(placement: Placement, opts: OptLevel) -> (Interconnect, Runtime, CostModel) {
    let (pcfg, agent_core) = match placement {
        Placement::OnHost => (PcieConfig::host_local(), CoreClass::HostX86),
        Placement::Offloaded => (PcieConfig::pcie(), CoreClass::NicArm),
    };
    let mut ic = Interconnect::new(pcfg);
    let cost = CostModel::calibrated();
    let rcfg = RuntimeConfig {
        queue_capacity: 64,
        msg_words: cost.msg_words,
        decision_words: cost.decision_words,
        slots: 2,
        msg_transport: Transport::Mmio,
        wire_bytes_per_msg: None,
        msg_pte: opts.message_queue_pte(),
        decision_pte: opts.decision_queue_pte(),
        soc_pte: opts.soc_pte(),
        pickup: SimTime::from_ns(cost.agent_pickup_ns),
    };
    let rt = AgentRuntime::new(
        &mut ic,
        AgentId(0),
        agent_core,
        CpuModel::mount_evans(),
        &rcfg,
    );
    (ic, rt, cost)
}

fn decision() -> SlotDecision {
    SlotDecision {
        txn: TxnId(1),
        tid: Tid(1),
        target: wave_core::txn::ResourceRef {
            resource: 1,
            generation: 0,
        },
    }
}

/// Host side of a block: sends the `Blocked` message for `cpu` and fences
/// it toward the agent. Returns the host CPU cost.
fn send_blocked(rt: &mut Runtime, ic: &mut Interconnect, now: SimTime, cpu: CpuId) -> SimTime {
    let msg = SchedMsg::new(Tid(9), SchedMsgKind::Blocked, Some(cpu));
    let (send, delivered) = rt.host_send(now, ic, msg);
    assert!(delivered, "a 64-entry queue has room for one message");
    send + rt.host_flush(now + send, ic)
}

/// Measures "open a decision in agent & send MSI-X" for a placement and
/// optimization level.
pub fn open_decision(placement: Placement, opts: OptLevel) -> SimTime {
    let (mut ic, mut rt, _cost) = test_rig(placement, opts);
    let t0 = SimTime::from_us(10);
    let mut cost = rt.stage(t0, &mut ic, SlotId(0), decision());
    let side = match placement {
        Placement::OnHost => wave_pcie::config::Side::Host,
        Placement::Offloaded => wave_pcie::config::Side::Nic,
    };
    let d = ic
        .msix
        .send(t0 + cost, MsixVector(0), MsixSendPath::Ioctl, side);
    cost += d.sender_cpu;
    cost
}

/// Measures the host context-switch overhead: thread blocks at `t0`,
/// returns the elapsed time until the next thread is running.
///
/// The agent is idle with one runnable thread queued, matching the
/// paper's microbenchmark setup. When `opts.prestage` is set the decision
/// is already staged before the block (the fast path); otherwise the
/// host must wait for the agent round trip.
pub fn context_switch(placement: Placement, opts: OptLevel) -> SimTime {
    let (mut ic, mut rt, cost_model) = test_rig(placement, opts);
    let cpu_model = CpuModel::mount_evans();
    let offloaded = placement == Placement::Offloaded;
    let agent_core = rt.agent().core();
    let side = match placement {
        Placement::OnHost => wave_pcie::config::Side::Host,
        Placement::Offloaded => wave_pcie::config::Side::Nic,
    };
    let policy_ratio = cpu_model.ratio(agent_core, WorkloadClass::ComputeBound);
    let policy_compute = SimTime::from_ns(100).scale(policy_ratio);

    let t0 = SimTime::from_us(50);
    let cpu = CpuId(0);

    if opts.prestage {
        // Agent staged the next decision earlier.
        rt.stage(SimTime::from_us(1), &mut ic, SlotId(cpu.0), decision());
        // Fast path: prefetch, kernel bookkeeping + message, consume,
        // commit, switch.
        let mut t = t0;
        if opts.prefetch {
            t += rt.slots().host_prefetch(t, &mut ic, SlotId(cpu.0));
        }
        t += cost_model.kernel_event();
        t += send_blocked(&mut rt, &mut ic, t, cpu);
        let (c, got) = rt.slots().host_consume(t, &mut ic, SlotId(cpu.0));
        t += c;
        assert!(got.is_some(), "prestaged decision must be found");
        t += cost_model.commit_path(offloaded);
        t += cost_model.kernel_switch();
        return t - t0;
    }

    // Slow path: block -> message -> agent -> decision -> MSI-X -> IRQ ->
    // read -> commit -> switch.
    let mut t = t0 + cost_model.kernel_event();
    t += send_blocked(&mut rt, &mut ic, t, cpu);
    let visible = t + ic.one_way();

    // Agent: pickup + poll + policy + stage + MSI-X.
    let mut agent_t = rt.arm_pump(visible).expect("no pump in flight");
    rt.pump_fired();
    let polled = rt.poll(agent_t, &mut ic, 4);
    assert_eq!(polled.items.len(), 1);
    agent_t += polled.cpu;
    agent_t += ic.soc.access(opts.soc_pte(), cost_model.agent_state_words);
    agent_t += policy_compute;
    agent_t += rt.stage(agent_t, &mut ic, SlotId(cpu.0), decision());
    let d = ic
        .msix
        .send(agent_t, MsixVector(0), MsixSendPath::Ioctl, side);

    // Host IRQ: coherence flush + read + commit + switch.
    let mut h = d.handler_at;
    h += rt.slots().host_invalidate(h, &mut ic, SlotId(cpu.0));
    let (c, got) = rt.slots().host_consume(h, &mut ic, SlotId(cpu.0));
    h += c;
    assert!(got.is_some(), "decision must be visible after the IRQ");
    h += cost_model.commit_path(offloaded);
    h += cost_model.kernel_switch();
    h - t0
}

/// Runs all Table 3 rows and returns them with the paper's bands.
pub fn table3() -> Vec<MicrobenchRow> {
    vec![
        MicrobenchRow {
            label: "offloaded: open decision + MSI-X (baseline)",
            measured: open_decision(Placement::Offloaded, OptLevel::none()),
            paper_band: (1_013, 1_013),
        },
        MicrobenchRow {
            label: "offloaded: open decision + MSI-X (SoC WB PTEs)",
            measured: open_decision(Placement::Offloaded, OptLevel::nic_wb()),
            paper_band: (426, 426),
        },
        MicrobenchRow {
            label: "offloaded: context switch (baseline)",
            measured: context_switch(Placement::Offloaded, OptLevel::none()),
            paper_band: (13_310, 13_530),
        },
        MicrobenchRow {
            label: "offloaded: context switch (+SoC WB PTEs)",
            measured: context_switch(Placement::Offloaded, OptLevel::nic_wb()),
            paper_band: (9_940, 10_160),
        },
        MicrobenchRow {
            label: "offloaded: context switch (+host WC/WT PTEs)",
            measured: context_switch(Placement::Offloaded, OptLevel::host_pte()),
            paper_band: (6_100, 6_910),
        },
        MicrobenchRow {
            label: "offloaded: context switch (+prestage & prefetch)",
            measured: context_switch(Placement::Offloaded, OptLevel::full()),
            paper_band: (3_320, 4_040),
        },
        MicrobenchRow {
            label: "on-host: open decision + interrupt",
            measured: open_decision(Placement::OnHost, OptLevel::full()),
            paper_band: (770, 770),
        },
        MicrobenchRow {
            label: "on-host: context switch (baseline)",
            measured: context_switch(Placement::OnHost, OptLevel::host_pte()),
            paper_band: (4_380, 4_990),
        },
        MicrobenchRow {
            label: "on-host: context switch (prestaged)",
            measured: context_switch(Placement::OnHost, OptLevel::full()),
            paper_band: (2_350, 3_260),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn print_table3_calibration() {
        for row in table3() {
            println!(
                "{:55} measured {:>8} paper {:>6}-{:<6} {}",
                row.label,
                row.measured.as_ns(),
                row.paper_band.0,
                row.paper_band.1,
                if row.within(0.15) { "OK" } else { "OFF" }
            );
        }
    }

    #[test]
    fn open_decision_anchors() {
        let base = open_decision(Placement::Offloaded, OptLevel::none());
        let wb = open_decision(Placement::Offloaded, OptLevel::nic_wb());
        assert!(
            (base.as_ns() as i64 - 1_013).unsigned_abs() < 150,
            "base {base}"
        );
        assert!((wb.as_ns() as i64 - 426).unsigned_abs() < 100, "wb {wb}");
    }

    #[test]
    fn optimization_order_is_monotone() {
        let l0 = context_switch(Placement::Offloaded, OptLevel::none());
        let l1 = context_switch(Placement::Offloaded, OptLevel::nic_wb());
        let l2 = context_switch(Placement::Offloaded, OptLevel::host_pte());
        let l3 = context_switch(Placement::Offloaded, OptLevel::full());
        assert!(l0 > l1 && l1 > l2 && l2 > l3, "{l0} {l1} {l2} {l3}");
    }

    #[test]
    fn table3_is_pinned_to_the_ns() {
        // The ±15% band below cannot tell a rig or cost-model change
        // from a faithful port; this golden can.
        let measured: Vec<u64> = table3().iter().map(|r| r.measured.as_ns()).collect();
        assert_eq!(
            measured,
            [1_012, 428, 13_980, 10_841, 6_941, 3_174, 772, 4_747, 2_894]
        );
    }

    #[test]
    fn all_rows_within_15_percent_of_paper() {
        for row in table3() {
            assert!(
                row.within(0.15),
                "{}: measured {} outside paper band {:?}",
                row.label,
                row.measured,
                row.paper_band
            );
        }
    }

    #[test]
    fn onhost_faster_than_offloaded() {
        let on = context_switch(Placement::OnHost, OptLevel::full());
        let off = context_switch(Placement::Offloaded, OptLevel::full());
        assert!(on < off, "on-host {on} must beat offloaded {off}");
    }
}
