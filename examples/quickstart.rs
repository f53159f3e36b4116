//! Quickstart: one Wave decision round trip, end to end.
//!
//! Builds one agent runtime (a host→SmartNIC message queue plus a
//! decision slot per core), sends a kernel message, lets the agent stage
//! a decision and kick the host with an MSI-X, and has the host read the
//! decision and validate it against the kernel's generation table — the
//! paper's Fig. 2 lifecycle, printing every latency along the way.
//!
//! Run with: `cargo run --example quickstart`

use wave::core::runtime::{AgentRuntime, RuntimeConfig, SlotId};
use wave::core::{GenerationTable, OptLevel, ResourceRef};
use wave::ghost::CostModel;
use wave::pcie::config::Side;
use wave::pcie::{Interconnect, MsixSendPath, MsixVector};
use wave::queue::Transport;
use wave::sim::SimTime;

/// Runs the example end to end and returns the message→decision-read
/// latency of the MSI-X path (also exercised by `tests/examples_smoke.rs`).
pub fn run() -> SimTime {
    // The interconnect: calibrated to the paper's Table 2 (750 ns MMIO
    // reads, 1600 ns MSI-X end-to-end, ...).
    let mut ic = Interconnect::pcie();

    // Every PTE optimization: WC message queue, WT decision slots,
    // write-back SoC mappings. Nothing is prestaged, so the host learns
    // of the decision through the MSI-X path.
    let opts = OptLevel::host_pte();
    let cost = CostModel::calibrated();
    let cfg = RuntimeConfig {
        queue_capacity: 1024,
        msg_words: cost.msg_words,
        decision_words: cost.decision_words,
        slots: 1,
        msg_transport: Transport::Mmio,
        wire_bytes_per_msg: None,
        msg_pte: opts.message_queue_pte(),
        decision_pte: opts.decision_queue_pte(),
        soc_pte: opts.soc_pte(),
        pickup: SimTime::from_ns(cost.agent_pickup_ns),
    };
    // A decision names the thread to run and the generation the agent saw.
    let mut rt: AgentRuntime<u64, ResourceRef> = AgentRuntime::new(&mut ic, &cfg);
    let core = SlotId(0);

    // Host kernel state: thread 7 exists at generation 0.
    let mut kernel = GenerationTable::new();
    kernel.insert(7);

    // ❶ Thread 7 becomes runnable while core 0 idles; the host tells the
    // agent (SEND_MESSAGES).
    let t0 = SimTime::from_us(10);
    let (send_cpu, delivered) = rt.host_send(t0, &mut ic, 7);
    assert!(delivered, "queue has room");
    let send_cpu = send_cpu + rt.host_flush(t0 + send_cpu, &mut ic);
    let visible_at = rt.next_visible_at().expect("message in flight");
    println!("host: message sent in {send_cpu}, visible on the NIC at {visible_at}");

    // ❷-❹ The agent picks the message up (POLL_MESSAGES), stages "run
    // thread 7" into core 0's slot and kicks the host (TXNS_COMMIT).
    let pump_at = rt.arm_pump(visible_at).expect("no pump in flight");
    rt.pump_fired();
    let mut polled = Vec::new();
    let poll_cpu = rt.poll_into(pump_at, &mut ic, 8, &mut polled);
    println!(
        "agent: polled {} message(s) at {pump_at} in {poll_cpu}",
        polled.len()
    );
    let target = kernel.snapshot(polled[0]).expect("thread exists");
    let mut agent_t = pump_at + poll_cpu;
    agent_t += rt.stage(agent_t, &mut ic, core, target);
    rt.record_decision();
    let kick = ic
        .msix
        .send(agent_t, MsixVector(0), MsixSendPath::Ioctl, Side::Nic);
    println!(
        "agent: staged by {agent_t}, MSI-X lands at {}",
        kick.handler_at
    );

    // ❺-❻ Host IRQ handler: software coherence flush, read (POLL_TXNS),
    // validate against the kernel's generation table.
    let t_irq = kick.handler_at;
    let mut host_cpu = rt.slots().host_invalidate(t_irq, &mut ic, core);
    let (read_cpu, decision) = rt.slots().host_consume(t_irq + host_cpu, &mut ic, core);
    host_cpu += read_cpu;
    let decision = decision.expect("the clflush exposes the fresh decision");
    let outcome = kernel.validate(decision);
    println!(
        "host: read decision for thread {} in {host_cpu}, commit outcome: {outcome:?}",
        decision.resource
    );
    assert!(outcome.is_committed());

    let total = t_irq + host_cpu - t0;
    println!("\nmessage→decision-read latency (MSI-X path): {total}");
    total
}

fn main() {
    run();
}
