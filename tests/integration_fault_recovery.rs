//! Fault injection: the §3.3 watchdog and the §6 "keep fault recovery
//! simple" story — an agent dies, the watchdog kills it, a restarted
//! agent re-pulls non-policy state from the host (the source of truth)
//! and the system keeps working. Covers both a scheduler-style agent
//! runtime and one shard of the K-sharded memory manager.

use std::collections::BTreeSet;

use wave::core::runtime::{AgentRuntime, RuntimeConfig, SlotId};
use wave::core::{OptLevel, Watchdog};
use wave::ghost::{SloClass, ThreadTable, Tid};
use wave::kvstore::{AccessPattern, DbFootprint, FootprintConfig};
use wave::memmgr::{RunnerConfig, ShardedSolRunner, SolConfig};
use wave::pcie::config::Side;
use wave::pcie::{Interconnect, MsixSendPath, MsixVector};
use wave::queue::Transport;
use wave::sim::cpu::{CoreClass, CpuModel};
use wave::sim::SimTime;

/// A scheduler-style agent runtime over four cores; a decision is the
/// thread id to run, which carries the generation the agent observed.
fn sched_runtime(ic: &mut Interconnect) -> AgentRuntime<Tid, Tid> {
    let opts = OptLevel::full();
    let cfg = RuntimeConfig {
        queue_capacity: 1024,
        msg_words: 4,
        decision_words: 6,
        slots: 4,
        msg_transport: Transport::Mmio,
        wire_bytes_per_msg: None,
        msg_pte: opts.message_queue_pte(),
        decision_pte: opts.decision_queue_pte(),
        soc_pte: opts.soc_pte(),
        pickup: SimTime::from_ns(100),
    };
    AgentRuntime::new(ic, &cfg)
}

/// Admits a thread into the host kernel's arena.
fn spawn(kernel: &mut ThreadTable) -> Tid {
    kernel.insert(SimTime::from_us(10), SimTime::ZERO, SloClass::DEFAULT)
}

/// Host side of a commit at `at`: flush the slot's cached line, read the
/// decision, and commit it only if the id still resolves in the arena at
/// the generation it carries. Returns whether it committed.
fn consume(
    rt: &mut AgentRuntime<Tid, Tid>,
    ic: &mut Interconnect,
    kernel: &ThreadTable,
    at: SimTime,
    slot: SlotId,
) -> bool {
    let flush = rt.slots().host_invalidate(at, ic, slot);
    let (_, got) = rt.slots().host_consume(at + flush, ic, slot);
    kernel.contains(got.expect("the clflush exposes the staged decision"))
}

/// Agent side of a commit: stage a decision for `tid` into `slot` and
/// kick the host. Returns when the host's MSI-X handler runs.
fn commit(
    rt: &mut AgentRuntime<Tid, Tid>,
    ic: &mut Interconnect,
    now: SimTime,
    slot: SlotId,
    tid: Tid,
) -> SimTime {
    let staged = now + rt.stage(now, ic, slot, tid);
    rt.record_decision();
    ic.msix
        .send(staged, MsixVector(slot.0), MsixSendPath::Ioctl, Side::Nic)
        .handler_at
}

#[test]
fn watchdog_kills_silent_agent_and_restart_recovers() {
    let mut ic = Interconnect::pcie();
    let mut rt = sched_runtime(&mut ic);
    let mut wd = Watchdog::scheduler_default();

    // Host kernel is the source of truth for thread state.
    let mut kernel = ThreadTable::new();
    let tids: Vec<Tid> = (0..10).map(|_| spawn(&mut kernel)).collect();

    // The agent works normally for a while...
    let t1 = SimTime::from_ms(1);
    let irq = commit(&mut rt, &mut ic, t1, SlotId(0), tids[3]);
    wd.heartbeat(t1);
    assert!(consume(&mut rt, &mut ic, &kernel, irq, SlotId(0)));
    assert!(!wd.expired(SimTime::from_ms(5)));

    // ...stages a decision for thread 5 on core 1 that the host has not
    // read yet, then goes silent (fault injection). No more heartbeats.
    let t2 = SimTime::from_ms(2);
    rt.stage(t2, &mut ic, SlotId(1), tids[5]);
    let t_detect = SimTime::from_ms(25);
    assert!(
        wd.expired(t_detect),
        "silence past 20 ms must trip the watchdog"
    );
    assert!(wd.fire(), "first firing kills the agent");
    rt.kill();
    assert!(!rt.is_running());

    // While the agent is dead, thread 5 exits and a new thread reuses
    // its arena slot under the next generation.
    assert!(kernel.remove(tids[5]));
    let reused = spawn(&mut kernel);
    assert_eq!(reused.slot(), tids[5].slot());
    assert_ne!(reused, tids[5]);

    // Operator restarts the agent; it re-pulls state from the kernel
    // (the live thread ids) rather than from any checkpoint.
    let t_restart = SimTime::from_ms(30);
    rt.restart(t_restart);
    wd.rearm(t_restart);
    assert!(rt.is_running());
    assert!(!wd.expired(SimTime::from_ms(45)));

    // The restarted agent can immediately make valid decisions: state
    // re-pulled from the host validates.
    let irq = commit(&mut rt, &mut ic, t_restart, SlotId(0), tids[3]);
    assert!(consume(&mut rt, &mut ic, &kernel, irq, SlotId(0)));

    // The decision staged before the crash still sits in core 1's slot.
    // The host reads it on core 1's next idle transition and must reject
    // it, not enforce it: thread 5 exited while the agent was down, and
    // its slot now holds another thread.
    assert!(rt.slots_ref().is_staged(SlotId(1)));
    let idle = irq + SimTime::from_us(10);
    assert!(!consume(&mut rt, &mut ic, &kernel, idle, SlotId(1)));
    // The thread that reused the slot commits under its own id.
    let irq = commit(&mut rt, &mut ic, idle, SlotId(1), reused);
    assert!(consume(&mut rt, &mut ic, &kernel, irq, SlotId(1)));
}

#[test]
fn watchdog_kills_one_memory_shard_and_host_replays_unshipped_flips() {
    // The memory-manager counterpart of the scheduler scenario above,
    // now expressible because the batch space is partitioned across K
    // runtimes: kill ONE of K shards mid-epoch, verify the blast
    // radius is exactly its batch slice, and verify the restart path
    // replays the migration decisions the host lost — re-derived from
    // the page tables (the source of truth), not from a checkpoint.
    let fp = DbFootprint::new(FootprintConfig::paper(0.001), AccessPattern::Scattered, 3);
    let mut sharded = ShardedSolRunner::new(
        RunnerConfig::paper(CoreClass::NicArm, 16),
        CpuModel::mount_evans(),
        2,
        SolConfig::paper(),
        fp.batches(),
        4,
    );
    let mut wd = Watchdog::scheduler_default();

    // First scan at t=0: both shards work, ship their hot→cold flips,
    // and the watchdog sees liveness.
    let t0 = SimTime::ZERO;
    let (stats, _) = sharded.run_iteration(&fp, t0);
    assert_eq!(stats.scanned as usize, fp.batches());
    wd.heartbeat(t0);
    let slice1 = sharded.shard_batches(1);
    let lost_flips: BTreeSet<u32> = sharded
        .last_shipment(1)
        .filter(|d| !d.hot)
        .map(|d| d.batch)
        .collect();
    assert!(!lost_flips.is_empty(), "shard 1 shipped cold flips");

    // ...then shard 1 goes silent mid-epoch. Past 20 ms of silence the
    // watchdog trips and kills it.
    let t_detect = SimTime::from_ms(25);
    assert!(
        wd.expired(t_detect),
        "silence past 20 ms trips the watchdog"
    );
    assert!(wd.fire(), "first firing kills the agent");
    sharded.kill_shard(1);
    assert!(!sharded.is_shard_running(1));
    assert!(!sharded.shard_runtime(1).is_running());
    // dma_ship_staged drains the outbox atomically at the end of every
    // iteration, so the crash strands nothing in SmartNIC DRAM.
    let rt = sharded.shard_runtime(1);
    assert_eq!(rt.staged_count(), 0, "no half-shipped decisions");

    // Mid-epoch iteration with the dead shard: shard 0 keeps managing
    // its slice, shard 1's slice goes unscanned — containment.
    let shipped_before = sharded.per_shard_shipped();
    sharded.run_iteration(&fp, SimTime::from_ms(600));
    let shipped_mid = sharded.per_shard_shipped();
    assert_eq!(shipped_mid[1], shipped_before[1], "dead shard is silent");

    // Operator restarts the shard; the watchdog re-arms. The restarted
    // agent re-pulls a fresh prior over its slice (no checkpoint), so
    // every batch of the slice is due at the next scan.
    let t_restart = SimTime::from_ms(1200);
    sharded.restart_shard(1, t_restart);
    wd.rearm(t_restart);
    assert!(sharded.is_shard_running(1));
    assert!(sharded.shard_runtime(1).is_running());
    assert!(!wd.expired(SimTime::from_ms(1215)));

    let (stats, _) = sharded.run_iteration(&fp, t_restart);
    assert!(
        stats.scanned as usize >= slice1.len(),
        "restart rescans the whole lost slice"
    );
    let replayed: BTreeSet<u32> = sharded
        .last_shipment(1)
        .filter(|d| !d.hot)
        .map(|d| d.batch)
        .collect();
    // The replay re-derives the lost decisions from the access bits:
    // every replayed flip lands in shard 1's slice, and the bulk of the
    // genuinely-cold batches the host lost are shipped again. (Thompson
    // sampling is probabilistic per scan, so a fresh prior re-flips
    // ~3/4 of the truly cold batches on the first observation — the
    // seeded run below re-ships well over half of them.)
    assert!(replayed.iter().all(|&b| slice1.contains(&(b as usize))));
    let reshipped = lost_flips.intersection(&replayed).count();
    assert!(
        reshipped * 2 > lost_flips.len(),
        "replay covered {reshipped}/{} of the lost flips",
        lost_flips.len()
    );
    // Shard 0 was never disturbed: it kept shipping throughout.
    assert!(sharded.per_shard_shipped()[0] >= shipped_mid[0]);
}

#[test]
fn rebalance_keeps_running_masked_through_a_kill_restart_cycle() {
    // Faults and rebalancing compose. The front third of the batch
    // space is ambivalent (rescans every period) — shard 0's slice,
    // exactly — while the rest goes quiet, so shard 0 of 3 does most
    // of the scan work. Kill the quietest shard mid-run and the
    // deployment must (a) lend the corpse's slice to the live pair so
    // no batch goes unmanaged, (b) keep running rebalance epochs with
    // the corpse masked out of the planner, and (c) hand the slice
    // back on restart — even if an interim epoch moved a lent batch
    // onward (the ShedLoad planner moves the donor's highest-index
    // batches first, which after the lending *are* lent batches).
    use wave::core::RebalanceConfig;
    let fp = DbFootprint::new(
        FootprintConfig::skewed(0.001, 0.34),
        AccessPattern::Scattered,
        3,
    );
    let mut sharded = ShardedSolRunner::new(
        RunnerConfig::paper(CoreClass::NicArm, 16),
        CpuModel::mount_evans(),
        3,
        SolConfig::paper(),
        fp.batches(),
        4,
    )
    .with_rebalance(RebalanceConfig::every(SimTime::from_ms(600)));

    sharded.run_iteration(&fp, SimTime::ZERO);
    let slice2 = sharded.shard_batches(2);
    assert!(!slice2.is_empty());

    // Watchdog kills shard 2; its slice is lent to the live pair.
    sharded.kill_shard(2);
    assert!(sharded.shard_batches(2).is_empty(), "corpse owns nothing");
    assert_eq!(
        sharded.shard_batches(0).len() + sharded.shard_batches(1).len(),
        fp.batches(),
        "the live pair covers the whole batch space"
    );

    // Rebalance epochs keep firing with the corpse masked out, and the
    // persistent skew between the live pair still gets acted on.
    let mut moved = 0usize;
    for it in 1..=6u64 {
        let t = SimTime::from_ms(600 * it);
        sharded.run_iteration(&fp, t);
        let e = sharded
            .maybe_rebalance(t)
            .expect("epochs continue while a shard is down");
        assert!(
            e.moves.iter().all(|m| m.from != 2 && m.to != 2),
            "ownership never moves onto or off the corpse: {:?}",
            e.moves
        );
        moved += e.moves.len();
    }
    assert!(moved > 0, "the live pair still rebalances");

    // Restart: every lent batch comes home — reclaimed from whichever
    // shard holds it now — and the partition is exact again.
    let t_restart = SimTime::from_ms(4_200);
    sharded.restart_shard(2, t_restart);
    assert_eq!(sharded.shard_batches(2), slice2, "the slice came home");
    let total: usize = (0..3).map(|s| sharded.shard_batches(s).len()).sum();
    assert_eq!(total, fp.batches(), "no batch lost or duplicated");
    let (stats, _) = sharded.run_iteration(&fp, t_restart);
    assert!(
        stats.scanned as usize >= slice2.len(),
        "restart rescans the reclaimed slice"
    );
    // The restarted shard rejoins the rebalancing pool.
    assert!(sharded.maybe_rebalance(t_restart).is_some());
}

#[test]
fn stale_transactions_fail_cleanly_across_restart() {
    // A decision staged by the dead agent against state that changed
    // while it was down must fail validation — never corrupt the kernel.
    let mut ic = Interconnect::pcie();
    let mut rt = sched_runtime(&mut ic);
    let mut kernel = ThreadTable::new();
    let stale = spawn(&mut kernel);
    rt.stage(SimTime::from_ms(1), &mut ic, SlotId(0), stale);
    rt.kill();
    // While the agent was dead, the thread exited and a new one reused
    // its arena slot.
    assert!(kernel.remove(stale));
    let fresh = spawn(&mut kernel);
    assert_eq!(fresh.slot(), stale.slot());
    rt.restart(SimTime::from_ms(30));
    assert!(!consume(
        &mut rt,
        &mut ic,
        &kernel,
        SimTime::from_ms(31),
        SlotId(0)
    ));
    assert!(
        kernel.contains(fresh),
        "the failed commit left the kernel alone"
    );
}
