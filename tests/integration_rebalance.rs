//! The dynamic-rebalancing acceptance scenario, end to end across the
//! crates: a 4:1 skewed load on both sharded agents, rebalancing on —
//! the per-shard load-rate spread must shrink across epochs and
//! end-to-end throughput must be at least the static-shard baseline.
//! (The bit-identity of `rebalance: off` is pinned separately in
//! `integration_sharding.rs` and `integration_memmgr_runtime.rs`.)

use wave::core::{OptLevel, RebalanceConfig};
use wave::ghost::policies::FifoPolicy;
use wave::ghost::sim::{Placement, SchedConfig, SchedReport, SchedSim};
use wave::kvstore::{AccessPattern, DbFootprint, FootprintConfig};
use wave::memmgr::{RunnerConfig, ShardedSolRunner, SolConfig};
use wave::sim::cpu::{CoreClass, CpuModel};
use wave::sim::SimTime;

/// 8 workers over 2 agents, wakeups routed 4:1 — the overloaded
/// shard's slice saturates while its sibling idles.
fn skewed_sched(rebalance: bool) -> SchedReport {
    let mut c = SchedConfig::new(8, Placement::Offloaded, OptLevel::full());
    c.agents = 2;
    c.workload.set_offered(330_000.0);
    c.duration = SimTime::from_ms(150);
    c.warmup = SimTime::from_ms(20);
    c.wakeup_weights = Some(vec![4, 1]);
    if rebalance {
        c.rebalance = Some(RebalanceConfig::every(SimTime::from_ms(10)));
    }
    SchedSim::with_policy_factory(c, |_| Box::new(FifoPolicy::new())).run()
}

#[test]
fn scheduler_spread_shrinks_and_throughput_beats_static() {
    let dynamic = skewed_sched(true);
    let fixed = skewed_sched(false);

    // Cores moved toward the demand, and only in that direction.
    assert!(dynamic.diag.rebalance_moves > 0, "4:1 skew moved no cores");
    for e in &dynamic.rebalance {
        for m in &e.moves {
            assert_eq!(m.to, 0, "every move feeds the loaded shard");
        }
    }
    // Per-core decision-rate spread shrinks from its peak to the final
    // epoch (raw rates stay 4:1 by construction — that is the offered
    // skew, not unfairness).
    let peak = dynamic
        .rebalance
        .iter()
        .map(|e| e.per_resource_spread())
        .fold(0.0f64, f64::max);
    let last = dynamic
        .rebalance
        .last()
        .expect("epochs fired")
        .per_resource_spread();
    assert!(
        last < peak,
        "spread did not shrink: peak {peak:.3} last {last:.3}"
    );
    // End-to-end throughput at least the static baseline.
    assert!(
        dynamic.completed >= fixed.completed,
        "dynamic {} vs static {}",
        dynamic.completed,
        fixed.completed
    );
}

/// K=2 over a half-ambivalent batch space: shard 0's batches rescan
/// every period, shard 1's go quiet — a ~4:1 scan-rate skew once the
/// posteriors converge.
fn skewed_mem(rebalance: bool) -> (ShardedSolRunner, u64, SimTime) {
    let fp = DbFootprint::new(
        FootprintConfig::skewed(0.002, 0.5),
        AccessPattern::Scattered,
        3,
    );
    let mut runner = ShardedSolRunner::new(
        RunnerConfig::paper(CoreClass::NicArm, 16),
        CpuModel::mount_evans(),
        2,
        SolConfig::paper(),
        fp.batches(),
        4,
    );
    if rebalance {
        runner = runner.with_rebalance(RebalanceConfig::every(SimTime::from_ms(1_800)));
    }
    let mut scanned = 0u64;
    let mut wall = SimTime::ZERO;
    for it in 0..20u64 {
        let now = SimTime::from_ms(600 * it);
        let (s, c) = runner.run_iteration(&fp, now);
        scanned += s.scanned;
        wall += c.wall();
        runner.maybe_rebalance(now);
    }
    (runner, scanned, wall)
}

#[test]
fn memory_agent_spread_shrinks_and_throughput_beats_static() {
    let (dynamic, d_scanned, d_wall) = skewed_mem(true);
    let (_, s_scanned, s_wall) = skewed_mem(false);

    let history = dynamic.rebalance_history();
    assert!(
        history.iter().any(|e| !e.moves.is_empty()),
        "skewed scan load moved no batches"
    );
    for e in history {
        for m in &e.moves {
            assert_eq!((m.from, m.to), (0, 1), "every move sheds the busy shard");
        }
    }
    // Raw scan-rate spread shrinks from its peak (ShedLoad equalizes
    // the load itself).
    let peak = history.iter().map(|e| e.spread()).fold(0.0f64, f64::max);
    let last = history.last().unwrap().spread();
    assert!(
        last < peak,
        "spread did not shrink: peak {peak:.3} last {last:.3}"
    );
    // Scan throughput (batches per critical-path time) beats static.
    let d_rate = d_scanned as f64 / d_wall.as_ns() as f64;
    let s_rate = s_scanned as f64 / s_wall.as_ns() as f64;
    assert!(
        d_rate > s_rate,
        "dynamic {d_rate:.5} vs static {s_rate:.5} batches/ns"
    );
    // The map's generation advanced once per committed epoch.
    let commits = history.iter().filter(|e| !e.moves.is_empty()).count() as u64;
    assert_eq!(dynamic.shard_map().generation(), commits);
}

#[test]
fn memory_agent_rebalance_history_is_deterministic() {
    // Same seed + same skew ⇒ identical generation-stamped move
    // history and identical end-to-end results (the scheduler-side
    // twin lives in `integration_sharding.rs`).
    let (a, sa, wa) = skewed_mem(true);
    let (b, sb, wb) = skewed_mem(true);
    assert_eq!(a.rebalance_history(), b.rebalance_history());
    assert_eq!(a.shard_map(), b.shard_map());
    assert_eq!((sa, wa), (sb, wb));
    assert_eq!(a.per_shard_shipped(), b.per_shard_shipped());
}

#[test]
fn memory_agent_runtimes_span_the_batch_space_across_resizes() {
    // A decision slot is addressed by global batch id and a shard's
    // runtime lives as long as the shard: neither a rebalance epoch nor
    // a kill/restart lending cycle may resize or rebuild it. Checked at
    // both moments: every shard's slot table spans the whole batch
    // space, and its decision count never resets.
    let fp = DbFootprint::new(
        FootprintConfig::skewed(0.002, 0.5),
        AccessPattern::Scattered,
        3,
    );
    let mut runner = ShardedSolRunner::new(
        RunnerConfig::paper(CoreClass::NicArm, 16),
        CpuModel::mount_evans(),
        2,
        SolConfig::paper(),
        fp.batches(),
        4,
    )
    .with_rebalance(RebalanceConfig::every(SimTime::from_ms(1_800)));
    let total = runner.total_batches();
    let mut seen = [0u64; 2];
    let mut check = |runner: &ShardedSolRunner, moment: &str| {
        for (i, last) in seen.iter_mut().enumerate() {
            let rt = runner.shard_runtime(i as u32).expect("built");
            assert_eq!(rt.slots_ref().len(), total, "{moment}: shard {i} slots");
            assert!(rt.decisions() >= *last, "{moment}: shard {i} count reset");
            *last = rt.decisions();
        }
        seen.iter().sum::<u64>()
    };

    // Moment 1: an epoch moves batches; the next iteration scans the
    // adopted batches into the same tables.
    let mut now = SimTime::ZERO;
    loop {
        runner.run_iteration(&fp, now);
        let moved = runner
            .maybe_rebalance(now)
            .is_some_and(|e| !e.moves.is_empty());
        now += SimTime::from_ms(600);
        if moved {
            break;
        }
        assert!(now < SimTime::from_secs(12), "skewed load moved no batches");
    }
    let before = check(&runner, "before the move");
    runner.run_iteration(&fp, now);
    assert!(check(&runner, "after the move") > before);

    // Moment 2: a dead shard lends its batches to the survivor, and a
    // restart takes them back.
    runner.kill_shard(1);
    now += SimTime::from_ms(600);
    runner.run_iteration(&fp, now);
    let lent = check(&runner, "while lent");
    assert!(lent > before);
    runner.restart_shard(1, now);
    now += SimTime::from_ms(600);
    runner.run_iteration(&fp, now);
    assert!(check(&runner, "after restart") > lent);
}
