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
    // A decision's slot id is its global batch id and a shard's runtime
    // lives as long as the shard: neither a rebalance epoch nor a
    // kill/restart lending cycle may resize or rebuild it. Checked at
    // both moments: every live shard ships decisions for exactly the
    // batches it owns (including the ones it just adopted), and its
    // decision count never resets.
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
    let mut seen = [0u64; 2];
    // Runs one iteration; checks every live shard's shipment against
    // the map and returns, per shard, how many of `adopted`'s batches
    // it shipped.
    let mut iterate = |runner: &mut ShardedSolRunner, now, adopted: &[usize], moment: &str| {
        runner.run_iteration(&fp, now);
        let mut shipped_adopted = [0usize; 2];
        for (i, last) in seen.iter_mut().enumerate() {
            let shard = i as u32;
            let rt = runner.shard_runtime(shard).expect("built");
            assert!(rt.decisions() >= *last, "{moment}: shard {i} count reset");
            *last = rt.decisions();
            if !runner.is_shard_running(shard) {
                continue;
            }
            for d in runner.last_shipment(shard) {
                let b = d.batch as usize;
                assert_eq!(
                    runner.shard_map().owner(b),
                    shard,
                    "{moment}: shard {i} shipped batch {b} it does not own"
                );
                shipped_adopted[i] += adopted.contains(&b) as usize;
            }
        }
        (seen.iter().sum::<u64>(), shipped_adopted)
    };

    // Moment 1: an epoch moves batches; the next iteration scans the
    // adopted batches and their recipient ships decisions for them.
    let mut now = SimTime::ZERO;
    let (before, moves) = loop {
        let (before, _) = iterate(&mut runner, now, &[], "before the move");
        let moves = runner.maybe_rebalance(now).map(|e| e.moves);
        now += SimTime::from_ms(600);
        if let Some(moves) = moves.filter(|m| !m.is_empty()) {
            break (before, moves);
        }
        assert!(now < SimTime::from_secs(12), "skewed load moved no batches");
    };
    let adopted: Vec<usize> = moves.iter().map(|m| m.resource).collect();
    let to = moves[0].to as usize;
    assert!(moves.iter().all(|m| m.to as usize == to), "one recipient");
    let (after, shipped) = iterate(&mut runner, now, &adopted, "after the move");
    assert!(after > before);
    assert!(
        shipped[to] > 0,
        "the recipient shipped none of its adopted batches"
    );

    // Moment 2: a dead shard lends its batches to the survivor, and a
    // restart takes them back.
    let lent_ids = runner.shard_batches(1);
    runner.kill_shard(1);
    now += SimTime::from_ms(600);
    let (lent, shipped) = iterate(&mut runner, now, &lent_ids, "while lent");
    assert!(lent > after);
    assert!(
        shipped[0] > 0,
        "the survivor shipped none of the lent batches"
    );
    runner.restart_shard(1, now);
    now += SimTime::from_ms(600);
    let (restarted, shipped) = iterate(&mut runner, now, &lent_ids, "after restart");
    assert!(restarted > lent);
    assert!(
        shipped[1] > 0,
        "the restarted shard shipped none of its batches"
    );
}
