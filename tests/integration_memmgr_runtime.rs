//! Pins the memory agent's runtime-backed iteration to its goldens: the
//! §7.4.2 duration table (read off real single-agent iterations), the
//! single agent's (K=1) `IterationCost` breakdown (recaptured once,
//! deliberately, when the per-iteration DMA clock was retired), its
//! determinism, and the K=2 deployment's per-shard legs.

use wave::kvstore::{AccessPattern, DbFootprint, FootprintConfig};
use wave::memmgr::runner::{duration_table, RunnerConfig};
use wave::memmgr::{IterationCost, ShardedSolRunner, SolConfig, SolStats};
use wave::sim::cpu::{CoreClass, CpuModel};
use wave::sim::SimTime;

/// The §7.4.2 duration table exactly as the pre-refactor runner
/// produced it (ms, full f64 precision): `(cores, wave, on-host)`.
const GOLDEN_TABLE: [(u32, f64, f64); 5] = [
    (1, 1.017_800_141e3, 6.242_609_66e2),
    (2, 6.693_281_9e2, 4.567_263_74e2),
    (4, 4.950_922_14e2, 3.729_590_78e2),
    (8, 4.079_742_26e2, 3.310_754_3e2),
    (16, 3.644_152_32e2, 3.101_336_06e2),
];

#[test]
fn duration_table_pinned_to_pre_refactor_goldens() {
    let table = duration_table(&[1, 2, 4, 8, 16]);
    for ((cores, wave, onhost), (gc, gw, go)) in table.into_iter().zip(GOLDEN_TABLE) {
        let (wave, onhost) = (wave.total().as_ms_f64(), onhost.total().as_ms_f64());
        assert_eq!(cores, gc);
        assert!(
            (wave - gw).abs() < 1e-9,
            "{cores} cores wave {wave} != golden {gw}"
        );
        assert!(
            (onhost - go).abs() < 1e-9,
            "{cores} cores onhost {onhost} != golden {go}"
        );
    }
}

/// Drives the single agent (K=1, seed 4) through three paper-default
/// iterations (600 ms apart, 0.001 scale, NIC ARM × 16), exactly like
/// the pre-refactor capture run.
fn three_iterations() -> (Vec<SolStats>, Vec<IterationCost>, u64) {
    let fp = DbFootprint::new(FootprintConfig::paper(0.001), AccessPattern::Scattered, 3);
    let mut runner = ShardedSolRunner::new(
        RunnerConfig::paper(CoreClass::NicArm, 16),
        CpuModel::mount_evans(),
        1,
        SolConfig::paper(),
        fp.batches(),
        4,
    );
    let mut now = SimTime::ZERO;
    let mut stats = Vec::new();
    let mut costs = Vec::new();
    for _ in 0..3 {
        let (s, c) = runner.run_iteration(&fp, now);
        assert_eq!(c.per_shard.len(), 1);
        assert_eq!(c.wall(), c.per_shard[0].total());
        stats.push(s);
        costs.push(c.per_shard[0]);
        now += SimTime::from_ms(600);
    }
    (stats, costs, runner.shipped_decisions())
}

#[test]
fn iteration_costs_pinned_to_goldens() {
    // Golden `IterationCost` sequence (ns), recaptured when the
    // per-iteration DMA clock was retired: transport legs are now
    // issued at `now`, so with 600 ms between iterations the single
    // DMA engine has long drained and successive iterations no longer
    // queue behind each other — every iteration sees the same idle
    // engine, and dma_in is flat at the un-queued transfer time. (The
    // pre-fix goldens were [1_813, 366_767, 731_721]: each iteration's
    // transfer was issued at t=0 on its own clock and queued behind
    // *all* previous iterations' traffic, an artifact the fix
    // deliberately removes.) Policy-visible values (scanned, hot) are
    // untouched by the clock change.
    let golden_dma_in = [1_813u64, 1_813, 1_813];
    let golden_scanned = [417u64, 417, 417];
    let golden_hot = [135u64, 110, 98];
    let (stats, costs, shipped) = three_iterations();
    for i in 0..3 {
        assert_eq!(costs[i].dma_in.as_ns(), golden_dma_in[i], "iter {i} dma_in");
        assert_eq!(costs[i].scan.as_ns(), 318_917, "iter {i} scan");
        assert_eq!(costs[i].classify.as_ns(), 43_476, "iter {i} classify");
        assert_eq!(costs[i].dma_out.as_ns(), 898, "iter {i} dma_out");
        assert_eq!(stats[i].scanned, golden_scanned[i], "iter {i} scanned");
        assert_eq!(stats[i].hot, golden_hot[i], "iter {i} hot");
    }
    assert_eq!(costs[0].total().as_ns(), 365_104);
    // Captured from the bare single-agent runner the K=1 deployment
    // replaced.
    assert_eq!(shipped, 469, "decisions shipped over three iterations");
}

#[test]
fn runtime_backed_runner_is_deterministic() {
    let (s1, c1, shipped1) = three_iterations();
    let (s2, c2, shipped2) = three_iterations();
    assert_eq!(s1, s2);
    assert_eq!(c1, c2);
    assert_eq!(shipped1, shipped2);
    assert!(shipped1 > 0, "classification flips were staged and shipped");
}

#[test]
fn k2_sharded_rebalance_off_matches_pre_shardmap_goldens() {
    // Captured from the pre-ShardMap `ShardedSolRunner` (static
    // contiguous `shard_range` slices) immediately before the dynamic-
    // rebalancing refactor: per-shard cost legs (ns), merged stats, and
    // shipment counts of three paper-default iterations. Without
    // `with_rebalance` the map never changes and the run must be
    // bit-identical.
    let fp = DbFootprint::new(FootprintConfig::paper(0.001), AccessPattern::Scattered, 3);
    let mut sharded = ShardedSolRunner::new(
        RunnerConfig::paper(CoreClass::NicArm, 16),
        CpuModel::mount_evans(),
        2,
        SolConfig::paper(),
        fp.batches(),
        4,
    );
    let golden_hot = [127u64, 121, 98];
    let mut now = SimTime::ZERO;
    for (it, &hot) in golden_hot.iter().enumerate() {
        let (s, c) = sharded.run_iteration(&fp, now);
        assert_eq!(s.scanned, 417, "iter {it} scanned");
        assert_eq!(s.hot, hot, "iter {it} hot");
        let legs: Vec<[u64; 4]> = c
            .per_shard
            .iter()
            .map(|l| {
                [
                    l.dma_in.as_ns(),
                    l.scan.as_ns(),
                    l.classify.as_ns(),
                    l.dma_out.as_ns(),
                ]
            })
            .collect();
        assert_eq!(
            legs,
            vec![[1_280, 159_076, 21_686, 765], [1_282, 159_841, 21_790, 766]],
            "iter {it} per-shard legs"
        );
        now += SimTime::from_ms(600);
    }
    assert_eq!(sharded.per_shard_shipped(), vec![254, 245]);
    assert!(sharded.rebalance_history().is_empty());
    assert_eq!(sharded.shard_map().generation(), 0);
}
