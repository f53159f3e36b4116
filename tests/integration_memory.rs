//! Cross-crate integration: the §7.4 memory-management pipeline.

use wave::kvstore::{AccessPattern, DbFootprint, FootprintConfig};
use wave::memmgr::runner::duration_table;
use wave::memmgr::{SolConfig, SolPolicy};
use wave::sim::cpu::{CoreClass, CpuModel};
use wave::sim::SimTime;

#[test]
fn sol_pipeline_converges_and_durations_match_endpoints() {
    // Real SOL against a synthetic access pattern...
    let fp_cfg = FootprintConfig::paper(0.002);
    let mut fp = DbFootprint::new(fp_cfg, AccessPattern::Scattered, 5);
    let sol = SolConfig::paper();
    let mut policy = SolPolicy::new(sol, fp.batches());
    let mut rng = wave::sim::rng(5);
    let mut now = SimTime::ZERO;
    for _ in 0..3 {
        let end = now + sol.epoch;
        while now < end {
            policy.iterate(now, &fp, &mut rng);
            now += sol.base_period;
        }
        policy.epoch_migrate(now, &mut fp);
    }
    assert!(policy.accuracy(&fp) > 0.9);
    let reduction = 1.0 - fp.resident_fraction();
    assert!((reduction - 0.79).abs() < 0.06, "reduction {reduction}");

    // ...and the §7.4.2 table endpoints from the duration model.
    let table = duration_table(&[1, 16]);
    let (_, wave1, onhost1) = table[0];
    let (_, wave16, onhost16) = table[1];
    assert!((wave1 - 1_018.0).abs() / 1_018.0 < 0.03);
    assert!((onhost1 - 623.0).abs() / 623.0 < 0.03);
    assert!((wave16 - 364.0).abs() / 364.0 < 0.03);
    assert!((onhost16 - 309.0).abs() / 309.0 < 0.03);
}

#[test]
fn offloaded_iteration_practical_at_16_cores() {
    // The §7.4.2 conclusion: the offloaded agent at 16 ARM cores
    // approaches SOL's 300 ms design period, freeing 16 host cores.
    use wave::memmgr::runner::RunnerConfig;
    let cost =
        RunnerConfig::paper(CoreClass::NicArm, 16).iteration_cost(CpuModel::mount_evans(), 417_792);
    assert!(cost.total() < SimTime::from_ms(400), "{}", cost.total());
    assert!(cost.dma_in < SimTime::from_ms(2), "PTE DMA ~1 ms");
}
