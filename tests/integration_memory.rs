//! Cross-crate integration: the §7.4 memory-management pipeline.

use std::sync::OnceLock;

use wave::kvstore::{AccessPattern, DbFootprint, FootprintConfig};
use wave::memmgr::runner::duration_table;
use wave::memmgr::{IterationCost, SolConfig, SolPolicy};
use wave::sim::SimTime;

/// The §7.4.2 table's endpoint rows, `(cores, wave, on-host)`, computed
/// once for every test in this binary.
fn endpoints() -> &'static [(u32, IterationCost, IterationCost)] {
    static TABLE: OnceLock<Vec<(u32, IterationCost, IterationCost)>> = OnceLock::new();
    TABLE.get_or_init(|| duration_table(&[1, 16]))
}

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

    // ...and the §7.4.2 table endpoints from real agent iterations.
    let (_, wave1, onhost1) = endpoints()[0];
    let (_, wave16, onhost16) = endpoints()[1];
    let cells = [
        (wave1, 1_018.0),
        (onhost1, 623.0),
        (wave16, 364.0),
        (onhost16, 309.0),
    ];
    for (cost, paper) in cells {
        let ms = cost.total().as_ms_f64();
        assert!(
            (ms - paper).abs() / paper < 0.03,
            "{ms} ms vs paper {paper}"
        );
    }
}

#[test]
fn offloaded_iteration_practical_at_16_cores() {
    // The §7.4.2 conclusion: the offloaded agent at 16 ARM cores
    // approaches SOL's 300 ms design period, freeing 16 host cores.
    let (_, cost, _) = endpoints()[1];
    assert!(cost.total() < SimTime::from_ms(400), "{}", cost.total());
    assert!(cost.dma_in < SimTime::from_ms(2), "PTE DMA ~1 ms");
}
