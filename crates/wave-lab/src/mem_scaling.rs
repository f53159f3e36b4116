//! Memory-agent scaling sweep: §7.4.2 iteration duration vs. shard
//! count.
//!
//! The paper scales the SOL iteration by adding *threads inside one
//! agent*, which only shrinks the parallel classification phase — the
//! serial scan is the 364 ms floor of the §7.4.2 table. Partitioning the
//! batch space across K *agents* ([`wave_memmgr::ShardedSolRunner`])
//! divides both phases and the DMA legs, because each shard scans,
//! classifies, and ships only its slice. This sweep measures that
//! scale-out curve, the dimension the paper gestures at in §6 but never
//! quantifies — the memory-manager counterpart of [`crate::scaling`].
//!
//! Every grid cell runs a **real** sharded iteration (DMA ingest of the
//! PTE-delta stream, Thompson classification, slot staging, batched
//! decision ship-back, shards fanned out on OS threads) and
//! cross-checks its legs against the closed-form sharded model
//! ([`sharded_iteration_cost`]); with all batches due the two agree
//! exactly, and with K=1 both are bit-identical to the pinned §7.4.2
//! goldens.

use wave_kvstore::{AccessPattern, DbFootprint, FootprintConfig};
use wave_memmgr::{sharded_iteration_cost, RunnerConfig, ShardedSolRunner, SolConfig};
use wave_sim::cpu::{CoreClass, CpuModel};
use wave_sim::par::par_map;
use wave_sim::SimTime;

use crate::report::{PaperRow, Report};

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct MemScalingConfig {
    /// Agent shard counts to sweep (the scale-out dimension).
    pub shard_counts: Vec<u32>,
    /// Address-space scales relative to the paper's 102 GiB (1.0 =
    /// 417,792 batches).
    pub scales: Vec<f64>,
    /// Threads per agent (the paper's within-agent dimension).
    pub cores: u32,
    /// RNG seed.
    pub seed: u64,
}

impl MemScalingConfig {
    /// Full-fidelity sweep: K = 1, 2, 4 over a quarter and the full
    /// paper address space.
    pub fn paper() -> Self {
        MemScalingConfig {
            shard_counts: vec![1, 2, 4],
            scales: vec![0.25, 1.0],
            cores: 16,
            seed: 42,
        }
    }

    /// CI-speed sweep: K = 1, 2, 4 over ~5% of the paper address space.
    pub fn quick() -> Self {
        MemScalingConfig {
            scales: vec![0.05],
            ..Self::paper()
        }
    }
}

/// One cell of the sweep grid.
#[derive(Debug, Clone)]
pub struct MemScalingPoint {
    /// Agent shards.
    pub shards: u32,
    /// Batches under management.
    pub batches: usize,
    /// Measured wall clock of one real sharded iteration (ms).
    pub wall_ms: f64,
    /// Serial (scan) phase on the critical path (ms).
    pub serial_ms: f64,
    /// Parallel (classify) phase on the critical path (ms).
    pub parallel_ms: f64,
    /// Transport legs on the critical path (ms).
    pub dma_ms: f64,
    /// Closed-form model wall clock (ms) — equals `wall_ms` when every
    /// batch is due, which a first iteration guarantees.
    pub model_wall_ms: f64,
    /// Decisions shipped per shard (every shard must pull its weight).
    pub per_shard_shipped: Vec<u64>,
}

/// The full sweep result.
#[derive(Debug, Clone)]
pub struct MemScalingResult {
    /// All grid cells, in (scale-major, shards-minor) order.
    pub points: Vec<MemScalingPoint>,
}

impl MemScalingResult {
    /// The wall-clock column for one batch count, ordered by shards.
    pub fn curve(&self, batches: usize) -> Vec<(u32, f64)> {
        let mut col: Vec<(u32, f64)> = self
            .points
            .iter()
            .filter(|p| p.batches == batches)
            .map(|p| (p.shards, p.wall_ms))
            .collect();
        col.sort_by_key(|&(k, _)| k);
        col
    }

    /// Batch counts present in the sweep, ascending.
    pub fn batch_counts(&self) -> Vec<usize> {
        let mut b: Vec<usize> = self.points.iter().map(|p| p.batches).collect();
        b.sort_unstable();
        b.dedup();
        b
    }
}

/// Runs one grid cell: a real first iteration (all batches due) of a
/// K-sharded deployment over `scale` of the paper's address space.
pub fn run_point(cfg: &MemScalingConfig, shards: u32, scale: f64) -> MemScalingPoint {
    let fp = DbFootprint::new(
        FootprintConfig::paper(scale),
        AccessPattern::Scattered,
        cfg.seed,
    );
    let runner_cfg = RunnerConfig::paper(CoreClass::NicArm, cfg.cores);
    let mut sharded = ShardedSolRunner::new(
        runner_cfg,
        CpuModel::mount_evans(),
        shards,
        SolConfig::paper(),
        fp.batches(),
        cfg.seed,
    );
    let (_, cost) = sharded.run_iteration(&fp, SimTime::ZERO);
    let model = sharded_iteration_cost(
        runner_cfg,
        CpuModel::mount_evans(),
        shards,
        fp.batches() as u64,
    );
    let ms = |t: SimTime| t.as_ms_f64();
    MemScalingPoint {
        shards,
        batches: fp.batches(),
        wall_ms: ms(cost.wall()),
        serial_ms: ms(cost.serial_phase()),
        parallel_ms: ms(cost.parallel_phase()),
        dma_ms: ms(cost.dma()),
        model_wall_ms: ms(model.wall()),
        per_shard_shipped: sharded.per_shard_shipped(),
    }
}

/// Runs the whole grid, cells in parallel across OS threads (each cell
/// additionally fans its shards out on threads of its own).
pub fn run(cfg: &MemScalingConfig) -> MemScalingResult {
    let grid: Vec<(u32, f64)> = cfg
        .scales
        .iter()
        .flat_map(|&s| cfg.shard_counts.iter().map(move |&k| (k, s)))
        .collect();
    let points = par_map(&grid, |&(k, s)| run_point(cfg, k, s));
    MemScalingResult { points }
}

/// Builds the memory-agent scale-out report. The paper gives no numbers
/// for this regime, so the "paper" column holds the single-agent
/// baseline of each batch count and the ratio column reads as the
/// remaining fraction of the baseline duration (lower is better).
pub fn report(cfg: &MemScalingConfig) -> Report {
    let res = run(cfg);
    let mut r = Report::new("§6 scale-out: SOL iteration duration vs shard count");
    for batches in res.batch_counts() {
        let curve = res.curve(batches);
        let Some(&(_, base)) = curve.first() else {
            continue;
        };
        for (k, wall) in curve {
            r.push(PaperRow::new(
                format!("{batches} batches, {k} shard(s)"),
                base,
                wall,
                "ms",
            ));
        }
    }
    r.note("no paper numbers exist for this sweep; 'paper' = 1-shard baseline, ratio = remaining duration (lower = better)");
    r.note("across agents both phases divide: the serial scan shrinks too, unlike the within-agent thread sweep of the paper's table");
    r.note(format!(
        "real sharded iterations ({} threads/agent, seed {}), legs equal to the closed-form sharded model",
        cfg.cores, cfg.seed
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use wave_memmgr::SolRunner;
    use wave_pcie::Interconnect;

    /// Debug builds (tier-1 `cargo test -q`) run a smaller address
    /// space; the release CI smoke and the bench use quick().
    fn test_cfg() -> MemScalingConfig {
        MemScalingConfig {
            scales: vec![if cfg!(debug_assertions) { 0.002 } else { 0.02 }],
            ..MemScalingConfig::quick()
        }
    }

    #[test]
    fn k1_closed_form_stays_pinned_to_the_7_4_2_golden() {
        // The K=1 sharded model at the paper's full address space must
        // be bit-identical to the unsharded §7.4.2 model — the same
        // value `tests/integration_memmgr_runtime.rs` pins (364.415 ms
        // for 16 NIC cores).
        const FULL: u64 = 417_792;
        let cfg = RunnerConfig::paper(CoreClass::NicArm, 16);
        let sharded = sharded_iteration_cost(cfg, CpuModel::mount_evans(), 1, FULL);
        let model = SolRunner::new(cfg, CpuModel::mount_evans())
            .iteration_cost(&mut Interconnect::pcie(), FULL);
        assert_eq!(sharded.wall(), model.total());
        assert!((sharded.wall().as_ms_f64() - 3.644_152_32e2).abs() < 1e-9);
    }

    #[test]
    fn wall_clock_shrinks_monotonically_with_shards() {
        let cfg = test_cfg();
        let res = run(&cfg);
        for &batches in &res.batch_counts() {
            let curve = res.curve(batches);
            assert_eq!(curve.len(), 3);
            for pair in curve.windows(2) {
                let ((k0, w0), (k1, w1)) = (pair[0], pair[1]);
                assert!(
                    w1 < w0,
                    "{batches} batches: wall must shrink {k0}→{k1} shards ({w0:.3} vs {w1:.3} ms)"
                );
            }
        }
    }

    #[test]
    fn real_legs_match_the_model_in_every_cell() {
        let cfg = test_cfg();
        for &k in &cfg.shard_counts {
            let p = run_point(&cfg, k, cfg.scales[0]);
            assert_eq!(
                p.wall_ms, p.model_wall_ms,
                "{k} shards: real wall diverged from model"
            );
            assert_eq!(p.per_shard_shipped.len(), k as usize);
            for (i, d) in p.per_shard_shipped.iter().enumerate() {
                assert!(
                    *d > 0,
                    "shard {i} shipped nothing: {:?}",
                    p.per_shard_shipped
                );
            }
        }
    }

    #[test]
    fn report_renders() {
        let mut cfg = test_cfg();
        cfg.shard_counts = vec![1, 2];
        let r = report(&cfg);
        assert_eq!(r.rows.len(), 2);
        assert!(r.render().contains("2 shard(s)"));
        // Sharding helps: the 2-shard row's ratio is well under 1.
        assert!(r.rows[1].ratio() < 0.75, "ratio {}", r.rows[1].ratio());
    }
}
