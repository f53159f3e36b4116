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
//! Every grid cell runs a **real** first iteration of a K-sharded
//! deployment (DMA ingest of the PTE-delta stream, Thompson
//! classification, slot staging, batched decision ship-back, shards
//! fanned out on OS threads) and reads its wall clock off the shards'
//! legs; K=1 is the same single-agent iteration that produces the
//! §7.4.2 table ([`wave_memmgr::runner::duration_table`]).

use wave_kvstore::{AccessPattern, DbFootprint, FootprintConfig};
use wave_memmgr::{RunnerConfig, ShardedSolRunner, SolConfig};
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
    let mut sharded = ShardedSolRunner::new(
        RunnerConfig::paper(CoreClass::NicArm, cfg.cores),
        CpuModel::mount_evans(),
        shards,
        SolConfig::paper(),
        fp.batches(),
        cfg.seed,
    );
    let (_, cost) = sharded.run_iteration(&fp, SimTime::ZERO);
    MemScalingPoint {
        shards,
        batches: fp.batches(),
        wall_ms: cost.wall().as_ms_f64(),
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
        "real sharded iterations ({} threads/agent, seed {}), wall = slowest shard's legs",
        cfg.cores, cfg.seed
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use wave_core::runtime::shard_range;

    /// Debug builds (tier-1 `cargo test -q`) run a smaller address
    /// space; the release CI smoke and the bench use quick().
    fn test_cfg() -> MemScalingConfig {
        MemScalingConfig {
            scales: vec![if cfg!(debug_assertions) { 0.002 } else { 0.02 }],
            ..MemScalingConfig::quick()
        }
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
        // The model of a K-shard cell is K independent single agents,
        // each over a batch space the size of one slice: its wall clock
        // is the slowest of their K=1 first iterations. And every shard
        // pulls its weight.
        let cfg = test_cfg();
        let fp = DbFootprint::new(
            FootprintConfig::paper(cfg.scales[0]),
            AccessPattern::Scattered,
            cfg.seed,
        );
        for &k in &cfg.shard_counts {
            let p = run_point(&cfg, k, cfg.scales[0]);
            let slowest = (0..k as usize)
                .map(|i| {
                    let mut one = ShardedSolRunner::new(
                        RunnerConfig::paper(CoreClass::NicArm, cfg.cores),
                        CpuModel::mount_evans(),
                        1,
                        SolConfig::paper(),
                        shard_range(fp.batches(), k as usize, i).len(),
                        cfg.seed,
                    );
                    one.run_iteration(&fp, SimTime::ZERO).1.wall()
                })
                .max()
                .unwrap();
            assert_eq!(
                p.wall_ms,
                slowest.as_ms_f64(),
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
        let ratio = r.rows[1].ratio().unwrap();
        assert!(ratio < 0.75, "ratio {ratio}");
    }
}
