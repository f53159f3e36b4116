//! §7.4 — offloaded memory management with SOL.
//!
//! Two artifacts:
//!
//! 1. The **iteration-duration table** (§7.4.2): per-iteration agent loop
//!    duration for 1/2/4/8/16 cores, Wave (NIC ARM) vs. on-host.
//! 2. The **RocksDB footprint effect**: resident memory drops from
//!    ~102 GiB to ~21.3 GiB (−79%) after three epochs, with GET latency
//!    (median 12 µs, p99 31 µs) barely affected.

use rand::Rng;
use wave_kvstore::{AccessPattern, DbFootprint, FootprintConfig};
use wave_memmgr::runner::duration_table;
use wave_memmgr::{sharded_iteration_cost, RunnerConfig, ShardedSolRunner, SolConfig};
use wave_sim::cpu::{CoreClass, CpuModel};
use wave_sim::stats::Histogram;
use wave_sim::SimTime;

use crate::report::{PaperRow, Report};

/// Builds the §7.4.2 duration-table report.
pub fn duration_report() -> Report {
    let paper = [
        (1u32, 1_018.0, 623.0),
        (2, 576.0, 431.0),
        (4, 437.0, 354.0),
        (8, 384.0, 322.0),
        (16, 364.0, 309.0),
    ];
    let table = duration_table(&[1, 2, 4, 8, 16]);
    let mut r = Report::new("§7.4.2: SOL per-iteration duration (ms)");
    for ((cores, wave, onhost), (_, pw, po)) in table.into_iter().zip(paper) {
        r.push(PaperRow::new(
            format!("wave, {cores} cores"),
            pw,
            wave,
            "ms",
        ));
        r.push(PaperRow::new(
            format!("on-host, {cores} cores"),
            po,
            onhost,
            "ms",
        ));
    }
    r.note("two-phase model: serial memory-bound scan + parallel compute-bound classification; endpoints fitted, mid-points emergent");
    r
}

/// Builds the runtime-backed iteration report: one real SOL iteration
/// of the single agent ([`ShardedSolRunner`] with K=1) driven through
/// the shared `AgentRuntime` (DMA ingest, slot staging, batched
/// decision ship-back), with its leg-by-leg breakdown checked against
/// the closed-form cost model — the two must agree exactly. A second
/// section runs the same iteration K-sharded (one runtime per batch
/// slice) and checks every shard's legs against the sharded model the
/// same way.
pub fn runtime_iteration_report() -> Report {
    let fp = DbFootprint::new(FootprintConfig::paper(0.002), AccessPattern::Scattered, 42);
    let cfg = RunnerConfig::paper(CoreClass::NicArm, 16);
    let cpu = CpuModel::mount_evans();
    let mut runner = ShardedSolRunner::new(cfg, cpu, 1, SolConfig::paper(), fp.batches(), 42);
    let (stats, one) = runner.run_iteration(&fp, SimTime::ZERO);
    let cost = one.per_shard[0];
    let model = cfg.iteration_cost(cpu, fp.batches() as u64);

    let mut r = Report::new("§4.2: SOL on the shared agent runtime (one iteration)");
    let us = |t: SimTime| t.as_us_f64();
    r.push(PaperRow::new(
        "dma_in (PTE deltas)",
        us(model.dma_in),
        us(cost.dma_in),
        "us",
    ));
    r.push(PaperRow::new(
        "scan (serial)",
        us(model.scan),
        us(cost.scan),
        "us",
    ));
    r.push(PaperRow::new(
        "classify (parallel)",
        us(model.classify),
        us(cost.classify),
        "us",
    ));
    r.push(PaperRow::new(
        "dma_out (decisions)",
        us(model.dma_out),
        us(cost.dma_out),
        "us",
    ));
    r.push(PaperRow::new(
        "total",
        us(model.total()),
        us(cost.total()),
        "us",
    ));
    r.note(format!(
        "runtime legs vs closed-form model (ratio must be 1.000); {} batches scanned, {} migration decisions staged+shipped",
        stats.scanned,
        runner.shipped_decisions()
    ));
    r.note("same AgentRuntime as the scheduler, bound to the DMA transport (delta-compressed ingest, batched slot-consume)");

    // The K-sharded section: the same first iteration, partitioned
    // across SHARDS runtimes, every shard's legs against the sharded
    // closed-form model.
    const SHARDS: u32 = 2;
    let mut sharded = ShardedSolRunner::new(cfg, cpu, SHARDS, SolConfig::paper(), fp.batches(), 42);
    let (sstats, scost) = sharded.run_iteration(&fp, SimTime::ZERO);
    let smodel = sharded_iteration_cost(cfg, cpu, SHARDS, fp.batches() as u64);
    for (i, (real, model)) in scost.per_shard.iter().zip(&smodel.per_shard).enumerate() {
        r.push(PaperRow::new(
            format!("shard {i}/{SHARDS} total"),
            us(model.total()),
            us(real.total()),
            "us",
        ));
    }
    r.push(PaperRow::new(
        format!("sharded wall (K={SHARDS})"),
        us(smodel.wall()),
        us(scost.wall()),
        "us",
    ));
    r.note(format!(
        "sharded section: {} batches scanned across {} agent runtimes, per-shard shipments {:?}",
        sstats.scanned,
        SHARDS,
        sharded.per_shard_shipped()
    ));
    r
}

/// Result of the footprint experiment.
#[derive(Debug, Clone)]
pub struct FootprintResult {
    /// Resident fraction at start (1.0).
    pub start_fraction: f64,
    /// Resident fraction after three epochs.
    pub end_fraction: f64,
    /// Classification accuracy vs. the workload oracle.
    pub accuracy: f64,
    /// GET latency median (µs) including demoted-page faults.
    pub get_p50_us: f64,
    /// GET latency p99 (µs).
    pub get_p99_us: f64,
}

/// Configuration for the footprint experiment.
#[derive(Debug, Clone, Copy)]
pub struct FootprintExperiment {
    /// Address-space scale relative to the paper's 102 GiB (1.0 = full).
    pub scale: f64,
    /// Agent shards the batch space is partitioned across (§6): the
    /// −79% result must hold under K-way partitioning, not just K=1.
    pub shards: u32,
    /// Epochs to run (paper reports after 3).
    pub epochs: u32,
    /// GET requests sampled for the latency distribution.
    pub get_samples: u64,
    /// RNG seed.
    pub seed: u64,
}

impl FootprintExperiment {
    /// CI-speed configuration (~0.2% of the paper's address space,
    /// 2-way partitioned).
    pub fn quick() -> Self {
        FootprintExperiment {
            scale: 0.002,
            shards: 2,
            epochs: 3,
            get_samples: 200_000,
            seed: 42,
        }
    }

    /// Full-scale batch count, 4 shards (slower; same statistics).
    pub fn paper() -> Self {
        FootprintExperiment {
            scale: 0.05,
            shards: 4,
            epochs: 3,
            get_samples: 500_000,
            seed: 42,
        }
    }
}

/// Runs the footprint experiment: real SOL under K-way partitioning
/// ([`ShardedSolRunner`] — each shard scans and classifies only its
/// batch slice, yet the merged epochs must still demote the same ~79%)
/// against the synthetic page access pattern, then a GET latency
/// distribution over the tiered memory.
pub fn run_footprint(cfg: &FootprintExperiment) -> FootprintResult {
    let fp_cfg = FootprintConfig::paper(cfg.scale);
    let mut fp = DbFootprint::new(fp_cfg, AccessPattern::Scattered, cfg.seed);
    let sol_cfg = SolConfig::paper();
    let mut sharded = ShardedSolRunner::new(
        RunnerConfig::paper(CoreClass::NicArm, 16),
        CpuModel::mount_evans(),
        cfg.shards,
        sol_cfg,
        fp.batches(),
        cfg.seed,
    );

    let start_fraction = fp.resident_fraction();
    let mut now = SimTime::ZERO;
    for _ in 0..cfg.epochs {
        let end = now + sol_cfg.epoch;
        while now < end {
            sharded.run_iteration(&fp, now);
            now += sol_cfg.base_period;
        }
        sharded.epoch_migrate(now, &mut fp);
    }
    // Classification accuracy vs. the oracle, batch-weighted across
    // the shards.
    let accuracy = (0..cfg.shards)
        .map(|i| sharded.shard_accuracy(i, &fp) * sharded.shard_batches(i).len() as f64)
        .sum::<f64>()
        / fp.batches() as f64;

    // GET latency with the converged tiering: hot-batch GETs hit DRAM
    // (10 µs + small jitter); GETs landing on a demoted hot batch fault
    // (the misclassification cost). Its own RNG stream — the policy
    // streams live inside the shards.
    let mut rng = wave_sim::rng(cfg.seed ^ 0x6e7);
    let mut hist = Histogram::new();
    let hot: Vec<usize> = (0..fp.batches()).filter(|&i| fp.is_hot(i)).collect();
    for _ in 0..cfg.get_samples {
        let batch = hot[rng.random_range(0..hot.len())];
        let mut lat = SimTime::from_us(10);
        // Request-level jitter (allocator, cache effects): +0..4 us.
        lat += SimTime::from_ns(rng.random_range(0..4_000));
        // Occasional compaction/interference stalls dominate the tail.
        if rng.random::<f64>() < 0.02 {
            lat += SimTime::from_us(18);
        }
        if !fp.is_resident(batch) {
            lat += fp.fault_penalty();
        }
        hist.record_time(lat);
    }
    let s = hist.summary();
    FootprintResult {
        start_fraction,
        end_fraction: fp.resident_fraction(),
        accuracy,
        get_p50_us: s.p50.as_us_f64(),
        get_p99_us: s.p99.as_us_f64(),
    }
}

/// Builds the footprint-effect report.
pub fn footprint_report(cfg: &FootprintExperiment) -> Report {
    let res = run_footprint(cfg);
    let mut r = Report::new("§7.4.2: SOL effect on RocksDB");
    r.push(PaperRow::new(
        "memory reduction after 3 epochs",
        79.0,
        (1.0 - res.end_fraction / res.start_fraction) * 100.0,
        "%",
    ));
    r.push(PaperRow::new(
        "GET median latency",
        12.0,
        res.get_p50_us,
        "us",
    ));
    r.push(PaperRow::new("GET p99 latency", 31.0, res.get_p99_us, "us"));
    r.note(format!(
        "classification accuracy {:.1}%; resident fraction {:.3}",
        res.accuracy * 100.0,
        res.end_fraction
    ));
    r.note("paper: ~102 GiB -> ~21.3 GiB; host cores saved: 16 (the agent's parallel phase)");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_reduction_near_79_percent() {
        let res = run_footprint(&FootprintExperiment::quick());
        let reduction = (1.0 - res.end_fraction / res.start_fraction) * 100.0;
        assert!((reduction - 79.0).abs() < 5.0, "reduction {reduction}%");
        assert!(res.accuracy > 0.9);
    }

    #[test]
    fn get_latency_mostly_unaffected() {
        let res = run_footprint(&FootprintExperiment::quick());
        assert!(
            (10.0..=16.0).contains(&res.get_p50_us),
            "p50 {}",
            res.get_p50_us
        );
        assert!(res.get_p99_us < 40.0, "p99 {}", res.get_p99_us);
    }

    #[test]
    fn runtime_iteration_report_legs_match_model_exactly() {
        // 5 single-agent legs + one total per shard + the sharded wall;
        // every row must sit exactly on the model (ratio 1.000), the
        // sharded ones included.
        let r = runtime_iteration_report();
        assert_eq!(r.rows.len(), 8);
        for row in &r.rows {
            assert_eq!(
                row.ratio(),
                Some(1.0),
                "{}: runtime leg diverged from model",
                row.label
            );
        }
    }

    #[test]
    fn duration_report_rows() {
        let r = duration_report();
        assert_eq!(r.rows.len(), 10);
        for row in &r.rows {
            assert!(
                row.ratio().is_some_and(|x| (0.8..=1.25).contains(&x)),
                "{}: {:?}",
                row.label,
                row.ratio()
            );
        }
    }
}
