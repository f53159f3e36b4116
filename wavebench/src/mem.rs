//! `mem_phased`: the K=2 sharded SOL memory agent over a paper-scale
//! footprint whose ambivalent window roams between the shards.

use std::time::Instant;

use wave_core::shard_map::RebalanceConfig;
use wave_core::workload::{MemPhase, PhaseSchedule};
use wave_kvstore::{AccessPattern, DbFootprint, FootprintConfig};
use wave_memmgr::{RunnerConfig, ShardedSolRunner, SolConfig};
use wave_sim::cpu::{CoreClass, CpuModel};
use wave_sim::SimTime;

use crate::trace::ns_since;
use crate::{ratio, timed_setup, Checks, Fnv, Outcome, Size, Span};

/// Agent shards, each on its own OS thread.
const SHARDS: u32 = 2;
/// Share of the batch space the roaming ambivalent window covers.
const FLAPPY: f64 = 0.5;
/// Simulated time between scan iterations.
const ITERATION_MS: u64 = 600;

/// The workload's shape.
struct Shape {
    /// Address-space scale (1.0 = the paper's 102 GiB, 417,792 batches).
    scale: f64,
    /// Scan iterations.
    iterations: u64,
    /// The window moves one shard slice onward every `phase_period`.
    phase_period: SimTime,
    /// Rebalance epoch.
    epoch: SimTime,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            scale: 1.0,
            iterations: 60,
            phase_period: SimTime::from_secs(6),
            epoch: SimTime::from_ms(1_200),
        },
        Size::Smoke => Shape {
            scale: 0.002,
            iterations: 12,
            phase_period: SimTime::from_ms(1_800),
            epoch: SimTime::from_ms(1_200),
        },
    }
}

/// Set-up: the footprint, the sharded runner and the phase schedule.
fn build(seed: u64, s: &Shape) -> (DbFootprint, ShardedSolRunner, PhaseSchedule, usize) {
    let fp_cfg = FootprintConfig::skewed(s.scale, FLAPPY);
    let fp = DbFootprint::new(fp_cfg, AccessPattern::Scattered, seed);
    // The traces sweep's short scan ladder, so scan load follows the
    // window within one rebalance epoch.
    let mut sol = SolConfig::paper();
    sol.period_rungs = 2;
    let runner = ShardedSolRunner::new(
        RunnerConfig::paper(CoreClass::NicArm, 16),
        CpuModel::mount_evans(),
        SHARDS,
        sol,
        fp.batches(),
        seed,
    )
    .with_rebalance(RebalanceConfig::every(s.epoch));
    // A stable hot set (reseed 0): only where the rescan work lives
    // changes from phase to phase. Every phase lands inside the run.
    let last = SimTime::from_ms(ITERATION_MS * (s.iterations - 1));
    let phases: Vec<MemPhase> = (1..)
        .map(|k| s.phase_period.scale(k as f64))
        .take_while(|&at| at <= last)
        .enumerate()
        .map(|(k, at)| MemPhase {
            at,
            hot_fraction: fp_cfg.hot_fraction,
            flappy_fraction: FLAPPY,
            flappy_offset: ((k as u32 + 1) % SHARDS) as f64 / SHARDS as f64,
            reseed: 0,
        })
        .collect();
    let n = phases.len();
    (fp, runner, PhaseSchedule::new(phases), n)
}

/// Runs the workload once. The per-iteration host timers cost two clock
/// reads per iteration, so both modes run the same code and `traced`
/// only decides whether the layer metrics are reported.
pub fn run(seed: u64, size: Size, traced: bool) -> Outcome {
    let s = shape(size);
    let ((mut fp, mut runner, mut schedule, phases), setup_s) = timed_setup(|| build(seed, &s));

    let span = Span::start();
    let mut h = Fnv::default();
    let (mut iter_ns, mut rebalance_ns) = (0u64, 0u64);
    let mut scanned = 0u64;
    // Iterations whose hot + cold classification lost or invented a
    // batch (rebalancing moves batches but must conserve them).
    let mut unconserved = 0u64;
    let mut legs = [0u64; 4];
    // Decisions shipped in each phase interval (before the first phase,
    // then after each one).
    let mut shipped_by_phase = vec![0u64; phases + 1];
    let mut shipped_before = 0;
    for it in 0..s.iterations {
        let now = SimTime::from_ms(ITERATION_MS * it);
        let t = Instant::now();
        let (stats, cost) = runner.run_phased_iteration(&mut schedule, &mut fp, now);
        iter_ns += ns_since(t);
        let t = Instant::now();
        let event = runner.maybe_rebalance(now);
        rebalance_ns += ns_since(t);

        scanned += stats.scanned;
        if stats.hot + stats.cold != runner.total_batches() as u64 {
            unconserved += 1;
        }
        for v in [
            stats.scanned,
            stats.hot,
            stats.cold,
            stats.demoted,
            stats.promoted,
        ] {
            h.u64(v);
        }
        for c in &cost.per_shard {
            for v in [c.dma_in, c.scan, c.classify, c.dma_out] {
                h.u64(v.as_ns());
            }
        }
        let agg = cost.aggregate();
        for (sum, leg) in legs
            .iter_mut()
            .zip([agg.dma_in, agg.scan, agg.classify, agg.dma_out])
        {
            *sum += leg.as_ns();
        }
        if let Some(e) = event {
            h.u64(e.generation);
            h.u64(e.moves.len() as u64);
        }
        let shipped = runner.shipped_decisions();
        shipped_by_phase[runner.phases_applied() as usize] += shipped - shipped_before;
        shipped_before = shipped;
    }
    let times = span.stop(setup_s);

    let shipped = runner.shipped_decisions();
    let moves: u64 = runner
        .rebalance_history()
        .iter()
        .map(|e| e.moves.len() as u64)
        .sum();
    let per_shard = runner.per_shard_shipped();
    for v in [shipped, moves, runner.phases_applied()]
        .into_iter()
        .chain(per_shard.iter().copied())
    {
        h.u64(v);
    }

    let mut checks = Checks::default();
    checks.expect(runner.phases_applied() == phases as u64, || {
        format!("{} of {phases} phases applied", runner.phases_applied())
    });
    checks.expect(per_shard.iter().sum::<u64>() == shipped, || {
        format!("per-shard shipments {per_shard:?} do not sum to {shipped}")
    });
    checks.expect(unconserved == 0 && scanned > 0, || {
        format!("{unconserved} iterations did not classify every batch; {scanned} scanned")
    });
    checks.expect(shipped_by_phase.iter().all(|&n| n > 0), || {
        format!("a phase shipped no decisions: {shipped_by_phase:?}")
    });

    let [dma_in, scan, classify, dma_out] = legs;
    let counters = vec![
        ("mem.scanned", scanned),
        ("mem.shipped", shipped),
        ("mem.batch_moves", moves),
        ("mem.phases_applied", runner.phases_applied()),
        (
            "mem.min_phase_shipped",
            shipped_by_phase.iter().copied().min().unwrap_or(0),
        ),
        ("mem.sim_dma_in_ns", dma_in),
        ("mem.sim_scan_ns", scan),
        ("mem.sim_classify_ns", classify),
        ("mem.sim_dma_out_ns", dma_out),
    ];
    let layers = if traced {
        vec![
            ("mem.iter_s", iter_ns as f64 * 1e-9),
            ("mem.scanned", scanned as f64),
            ("mem.ns_per_scan", ratio(iter_ns, scanned)),
            ("mem.shipped", shipped as f64),
            ("mem.shipped_per_scan", ratio(shipped, scanned)),
            ("mem.rebalance_s", rebalance_ns as f64 * 1e-9),
            ("mem.batch_moves", moves as f64),
            ("mem.phases_applied", runner.phases_applied() as f64),
            ("mem.sim_dma_in_ms", dma_in as f64 * 1e-6),
            ("mem.sim_scan_ms", scan as f64 * 1e-6),
            ("mem.sim_classify_ms", classify as f64 * 1e-6),
            ("mem.sim_dma_out_ms", dma_out as f64 * 1e-6),
        ]
    } else {
        Vec::new()
    };
    Outcome {
        times,
        fingerprint: h.finish(),
        counters,
        layers,
        failures: checks.failures,
    }
}
