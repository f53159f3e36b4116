//! The SOL deployment model (§7.4.2): configuration, the messages the
//! agent exchanges with the host, and the iteration-duration table.
//!
//! The paper's iteration-duration table is a two-phase story:
//!
//! * a **serial, memory-bound** phase (access-bit scanning, PTE
//!   bookkeeping, DMA staging) that barely suffers on ARM, and
//! * a **parallel, compute-bound** phase (Thompson-sampling
//!   classification) that pays the full ARM slowdown but divides across
//!   agent threads.
//!
//! Writing an iteration over `n` batches on `c` threads as
//! `n · (scan + classify / c)` and solving the paper's 1- and 16-core
//! on-host rows (623 → 309 ms at 417,792 batches) gives ≈689 ns (scan)
//! and ≈802 ns (classify) per batch at host speed; the Wave rows
//! (1,018 → 364 ms) then give ARM ratios of ≈1.11× memory-bound and
//! ≈2.08× compute-bound, the [`CpuModel::mount_evans`] constants. Those
//! per-batch costs are [`RunnerConfig::paper`]'s; the ~1 ms DMA of the
//! delta-compressed PTE stream rides on top.
//!
//! # The iteration
//!
//! The iteration runs the policy on a
//! [`wave_core::runtime::AgentRuntime`] bound to the DMA transport, one
//! runtime per agent of a [`ShardedSolRunner`] (K=1 is the single
//! agent). The four legs of an [`IterationCost`] map onto runtime
//! primitives:
//!
//! 1. **`dma_in`** — the host pushes one [`PteDelta`] per due batch and
//!    flushes; the queue's delta-compressed DMA batch is the leg, and
//!    the agent polls the stream at its completion instant;
//! 2. **`scan` + `classify`** — the two CPU phases above, run by the real
//!    [`SolPolicy`](crate::SolPolicy) over the batches shipped; each
//!    classification flip is staged as a [`MigrationDecision`] under its
//!    batch's slot id into the runtime's decision outbox;
//! 3. **`dma_out`** — one batched transfer drains the outbox back to host
//!    DRAM.
//!
//! [`duration_table`] is the §7.4.2 table read off those legs: one
//! first iteration (every batch due) per cell.
//!
//! [`ShardedSolRunner`]: crate::ShardedSolRunner

use wave_core::runtime::RuntimeConfig;
use wave_kvstore::{AccessPattern, DbFootprint, FootprintConfig};
use wave_pcie::{PteType, SocPteMode};
use wave_queue::Transport;
use wave_sim::cpu::{CoreClass, CpuModel};
use wave_sim::par::par_map;
use wave_sim::SimTime;

use crate::shard::ShardedSolRunner;
use crate::sol::SolConfig;

/// One entry of the host→agent delta-compressed PTE stream (§4.2): the
/// access-bit delta for one 64-page batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PteDelta {
    /// Batch index, or `u32::MAX` for the header-only heartbeat sent
    /// when no batch is due (the stream always ships its header).
    pub batch: u32,
}

impl PteDelta {
    /// The header-only stream entry shipped when nothing is due.
    pub const HEARTBEAT: PteDelta = PteDelta { batch: u32::MAX };
}

/// A staged migration decision: re-tier `batch` per its fresh
/// classification. Shipped to the host in bulk by the `dma_out` leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationDecision {
    /// The page batch to migrate.
    pub batch: u32,
    /// `true` to promote to the fast tier, `false` to demote.
    pub hot: bool,
}

/// Configuration of one SOL deployment.
#[derive(Debug, Clone, Copy)]
pub struct RunnerConfig {
    /// Where the agent runs.
    pub placement: CoreClass,
    /// Agent threads (1–16 in the paper's sweep).
    pub cores: u32,
    /// Host-reference serial scan cost per batch.
    pub scan_ns_per_batch: u64,
    /// Host-reference parallel classification cost per batch.
    pub classify_ns_per_batch: u64,
    /// Wire bytes per batch of the delta-compressed PTE stream. The
    /// paper's full-address-space transfer takes ~1 ms; 213 MB of raw
    /// PTEs at 20 GB/s would take ~10 ms, so the stream is ~10:1
    /// compressed ⇒ ~51 B per 64-page batch.
    pub wire_bytes_per_batch: u64,
}

impl RunnerConfig {
    /// The paper's deployment at a given placement and thread count.
    pub fn paper(placement: CoreClass, cores: u32) -> Self {
        assert!(cores >= 1, "need at least one agent core");
        RunnerConfig {
            placement,
            cores,
            scan_ns_per_batch: 689,
            classify_ns_per_batch: 802,
            wire_bytes_per_batch: 51,
        }
    }

    /// The runtime configuration for a batch space of `n` batches:
    /// DMA-Async ingest carrying the delta-compressed PTE stream, one
    /// decision slot id per batch. Capacity leaves headroom for the lazy head
    /// publication (`capacity / 4`), so a full rescan always fits after
    /// one credit refresh.
    pub(crate) fn runtime_config(&self, n: usize) -> RuntimeConfig {
        RuntimeConfig {
            queue_capacity: 2 * n as u64 + 8,
            msg_words: self.wire_bytes_per_batch.div_ceil(8).max(1),
            decision_words: 2,
            slots: n as u32,
            msg_transport: Transport::Dma,
            wire_bytes_per_msg: Some(self.wire_bytes_per_batch),
            msg_pte: PteType::WriteCombining,
            decision_pte: PteType::WriteThrough,
            soc_pte: SocPteMode::WriteBack,
            pickup: SimTime::ZERO,
        }
    }
}

/// Cost breakdown of one policy iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationCost {
    /// PTE DMA into agent memory.
    pub dma_in: SimTime,
    /// Serial scan/bookkeeping phase.
    pub scan: SimTime,
    /// Parallel classification phase (already divided by cores).
    pub classify: SimTime,
    /// Migration-decision DMA back to the host.
    pub dma_out: SimTime,
}

impl IterationCost {
    /// Total wall-clock duration of the iteration.
    pub fn total(&self) -> SimTime {
        self.dma_in + self.scan + self.classify + self.dma_out
    }

    /// The all-zero cost of an iteration that did no work (e.g. a dead
    /// shard awaiting restart).
    pub fn idle() -> Self {
        IterationCost {
            dma_in: SimTime::ZERO,
            scan: SimTime::ZERO,
            classify: SimTime::ZERO,
            dma_out: SimTime::ZERO,
        }
    }
}

/// Seed of the footprint and policy behind [`duration_table`]. The legs
/// depend only on the batch count — at t=0 every batch is due, and
/// `dma_out` ships a quarter of the ingest bytes, not the flips — so the
/// table reads the same at any seed.
const TABLE_SEED: u64 = 42;

/// The §7.4.2 duration table over the paper's full 100 GiB address space
/// (417,792 batches): for each core count, the legs of one first
/// iteration (every batch due) of a single agent (K=1
/// [`ShardedSolRunner`]), on the NIC and on the host, the cells fanned
/// out across threads. Returns `(cores, wave, onhost)`.
pub fn duration_table(core_counts: &[u32]) -> Vec<(u32, IterationCost, IterationCost)> {
    let fp = DbFootprint::new(
        FootprintConfig::paper(1.0),
        AccessPattern::Scattered,
        TABLE_SEED,
    );
    let cells: Vec<(u32, CoreClass)> = core_counts
        .iter()
        .flat_map(|&cores| [(cores, CoreClass::NicArm), (cores, CoreClass::HostX86)])
        .collect();
    let legs = par_map(&cells, |&(cores, placement)| {
        let mut agent = ShardedSolRunner::new(
            RunnerConfig::paper(placement, cores),
            CpuModel::mount_evans(),
            1,
            SolConfig::paper(),
            fp.batches(),
            TABLE_SEED,
        );
        agent.run_iteration(&fp, SimTime::ZERO).1.per_shard[0]
    });
    core_counts
        .iter()
        .zip(legs.chunks_exact(2))
        .map(|(&cores, cell)| (cores, cell[0], cell[1]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's §7.4.2 table (ms): `(cores, wave, on-host)`.
    const PAPER: [(u32, f64, f64); 5] = [
        (1, 1_018.0, 623.0),
        (2, 576.0, 431.0),
        (4, 437.0, 354.0),
        (8, 384.0, 322.0),
        (16, 364.0, 309.0),
    ];

    fn world() -> DbFootprint {
        DbFootprint::new(FootprintConfig::paper(0.001), AccessPattern::Scattered, 3)
    }

    /// The single-agent deployment (K=1) of `cores` threads at `placement`.
    fn single_agent(fp: &DbFootprint, placement: CoreClass, cores: u32) -> ShardedSolRunner {
        ShardedSolRunner::new(
            RunnerConfig::paper(placement, cores),
            CpuModel::mount_evans(),
            1,
            SolConfig::paper(),
            fp.batches(),
            4,
        )
    }

    #[test]
    fn duration_table_matches_paper() {
        let table = duration_table(&[1, 2, 4, 8, 16]);
        for ((cores, wave, onhost), (pc, pw, po)) in table.into_iter().zip(PAPER) {
            let (wave, onhost) = (wave.total().as_ms_f64(), onhost.total().as_ms_f64());
            assert_eq!(cores, pc);
            let werr = (wave - pw).abs() / pw;
            let oerr = (onhost - po).abs() / po;
            // The 1- and 16-core rows pin the two-phase fit, so they sit
            // within 3%. The paper's own 2-core Wave point is faster than
            // a serial + parallel split of its endpoints allows, so the
            // mid-points get a looser bound.
            let bound = if cores == 1 || cores == 16 {
                0.03
            } else {
                0.17
            };
            assert!(
                werr < bound,
                "{cores} cores wave {wave:.0} vs paper {pw} ({werr:.2})"
            );
            assert!(
                oerr < bound,
                "{cores} cores onhost {onhost:.0} vs paper {po} ({oerr:.2})"
            );
        }
    }

    #[test]
    fn pte_dma_is_about_1ms() {
        // "Transferring the page table entries with DMA for the entire
        // RocksDB address space takes ~1 ms."
        let (_, wave, _) = duration_table(&[16])[0];
        let dma_ms = wave.dma_in.as_ms_f64();
        assert!((0.7..=1.5).contains(&dma_ms), "dma {dma_ms} ms");
    }

    #[test]
    fn more_cores_shrink_only_parallel_phase() {
        let fp = world();
        let first = |cores| {
            let mut agent = single_agent(&fp, CoreClass::NicArm, cores);
            agent.run_iteration(&fp, SimTime::ZERO).1.per_shard[0]
        };
        let (one, sixteen) = (first(1), first(16));
        assert_eq!(one.scan, sixteen.scan, "serial phase unaffected");
        assert!(sixteen.classify < one.classify / 10);
    }

    #[test]
    fn real_iteration_runs() {
        let fp = world();
        let mut one = single_agent(&fp, CoreClass::NicArm, 16);
        let (stats, cost) = one.run_iteration(&fp, SimTime::ZERO);
        assert_eq!(stats.scanned as usize, fp.batches());
        assert!(cost.wall() > SimTime::ZERO);
    }

    #[test]
    fn iteration_ships_classification_flips() {
        let fp = world();
        let mut one = single_agent(&fp, CoreClass::NicArm, 16);
        one.run_iteration(&fp, SimTime::ZERO);
        // The first scan flips a bunch of optimistic hot batches cold;
        // each flip must have been staged and shipped through the outbox.
        let shipped = one.shipped_decisions();
        assert!(shipped > 0);
        let rt = one.shard_runtime(0);
        assert_eq!(rt.staged_count(), 0, "outbox drained by ship");
        assert_eq!(rt.decisions(), shipped);
        let rcfg = one.config().runtime_config(fp.batches());
        assert_eq!(rcfg.msg_transport, Transport::Dma);
    }

    #[test]
    fn heartbeat_iteration_when_nothing_due() {
        // Right after a full scan nothing is due: the stream still ships
        // its header and the iteration charges the single-batch floor.
        let fp = world();
        let mut one = single_agent(&fp, CoreClass::NicArm, 16);
        one.run_iteration(&fp, SimTime::ZERO);
        // 1 ms later no batch has its next scan due yet (base 600 ms).
        let (stats, cost) = one.run_iteration(&fp, SimTime::from_ms(1));
        assert_eq!(stats.scanned, 0);
        assert!(cost.wall() > SimTime::ZERO);
    }
}
