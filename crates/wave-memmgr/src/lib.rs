//! # wave-memmgr — the memory-management substrate and SOL policy
//!
//! The paper's second offload (§4.2/§7.4): memory tiering. The host
//! kernel keeps the mechanisms (page tables, fault handlers, TLB
//! shootdowns); the Wave agent runs **SOL**, an ML policy that classifies
//! 256 KiB page batches as hot or cold with Thompson sampling over a
//! Beta prior, scans access bits on a per-batch frequency ladder
//! (600 ms … 9.6 s), and migrates between tiers once per 38.4 s epoch.
//!
//! * [`pagetable`] — address spaces, PTEs with access/dirty bits, batch
//!   views, scan costs (TLB flush per batch).
//! * [`sol`] — the SOL policy proper: per-batch Beta posterior, Thompson
//!   classification, the scan-frequency ladder, epoch migration. Runs
//!   for real against the [`wave_kvstore::DbFootprint`] workload model.
//! * [`runner`] — on-host vs. offloaded execution on the shared
//!   [`wave_core::runtime::AgentRuntime`] (DMA transport): the two-phase
//!   cost model (serial memory-bound scan + parallel compute-bound
//!   classification) whose constants are derived in closed form from the
//!   paper's §7.4.2 duration table, the DMA shipping of PTE deltas in
//!   and migration decisions out, plus a real multi-threaded
//!   classification executor.
//! * [`shard`] — the §6 scale-out applied to §4.2: the batch space
//!   partitioned across K agent runtimes ([`ShardedSolRunner`]), each
//!   with its own PTE-delta stream, batch-indexed decision slots,
//!   policy, and DMA channel, executing on real OS threads; per-shard iteration
//!   costs merge with explicit serial/parallel phase attribution.

pub mod pagetable;
pub mod runner;
pub mod shard;
pub mod sol;

pub use pagetable::{AddressSpace, BatchId, PageFlags};
pub use runner::{
    IterationCost, MigrationDecision, MigrationStager, PteDelta, RunnerConfig, SolRunner,
};
pub use shard::{sharded_iteration_cost, ShardedCost, ShardedSolRunner};
pub use sol::{SolConfig, SolPolicy, SolStats};
