//! # wave-memmgr — the memory-management substrate and SOL policy
//!
//! The paper's second offload (§4.2/§7.4): memory tiering. The host
//! kernel keeps the mechanisms (page tables, fault handlers, TLB
//! shootdowns); the Wave agent runs **SOL**, an ML policy that classifies
//! 256 KiB page batches as hot or cold with Thompson sampling over a
//! Beta prior, scans access bits on a per-batch frequency ladder
//! (600 ms … 9.6 s), and migrates between tiers once per 38.4 s epoch.
//!
//! * [`sol`] — the SOL policy proper: per-batch Beta posterior, Thompson
//!   classification, the scan-frequency ladder, epoch migration. Runs
//!   for real against the [`wave_kvstore::DbFootprint`] workload model.
//! * [`runner`] — the deployment model: [`RunnerConfig`] (the two-phase
//!   per-batch costs — serial memory-bound scan + parallel compute-bound
//!   classification — fitted to the paper's §7.4.2 endpoints), the PTE
//!   deltas and migration decisions the agent exchanges with the host,
//!   and the §7.4.2 duration table, read off real single-agent
//!   iterations ([`runner::duration_table`]).
//! * [`shard`] — the agent itself, run on the shared
//!   [`wave_core::runtime::AgentRuntime`] (DMA transport):
//!   [`ShardedSolRunner`] partitions the batch space across K agent
//!   runtimes, each with its own PTE-delta stream, decision outbox,
//!   policy, and DMA channel. K=1 is the single agent;
//!   K>1 fans out on real OS threads, and each shard reports its own
//!   iteration legs.

pub mod runner;
pub mod shard;
pub mod sol;

pub use runner::{IterationCost, MigrationDecision, PteDelta, RunnerConfig};
pub use shard::{ShardedCost, ShardedSolRunner};
pub use sol::{SolConfig, SolPolicy, SolStats};
