//! # wave-core — the Wave offload API
//!
//! This crate implements the host↔SmartNIC API of the paper's Table 1.
//! Each agent is one [`runtime::AgentRuntime`]: a host→NIC message
//! queue plus its staged decisions — one slot per resource over MMIO, or
//! an outbox shipped in one DMA per iteration — and the agent's liveness
//! and serial compute clock.
//!
//! | Table 1 | Here |
//! |---|---|
//! | `START_WAVE_AGENT`, `CREATE_QUEUE`, `SET_QUEUE_TYPE` | [`AgentRuntime::new`] with a [`RuntimeConfig`] (transport, PTE types) |
//! | `KILL_WAVE_AGENT` | [`AgentRuntime::kill`] (the §6 restart is [`AgentRuntime::restart`]) |
//! | `SEND_MESSAGES` (host) | [`AgentRuntime::host_send`] + [`AgentRuntime::host_flush`] |
//! | `POLL_MESSAGES` (NIC) | [`AgentRuntime::poll_into`] |
//! | `TXN_CREATE`, `TXNS_COMMIT` (NIC) | the agent builds the decision and calls [`AgentRuntime::stage`], then an MSI-X kick (`ic.msix.send`) |
//! | `PREFETCH_TXNS` (host) | [`SlotTable::host_prefetch`] |
//! | `POLL_TXNS` (host) | MMIO: [`SlotTable::host_invalidate`] + [`SlotTable::host_consume`] per slot; DMA: [`AgentRuntime::dma_ship_staged`], one batched transfer of the outbox (no slot table is mapped) |
//! | `SET_TXNS_OUTCOMES` / `POLL_TXNS_OUTCOMES` | the consumer's own commit check on the host (the scheduler: `wave_ghost`'s thread arena); failures are host-side counts, not queue traffic |
//!
//! The key semantic — inherited from ghOSt and made *more* important by
//! the PCIe latency — is that agent decisions are **committed atomically
//! as transactions**: every decision names its target resource at the
//! generation the agent observed; the host kernel validates the
//! generation at enforcement time and cleanly fails the decision if the
//! resource changed or died in the meantime (e.g. "an agent attempts to
//! update page table entries for an application that simultaneously
//! exits", §3.2). The runtime carries any decision type, so the
//! generation travels in the decision itself: the scheduler stages a
//! generation-stamped thread id, and its kernel commits it only while
//! that id still resolves in the thread arena.
//!
//! Layout:
//!
//! * [`runtime`] — the reusable agent-runtime layer: one agent's
//!   message queue + staged decisions (slot table or outbox) + pump
//!   gating + lifecycle (kill, restart) and serial compute clock; the
//!   caller runs
//!   its own policy and stages the decisions it builds
//!   ([`runtime::AgentRuntime::stage`]). It is generic over the
//!   ingest transport (MMIO message queues for the scheduler, batched
//!   delta-compressed DMA for the memory manager). Sharded deployments
//!   instantiate one [`runtime::AgentRuntime`] per agent.
//! * [`shard_map`] — dynamic, load-aware shard ownership on top of the
//!   runtime layer: a generation-stamped [`shard_map::ShardMap`] from
//!   resource index to owning shard plus a pluggable, epoch-driven
//!   [`shard_map::Rebalancer`], used by both sharded agents to move
//!   cores/batches between shards when load counters stay skewed.
//! * [`tenant`] — the multi-tenant service layer: a
//!   [`tenant::TenantRegistry`] admits T tenants' agent bundles onto
//!   one NIC, splits its pump capacity into weighted-fair or FIFO
//!   shares ([`tenant::TenantRegistry::shares`]), and hands out a
//!   bounded MSI-X vector table with degraded-polling fallback on
//!   exhaustion.
//! * [`watchdog`] — the per-component on-host watchdog (§3.3: kill an
//!   agent that has made no decision for >20 ms).
//! * [`opts`] — the optimization toggles of §5.3/§5.4, used by every
//!   ablation in the evaluation.
//! * [`workload`] — streaming workload generation: the
//!   [`workload::WorkloadSource`] trait with Poisson, CSV-trace, and
//!   deterministic synthetic-production-trace sources, the
//!   [`workload::WorkloadSpec`] config value consumers embed, and the
//!   [`workload::PhaseSchedule`] phase stream for the memory agent.

pub mod opts;
pub mod runtime;
pub mod shard_map;
pub mod tenant;
pub mod watchdog;
pub mod workload;

pub use opts::OptLevel;
pub use runtime::{AgentRuntime, DmaShipment, RuntimeConfig, SlotId, SlotTable};
pub use shard_map::{
    FeedDemand, RebalanceConfig, RebalanceEvent, RebalancePolicy, Rebalancer, ResourceMove,
    ShardMap, ShedLoad,
};
pub use tenant::{Arbitration, TenantBinding, TenantId, TenantRegistry, TenantSpec};
pub use watchdog::Watchdog;
pub use workload::{
    MemPhase, MixEntry, PhaseSchedule, PoissonClock, PoissonSource, ServiceMix, SloClass,
    SyntheticConfig, SyntheticTraceGenerator, Task, TraceRecord, TraceSource, WorkloadSource,
    WorkloadSpec,
};
