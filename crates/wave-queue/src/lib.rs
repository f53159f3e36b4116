//! # wave-queue — Floem-style host→SmartNIC shared-memory queues
//!
//! Wave's host→SmartNIC message path is a unidirectional shared-memory
//! queue (§5.3): the host produces kernel-state messages, the agent polls
//! them. Decisions travel the other way through per-resource slots in
//! SmartNIC DRAM (`wave_core::runtime::SlotTable`) or one batched DMA
//! (`wave_core::runtime::AgentRuntime::dma_ship_staged`), not through a
//! queue. This crate implements the message queue on top of the
//! [`wave_pcie`] interconnect model, reproducing the Floem design the
//! paper builds on:
//!
//! * **Per-entry valid flags**: the producer marks an entry valid only
//!   after fully writing it, so the consumer never reads a torn entry.
//!   In the model, each entry becomes visible on the consumer's side of
//!   the link at an absolute time; the queue stores those times once per
//!   run of consecutive entries that share one (one flush releases every
//!   buffered entry at the same instant), not once per entry.
//! * **MMIO or DMA backing** (`SET_QUEUE_TYPE`): MMIO queues live in
//!   SmartNIC DRAM and are written by the host through
//!   [`wave_pcie::HostMmio`], so write-combining buffers hide entries
//!   until a fence. DMA queues stage entries locally and ship them in
//!   asynchronous batches through [`wave_pcie::DmaEngine`].
//! * **Lazy head synchronization** (after iPipe): the producer learns the
//!   consumer's progress only from a periodically-published head pointer,
//!   avoiding a PCIe round trip per push; it pays the expensive head read
//!   only when its credits run out.
//!
//! The queue is *typed*: `WaveQueue<T>` carries real payload values of
//! `T` so the agent runtime gets lossless, order-preserving delivery
//! with accurately-costed timing.

pub mod queue;

pub use queue::{PushError, PushOutcome, QueueStats, Rejected, Transport, WaveQueue};
