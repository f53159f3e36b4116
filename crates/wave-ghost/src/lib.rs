//! # wave-ghost — the kernel thread-scheduling substrate
//!
//! The paper offloads *ghOSt* — Linux's userspace-delegated scheduling
//! class — to SmartNIC agents (§4.1). This crate rebuilds that substrate
//! on the Wave stack:
//!
//! * [`arena`] — the generational [`ThreadTable`] slab every per-thread
//!   lookup resolves through, plus the intrusive [`arena::ThreadQueue`]
//!   run queues the policies link through its rows (the hot-path data
//!   layout; see `docs/ARCHITECTURE.md`).
//! * [`msg`] — the thread-lifecycle message stream the kernel sends the
//!   agent (wakeup/preempted/dead), as in ghOSt.
//! * [`policy`] — the policy trait an agent runs, plus thread metadata
//!   (service estimates, SLO classes).
//! * [`policies`] — the paper's ported µs-scale policies: FIFO
//!   run-to-completion, Shinjuku (30 µs preemption) and multi-queue
//!   Shinjuku (per-SLO queues, §7.3.2).
//! * [`slots`] — per-core decision slots in SmartNIC DRAM (the paper's
//!   Fig. 2 "Core 0 Queue / Core 1 Queue"), supporting prestaging,
//!   prefetching and the software coherence protocol.
//! * [`cost`] — the calibrated host-side cost model (kernel context
//!   switch, event bookkeeping, commit path).
//! * [`sim`] — the end-to-end scheduling simulation behind Figures 4a/4b,
//!   the §7.2.2 ablation and Table 3's context-switch rows: a host kernel
//!   (load generator, worker cores, commit) and agent shards (on host or
//!   NIC) that meet in one function per Table 1 crossing of the Wave
//!   communication path.
//!
//! The same simulation code runs every scenario; only the
//! [`Placement`] (host vs. NIC agent) and
//! [`OptLevel`](wave_core::OptLevel) differ — the paper's
//! "apples-to-apples" methodology.

pub mod arena;
pub mod cost;
pub mod msg;
pub mod policies;
pub mod policy;
pub mod sim;
pub mod slots;

pub use arena::{ThreadQueue, ThreadRun, ThreadTable};
pub use cost::CostModel;
pub use msg::{CpuId, SchedMsg, SchedMsgKind, Tid};
pub use policy::{SchedPolicy, SloClass, ThreadMeta};
pub use sim::{
    HostCompletion, Placement, SchedConfig, SchedReport, SchedSim, SchedStepper, ServiceMix,
};
pub use slots::SlotDecision;
