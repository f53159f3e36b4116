//! The paper's four ported scheduling policies.
//!
//! * [`FifoPolicy`] — run-to-completion FIFO (§7.2.2): minimal compute,
//!   maximal interaction rate; the policy used to stress Wave's queues.
//! * [`ShinjukuPolicy`] — single-queue Shinjuku (§7.2.3): round-robin
//!   with time-slice preemption so short requests do not languish behind
//!   10 ms RANGE queries.
//! * [`MultiQueueShinjuku`] — per-SLO-class queues (§7.3.2), used when
//!   the RPC stack shares its SLO annotations with the scheduler.
//! * [`VmPolicy`] — the GCE/Tableau-style virtual-machine policy
//!   (§7.2.4): FIFO round-robin with 7.5 ms slices.

mod fifo;
mod multiqueue;
mod shinjuku;
mod vm;

pub use fifo::FifoPolicy;
pub use multiqueue::MultiQueueShinjuku;
pub use shinjuku::ShinjukuPolicy;
pub use vm::VmPolicy;
