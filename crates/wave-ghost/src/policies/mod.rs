//! The paper's ported µs-scale scheduling policies.
//!
//! * [`FifoPolicy`] — run-to-completion FIFO (§7.2.2): minimal compute,
//!   maximal interaction rate; the policy used to stress Wave's queues.
//! * [`ShinjukuPolicy`] — single-queue Shinjuku (§7.2.3): round-robin
//!   with time-slice preemption so short requests do not languish behind
//!   10 ms RANGE queries.
//! * [`MultiQueueShinjuku`] — per-SLO-class queues (§7.3.2), used when
//!   the RPC stack shares its SLO annotations with the scheduler.
//!
//! The §7.2.4 VM-scheduling result (Fig. 5) is a turbo-frequency effect
//! and comes from the closed-form `wave_sim::turbo` model, not a policy.

mod fifo;
mod multiqueue;
mod shinjuku;

pub use fifo::FifoPolicy;
pub use multiqueue::MultiQueueShinjuku;
pub use shinjuku::ShinjukuPolicy;
