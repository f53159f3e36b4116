//! # wave-rpc — the Stubby-style RPC stack substrate
//!
//! The paper's third offload (§4.3/§7.3) moves an RPC stack's
//! **packet-to-host-core steering policy** (and data plane) onto the
//! SmartNIC, co-located with the thread scheduler. This crate provides:
//!
//! * [`scenario`] — the three Fig. 6 scenarios (OnHost-All,
//!   OnHost-Schedule, Offload-All) as ready-to-run scheduling-simulation
//!   configurations, each with its RPC stack's placement and per-RPC
//!   costs as the simulation's ingress.
//! * [`steering`] — hardware-style RSS flow hashing, which the fleet
//!   frontdoor's `Hash` balancer uses to pick a host.

pub mod scenario;
pub mod steering;

pub use scenario::{Fig6Scenario, SchedulerKind};
pub use steering::rss;
