//! # wave-lab — the experiment harness
//!
//! One module per table/figure of the paper's evaluation (§7). Every
//! module exposes:
//!
//! * a `*Config` with a `paper()` (full-fidelity) and `quick()` (CI-
//!   speed) constructor,
//! * a runner that produces a plain result struct, and
//! * a `report()` pretty-printer emitting a *paper vs. measured* table.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table2`] | Table 2 — hardware microbenchmarks |
//! | [`table3`] | Table 3 — scheduling microbenchmarks |
//! | [`fig4`] | Fig. 4a/4b + the §7.2.2 optimization ablation |
//! | [`fig5`] | Fig. 5a/5b — VM scheduling vs. timer ticks |
//! | [`fig6`] | Fig. 6a/6b — RPC stack placement scenarios |
//! | [`upi`] | §7.3.3 — coherent-interconnect emulation |
//! | [`mem`] | §7.4 — SOL iteration durations & footprint reduction |
//! | [`scaling`] | §6 scale-out — scheduler throughput vs agent count |
//! | [`mem_scaling`] | §6 scale-out — SOL iteration duration vs shard count |
//! | [`rebalance`] | dynamic shard rebalancing under skewed load, both agents |
//! | [`traces`] | trace-driven production workloads (diurnal/bursty/heavy-tailed), both agents |
//! | [`tenancy`] | multi-tenant NIC — victim p99 isolation under a flooding neighbor |
//! | [`fleet`] | fleet-scale parallel execution — a simulated datacenter of Wave hosts |
//!
//! Independent load points run in parallel on `std::thread` workers
//! ([`wave_sim::par::par_map`]); each point is its own deterministic
//! simulation. Host-side performance (wall, CPU, RSS) is measured by the
//! separate `wavebench` benchmark, not here.

pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fleet;
pub mod mem;
pub mod mem_scaling;
pub mod rebalance;
pub mod report;
pub mod scaling;
pub mod table2;
pub mod table3;
pub mod tenancy;
pub mod traces;
pub mod upi;

pub use report::{LatencyCdf, PaperRow, Report};
