//! # wave-kvstore — the RocksDB-like database footprint
//!
//! The paper evaluates Wave against RocksDB in two roles. The µs-scale
//! request workload (§7.2/§7.3: 10 µs GETs, 10 ms RANGE queries) is
//! generated by `wave_core::workload` (`ServiceMix` + `PoissonSource`).
//! This crate covers the other role: **a large address space for memory
//! tiering** (§7.4) — a ~100 GiB database whose page-access pattern SOL
//! learns. The [`footprint`] module models the database's pages,
//! batches, and skewed access pattern without allocating 100 GiB.

pub mod footprint;

pub use footprint::{AccessPattern, DbFootprint, FootprintConfig};
