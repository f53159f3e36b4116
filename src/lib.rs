//! # Wave — offloading resource management to SmartNIC cores
//!
//! This is the façade crate of the Wave workspace, a full reproduction of
//! *"Wave: Offloading Resource Management to SmartNIC Cores"* (ASPLOS'25).
//! It re-exports every sub-crate so downstream users can depend on a single
//! crate:
//!
//! * [`sim`] — deterministic discrete-event simulation engine, RNG
//!   distributions, statistics, CPU/turbo models.
//! * [`pcie`] — the host↔SmartNIC interconnect substrate: MMIO with PTE
//!   typing (UC/WC/WT/WB), DMA engine, MSI-X, software coherence, and a
//!   coherent (UPI/CXL-style) mode.
//! * [`queue`] — the Floem-style host→SmartNIC message queue over MMIO or
//!   DMA.
//! * [`core`] — the Wave API of the paper's Table 1 on one agent runtime
//!   (message queue + staged decisions), generation-validated transactions,
//!   agents, and the watchdog.
//! * [`ghost`] — the ghOSt-style scheduling substrate plus the FIFO,
//!   Shinjuku and multi-queue Shinjuku policies.
//! * [`memmgr`] — the memory-management substrate plus the SOL
//!   Thompson-sampling tiering policy.
//! * [`rpc`] — the Stubby-style RPC stack substrate with packet steering.
//! * [`fleet`] — a simulated datacenter of Wave hosts: fat-tree fabric,
//!   fleet load balancing, and the conservative parallel executor.
//! * [`kvstore`] — the RocksDB-like µs-scale workload and load generators.
//! * [`lab`] — the experiment harness that regenerates every table and
//!   figure of the paper's evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use wave::ghost::{policies::FifoPolicy, SchedSim};
//! use wave::lab::fig4::{sched_config, Fig4Config, Scenario};
//!
//! // Run one load point of the paper's Figure 4a FIFO experiment.
//! let mut sc = sched_config(&Fig4Config::fifo_quick(), Scenario::Wave16);
//! sc.workload.set_offered(200_000.0);
//! let report = SchedSim::new(sc, Box::new(FifoPolicy::new())).run();
//! assert!(report.completed > 0);
//! ```

pub use wave_core as core;
pub use wave_fleet as fleet;
pub use wave_ghost as ghost;
pub use wave_kvstore as kvstore;
pub use wave_lab as lab;
pub use wave_memmgr as memmgr;
pub use wave_pcie as pcie;
pub use wave_queue as queue;
pub use wave_rpc as rpc;
pub use wave_sim as sim;
