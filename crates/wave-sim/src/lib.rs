//! # wave-sim — deterministic discrete-event simulation engine
//!
//! The Wave paper evaluates its mechanisms on an Intel Mount Evans SmartNIC
//! attached to an AMD Zen3 host over PCIe. This crate is the foundation of
//! our hardware substitution: a deterministic discrete-event simulator
//! (DES) in which every other crate of the workspace models its latencies.
//!
//! The engine is deliberately minimal and fully deterministic:
//!
//! * [`SimTime`] is virtual time in integer nanoseconds.
//! * [`Sim`] is an event loop over a plain event type `E` (typically a
//!   model's own `enum`): events fire in `(time, sequence-number)` order
//!   up to an optional horizon, each handed to the handler passed to
//!   [`Sim::run`]. They sit inline in one binary heap (see [`engine`]), so
//!   a steady-state simulation does not allocate per event. Events cannot
//!   be cancelled; a model drops a stale timer with its own token.
//! * [`dist`] provides the random distributions the experiments need
//!   (exponential inter-arrivals, Pareto service times, Gamma/Beta for
//!   SOL's Thompson sampling) built on a seeded [`rand::rngs::SmallRng`].
//! * [`stats`] provides log-bucketed latency histograms and time series.
//! * [`cpu`] and [`turbo`] model host x86 cores vs. SmartNIC ARM cores,
//!   SMT siblings, per-workload-class slowdown ratios, and the bracketed
//!   turbo-boost governor needed for the paper's Figure 5.
//! * [`par`] fans independent simulation units (experiment grid cells,
//!   agent shards) out across OS threads without affecting determinism.
//!
//! ## Example
//!
//! ```
//! use wave_sim::{Sim, SimTime};
//!
//! enum Event { Tick, Spawn }
//!
//! let mut sim = Sim::new();
//! sim.schedule(SimTime::from_us(5), Event::Tick);
//! sim.schedule(SimTime::from_us(1), Event::Spawn);
//! let mut fired = 0;
//! sim.run(|s, ev| {
//!     fired += 1;
//!     if let Event::Spawn = ev {
//!         // Events may schedule further events.
//!         s.schedule(s.now() + SimTime::from_us(1), Event::Tick);
//!     }
//! });
//! assert_eq!(fired, 3);
//! assert_eq!(sim.now(), SimTime::from_us(5));
//! ```

#![forbid(unsafe_code)]

pub mod cpu;
pub mod dist;
pub mod engine;
pub mod fleet;
pub mod par;
pub mod stats;
pub mod time;
pub mod turbo;

pub use engine::Sim;
pub use time::SimTime;

/// Convenience constructor for the deterministic RNG used across the
/// workspace.
///
/// All Wave experiments are seeded so that a run is exactly reproducible;
/// property tests rely on this to assert determinism of whole simulations.
pub fn rng(seed: u64) -> rand::rngs::SmallRng {
    use rand::SeedableRng;
    rand::rngs::SmallRng::seed_from_u64(seed)
}
