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
//! | [`table3`] | Table 3 — scheduling microbenchmarks, measured on `SchedSim` |
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
//! | [`fleet`] | a simulated datacenter of Wave hosts, bit-identical down the executor's worker axis |
//!
//! Every saturation row (Figs. 4a/4b, the §7.2.2 ablation, Figs. 6a/6b
//! and §7.3.3) comes from [`saturation`]: one p99-capped search over a
//! figure's [`SchedConfig`], bracketed by
//! [`SchedConfig::worker_capacity`]. A figure module only builds the
//! config for each of its scenarios.
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

use wave_ghost::policy::SchedPolicy;
use wave_ghost::sim::{SchedConfig, SchedSim};

/// Saturation throughput (req/s): the highest achieved throughput at
/// which `base`'s p99 stays at or under `p99_cap_us` — the paper's
/// definition in Figs. 4 and 6 and §7.3.3.
///
/// A point is feasible when its p99 is under the cap and it serves at
/// least 90% of its offer. The search brackets at 1.3 ×
/// [`SchedConfig::worker_capacity`], walks a feasible start down from
/// 0.3 × that bracket (×0.7, at most 6 times), then bisects 9 times.
/// Only `base`'s offered rate is changed; each point runs a fresh
/// policy from `make_policy`. Returns 0.0 when no point is feasible.
pub fn saturation(
    base: &SchedConfig,
    make_policy: impl Fn() -> Box<dyn SchedPolicy>,
    p99_cap_us: f64,
) -> f64 {
    let feasible = |offered: f64| {
        let mut sc = base.clone();
        sc.workload.set_offered(offered);
        let rep = SchedSim::new(sc, make_policy()).run();
        (rep.latency.p99.as_us_f64() <= p99_cap_us && rep.achieved >= offered * 0.9)
            .then_some(rep.achieved)
    };
    let mut hi = base.worker_capacity() * 1.3;
    let mut lo = hi * 0.3;
    let mut best = 0.0f64;
    for _ in 0..6 {
        if let Some(achieved) = feasible(lo) {
            best = achieved;
            break;
        }
        hi = lo;
        lo *= 0.7;
    }
    for _ in 0..9 {
        let mid = (lo + hi) / 2.0;
        match feasible(mid) {
            Some(achieved) => {
                best = best.max(achieved);
                lo = mid;
            }
            None => hi = mid,
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use wave_core::workload::{ServiceMix, WorkloadSpec};
    use wave_core::OptLevel;
    use wave_ghost::policies::FifoPolicy;
    use wave_ghost::sim::Placement;
    use wave_sim::SimTime;

    /// A short FIFO host on 10 µs GETs, cheap enough for debug builds.
    fn short_fifo() -> SchedConfig {
        let mut sc = SchedConfig::new(4, Placement::Offloaded, OptLevel::full());
        sc.duration = SimTime::from_ms(12);
        sc.warmup = SimTime::from_ms(2);
        sc
    }

    #[test]
    fn worker_capacity_is_workers_over_mean_service_plus_overhead() {
        let mut sc = SchedConfig::new(15, Placement::OnHost, OptLevel::full());
        sc.workload = WorkloadSpec::poisson(ServiceMix::paper_bimodal(), 1.0);
        // 0.995 × 10 µs + 0.005 × 10 ms = 59.95 µs, plus 4.8 µs overhead.
        assert!((sc.worker_capacity() - 15.0 / 64.75e-6).abs() < 1e-6);
    }

    #[test]
    fn saturation_is_zero_when_the_cap_is_below_the_service_time() {
        let sat = saturation(&short_fifo(), || Box::new(FifoPolicy::new()), 5.0);
        assert_eq!(sat, 0.0);
    }

    #[test]
    fn saturation_with_a_generous_cap_lands_near_capacity() {
        let sc = short_fifo();
        let cap = sc.worker_capacity();
        let sat = saturation(&sc, || Box::new(FifoPolicy::new()), 1_000.0);
        assert!(
            sat > 0.5 * cap && sat <= 1.3 * cap,
            "saturation {sat:.0} vs capacity {cap:.0}"
        );
    }
}
