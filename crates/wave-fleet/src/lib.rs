//! # wave-fleet — a simulated datacenter of Wave hosts
//!
//! The paper evaluates one host: a SmartNIC-offloaded scheduler in
//! front of a handful of worker cores. This crate scales that out: `n`
//! complete hosts (each a [`wave_ghost::SchedSim`] with its own NIC
//! agent, worker cores, and policy) behind a fleet frontdoor that
//! load-balances one datacenter-level workload over them, connected by
//! a two-tier fat-tree fabric with per-link serialization queueing.
//!
//! The whole fleet runs on [`wave_sim::fleet::FleetExecutor`] — the
//! conservative parallel discrete-event executor. Each host keeps its
//! own logical clock; the executor advances all of them in bounded
//! windows whose width is the fabric's minimum one-way latency
//! ([`FabricConfig::min_latency`]), buffering cross-host messages and
//! delivering them at window barriers in deterministic
//! `(time, src, seq)` order. Results are **bit-identical for any worker
//! count**: `workers: 1` is the sequential reference, more workers are
//! purely a wall-clock optimization.
//!
//! ```
//! use wave_fleet::{FleetConfig, LbPolicy};
//!
//! let mut cfg = FleetConfig::quick(8);
//! cfg.lb = LbPolicy::LeastLoaded;
//! let a = cfg.clone().run();
//! cfg.workers = 4;
//! let b = cfg.run();
//! assert_eq!(a.fingerprint(), b.fingerprint()); // worker count is invisible
//! ```

pub mod fabric;
pub mod node;

use wave_core::workload::{ServiceMix, SloClass, WorkloadSpec};
use wave_core::OptLevel;
use wave_ghost::{Placement, SchedConfig, SchedPolicy};
use wave_sim::fleet::{FleetExecStats, FleetExecutor};
use wave_sim::stats::Summary;
use wave_sim::SimTime;

pub use fabric::{FabricConfig, FatTreeFabric};
pub use node::{FleetMsg, FleetNode, Frontdoor, FrontdoorStats, HostNode, LbPolicy};

/// Fleet-level SLO targets: round-trip deadline per SLO class.
///
/// Defaults follow the paper's bimodal RocksDB mix: 10 µs GETs (class
/// 0) are latency-critical with a 100 µs deadline; 10 ms RANGE scans
/// (class 1) are throughput-class with a 20 ms deadline.
#[derive(Debug, Clone)]
pub struct SloTargets(pub Vec<(SloClass, SimTime)>);

impl Default for SloTargets {
    fn default() -> Self {
        SloTargets(vec![
            (SloClass(0), SimTime::from_us(100)),
            (SloClass(1), SimTime::from_ms(20)),
        ])
    }
}

impl SloTargets {
    /// The deadline for a class, if one is configured.
    pub fn target(&self, class: SloClass) -> Option<SimTime> {
        self.0.iter().find(|(c, _)| *c == class).map(|&(_, t)| t)
    }
}

/// Configuration of one fleet run.
#[derive(Clone)]
pub struct FleetConfig {
    /// Number of Wave hosts.
    pub hosts: u32,
    /// Executor lanes: the hosts and the frontdoor are split into at most
    /// `workers` contiguous ranges, each advanced by one thread for the
    /// whole run. The calling thread is lane 0, so `workers: 1` spawns no
    /// thread and is the sequential reference; any value produces
    /// bit-identical results.
    pub workers: usize,
    /// Per-host template. Its `workload`, `warmup`, and `duration` are
    /// overwritten by the fleet driver; everything else (cores, agents,
    /// placement, opts, costs) applies to every host.
    pub host: SchedConfig,
    /// Scheduling policy, instantiated once per host.
    pub policy: fn() -> Box<dyn SchedPolicy>,
    /// The fleet-level workload. Its offered rate is the whole
    /// datacenter's; the frontdoor splits it over the hosts.
    pub workload: WorkloadSpec,
    /// How the frontdoor spreads requests.
    pub lb: LbPolicy,
    /// The fabric shape and link costs.
    pub fabric: FabricConfig,
    /// Emission window: the frontdoor generates load for this long.
    pub duration: SimTime,
    /// Completions of requests emitted before this are not measured.
    pub warmup: SimTime,
    /// Extra simulated time after `duration` for in-flight requests to
    /// drain back to the frontdoor.
    pub drain: SimTime,
    /// RNG seed (workload draws; per-host seeds are derived).
    pub seed: u64,
    /// Round-trip SLO deadlines per class.
    pub slo: SloTargets,
}

impl FleetConfig {
    /// A full-fidelity fleet: `hosts` hosts of 4 workers each running
    /// the paper's bimodal mix at 60% of the fleet's worker capacity,
    /// least-loaded balancing, 200 ms + drain.
    pub fn paper(hosts: u32) -> Self {
        let mut cfg = Self::quick(hosts);
        cfg.duration = SimTime::from_ms(200);
        cfg.warmup = SimTime::from_ms(20);
        cfg
    }

    /// A CI-speed fleet: same shape as [`paper`](Self::paper) but a
    /// 40 ms emission window.
    pub fn quick(hosts: u32) -> Self {
        assert!(hosts > 0, "a fleet needs at least one host");
        // The host template carries the fleet mix only so that its
        // `worker_capacity()` sizes the offer: 60% of the fleet's
        // capacity. Each host runs with an empty local workload.
        let mut host = SchedConfig::new(4, Placement::Offloaded, OptLevel::full());
        host.workload = WorkloadSpec::poisson(ServiceMix::paper_bimodal(), 1.0);
        let mut workload = host.workload.clone();
        workload.set_offered(0.6 * f64::from(hosts) * host.worker_capacity());
        FleetConfig {
            hosts,
            workers: 1,
            host,
            policy: || Box::new(wave_ghost::policies::FifoPolicy::new()),
            workload,
            lb: LbPolicy::LeastLoaded,
            fabric: FabricConfig::datacenter(),
            duration: SimTime::from_ms(40),
            warmup: SimTime::from_ms(5),
            drain: SimTime::from_ms(30),
            seed: 42,
            slo: SloTargets::default(),
        }
    }

    /// Runs the fleet to completion.
    pub fn run(self) -> FleetReport {
        let hosts = self.hosts;
        let frontdoor = hosts; // node index of the frontdoor
        let mut nodes: Vec<FleetNode> = Vec::with_capacity(hosts as usize + 1);
        let end = self.duration + self.drain;
        for h in 0..hosts {
            let mut hc = self.host.clone();
            hc.duration = end;
            // Decorrelate per-host RNG streams (policy tie-breaking
            // etc.); the workload draws all happen at the frontdoor.
            hc.seed = splitmix(self.seed ^ u64::from(h));
            nodes.push(FleetNode::Host(Box::new(HostNode::new(
                hc,
                (self.policy)(),
                frontdoor,
            ))));
        }
        nodes.push(FleetNode::Frontdoor(Box::new(Frontdoor::new(
            &self.workload,
            self.seed,
            hosts,
            self.lb,
            self.duration,
            self.warmup,
        ))));

        let mut fabric = FatTreeFabric::new(self.fabric, hosts);
        let mut exec = FleetExecutor::new(nodes, self.fabric.min_latency(), self.workers);
        let exec_stats = exec.run_until(end, &mut fabric);

        let mut per_host_completed = Vec::with_capacity(hosts as usize);
        let mut fd_stats = None;
        for node in exec.into_hosts() {
            match node {
                FleetNode::Host(h) => {
                    per_host_completed.push(h.finish().completed);
                }
                FleetNode::Frontdoor(f) => fd_stats = Some(f.into_stats()),
            }
        }
        let fd = fd_stats.expect("fleet always has a frontdoor");

        let window = self.duration - self.warmup;
        let slo = fd
            .latency_by_class
            .iter()
            .map(|(&c, h)| {
                let class = SloClass(c);
                let target = self.slo.target(class).unwrap_or(SimTime::MAX);
                SloAttainment {
                    class,
                    target,
                    total: h.count(),
                    attained: h.count_at_or_below(target),
                }
            })
            .collect();
        FleetReport {
            hosts,
            workers: self.workers,
            lb: self.lb.name(),
            offered: self.workload.offered(),
            achieved: fd.completed as f64 / window.as_secs_f64(),
            emitted: fd.emitted,
            completed: fd.completed,
            rejected: fd.rejected,
            in_flight_at_end: fd.in_flight_at_end,
            latency: fd.latency.summary(),
            latency_cdf: fd.latency.ladder(),
            latency_by_class: fd
                .latency_by_class
                .iter()
                .map(|(&c, h)| (SloClass(c), h.summary()))
                .collect(),
            slo,
            per_host_emitted: fd.per_host_emitted,
            per_host_completed,
            fabric_messages: fabric.carried(),
            exec: exec_stats,
        }
    }
}

/// SLO attainment of one class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloAttainment {
    /// The class.
    pub class: SloClass,
    /// Its round-trip deadline.
    pub target: SimTime,
    /// Measured completions of this class.
    pub total: u64,
    /// Completions that met the deadline.
    pub attained: u64,
}

impl SloAttainment {
    /// Fraction of completions that met the deadline (1.0 when nothing
    /// completed: an empty class breaks no SLO).
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.attained as f64 / self.total as f64
        }
    }
}

/// Fleet-wide results of one run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Hosts simulated.
    pub hosts: u32,
    /// Executor worker threads used.
    pub workers: usize,
    /// Load-balancer name.
    pub lb: &'static str,
    /// Offered fleet load (req/s).
    pub offered: f64,
    /// Achieved fleet throughput (measured completions/s).
    pub achieved: f64,
    /// Requests emitted (including warmup).
    pub emitted: u64,
    /// Completions inside the measured window.
    pub completed: u64,
    /// Overload-guard rejections inside the measured window.
    pub rejected: u64,
    /// Requests still in flight when the run ended.
    pub in_flight_at_end: u64,
    /// Round-trip latency summary (emission → Done delivery).
    pub latency: Summary,
    /// Round-trip latency quantile ladder
    /// ([`wave_sim::stats::QUANTILE_LADDER`] probes).
    pub latency_cdf: Vec<(f64, SimTime)>,
    /// Round-trip latency per SLO class.
    pub latency_by_class: Vec<(SloClass, Summary)>,
    /// SLO attainment per class.
    pub slo: Vec<SloAttainment>,
    /// Requests steered to each host (including warmup).
    pub per_host_emitted: Vec<u64>,
    /// Requests each host completed locally (its own full run window).
    pub per_host_completed: Vec<u64>,
    /// Messages the fabric carried.
    pub fabric_messages: u64,
    /// Executor counters (windows, events, messages, advances).
    pub exec: FleetExecStats,
}

impl FleetReport {
    /// A determinism fingerprint: FNV-1a over every count and latency
    /// quantile the run produced. Two runs of the same config —
    /// regardless of worker count — must produce equal fingerprints.
    /// The executor's window and advance counts are left out: they
    /// describe how the run was scheduled, not what it simulated.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.hosts as u64);
        h.u64(self.emitted);
        h.u64(self.completed);
        h.u64(self.rejected);
        h.u64(self.in_flight_at_end);
        for &(q, t) in &self.latency_cdf {
            h.u64(q.to_bits());
            h.u64(t.as_ns());
        }
        for (c, s) in &self.latency_by_class {
            h.u64(u64::from(c.0));
            h.u64(s.p50.as_ns());
            h.u64(s.p99.as_ns());
            h.u64(s.max.as_ns());
        }
        for s in &self.slo {
            h.u64(s.attained);
            h.u64(s.total);
        }
        for &n in &self.per_host_emitted {
            h.u64(n);
        }
        for &n in &self.per_host_completed {
            h.u64(n);
        }
        h.u64(self.fabric_messages);
        h.u64(self.exec.events);
        h.u64(self.exec.messages);
        h.finish()
    }
}

/// Minimal FNV-1a (no external hasher: fingerprints must be stable
/// across std versions).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// splitmix64 step: derives decorrelated per-host seeds.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fleet_completes_requests() {
        let mut cfg = FleetConfig::quick(4);
        cfg.duration = SimTime::from_ms(10);
        cfg.warmup = SimTime::from_ms(1);
        cfg.drain = SimTime::from_ms(10);
        let r = cfg.run();
        assert!(r.completed > 0, "fleet completed nothing");
        assert!(r.emitted >= r.completed);
        assert_eq!(r.per_host_emitted.len(), 4);
        assert!(
            r.per_host_emitted.iter().all(|&n| n > 0),
            "least-loaded LB starved a host: {:?}",
            r.per_host_emitted
        );
        // Open-loop Poisson at 60% of capacity (see `quick`): the fleet
        // keeps up with its offer.
        assert!(
            r.achieved >= 0.9 * r.offered,
            "achieved {:.0} of {:.0} offered",
            r.achieved,
            r.offered
        );
    }

    #[test]
    fn hash_lb_spreads_over_hosts() {
        let mut cfg = FleetConfig::quick(8);
        cfg.lb = LbPolicy::Hash;
        cfg.duration = SimTime::from_ms(10);
        cfg.warmup = SimTime::from_ms(1);
        cfg.drain = SimTime::from_ms(10);
        let r = cfg.run();
        assert!(r.per_host_emitted.iter().all(|&n| n > 0));
    }

    #[test]
    fn worker_count_is_invisible_in_results() {
        let mut base = FleetConfig::quick(6);
        base.duration = SimTime::from_ms(8);
        base.warmup = SimTime::from_ms(1);
        base.drain = SimTime::from_ms(8);
        let reference = base.clone().run();
        for workers in [2, 4] {
            let mut cfg = base.clone();
            cfg.workers = workers;
            let r = cfg.run();
            assert_eq!(
                r.fingerprint(),
                reference.fingerprint(),
                "workers={workers} diverged from the sequential reference"
            );
        }
    }

    #[test]
    fn slo_attainment_is_tracked_per_class() {
        let mut cfg = FleetConfig::quick(4);
        cfg.duration = SimTime::from_ms(10);
        cfg.warmup = SimTime::from_ms(1);
        cfg.drain = SimTime::from_ms(10);
        let r = cfg.run();
        // The bimodal mix has two classes; at least class 0 must appear.
        assert!(!r.slo.is_empty());
        for s in &r.slo {
            assert!(s.attained <= s.total);
            assert!((0.0..=1.0).contains(&s.fraction()));
        }
    }
}
