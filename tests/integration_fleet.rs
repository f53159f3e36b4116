//! Fleet-scale determinism, end to end: a 16-host simulated datacenter
//! (fat-tree fabric, frontdoor load balancer, full `SchedSim` hosts)
//! driven by the conservative parallel executor must produce
//! **bit-identical** results for any worker count — `workers = 1` is
//! the sequential reference, and the golden fingerprint is pinned so
//! drift in fleet behavior (not just nondeterminism) is caught too.
//!
//! Golden numbers come from the seeded deterministic simulation;
//! simulated quantities are identical in debug and release.

use wave::fleet::{FleetConfig, FleetReport, LbPolicy};
use wave::sim::SimTime;

fn cell(workers: usize, lb: LbPolicy) -> FleetReport {
    let mut cfg = FleetConfig::quick(16);
    cfg.workers = workers;
    cfg.lb = lb;
    cfg.duration = SimTime::from_ms(6);
    cfg.warmup = SimTime::from_ms(1);
    cfg.drain = SimTime::from_ms(8);
    cfg.run()
}

#[test]
fn sixteen_host_fleet_is_bit_identical_across_worker_counts() {
    let reference = cell(1, LbPolicy::LeastLoaded);
    let fp = reference.fingerprint();
    assert!(reference.completed > 0, "fleet did no work");
    for workers in [2usize, 8] {
        let par = cell(workers, LbPolicy::LeastLoaded);
        assert_eq!(par.fingerprint(), fp, "fleet diverged at workers={workers}");
        // The fingerprint covers the full result surface, but spell out
        // the headline fields so a failure names the divergence.
        assert_eq!(par.emitted, reference.emitted);
        assert_eq!(par.completed, reference.completed);
        assert_eq!(par.per_host_completed, reference.per_host_completed);
        assert_eq!(par.latency.p99, reference.latency.p99);
        assert_eq!(par.fabric_messages, reference.fabric_messages);
        assert_eq!(par.exec.events, reference.exec.events);
    }
}

#[test]
fn golden_fleet_fingerprint_is_pinned() {
    // Pinned from the seeded run. A change here means fleet *behavior*
    // changed — workload split, fabric queueing, host scheduling, or
    // executor ordering — and must be intentional.
    let rep = cell(1, LbPolicy::LeastLoaded);
    assert_eq!(rep.fingerprint(), GOLDEN_FINGERPRINT);
    assert_eq!((rep.hosts, rep.workers), (16, 1));
    assert!(rep.rejected <= rep.emitted);
}

const GOLDEN_FINGERPRINT: u64 = 7_451_181_916_672_182_575;

#[test]
fn hash_lb_is_deterministic_too() {
    let a = cell(2, LbPolicy::Hash);
    let b = cell(1, LbPolicy::Hash);
    assert_eq!(a.fingerprint(), b.fingerprint());
    // The two balancers split the same offered load differently, so
    // their fleets must not collapse to the same trajectory.
    assert_ne!(
        a.fingerprint(),
        cell(1, LbPolicy::LeastLoaded).fingerprint()
    );
}
