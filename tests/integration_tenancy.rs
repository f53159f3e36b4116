//! Multi-tenant isolation, end to end: T tenants' agent bundles share
//! one NIC through the `wave_core::tenant` service layer, and the
//! arbitration discipline decides whether a flooding neighbor can hurt
//! a well-behaved victim.
//!
//! Golden numbers are pinned from the seeded deterministic simulation
//! (simulated quantities are identical in debug and release); any
//! drift means tenancy behavior changed, not just structure. Three
//! scenarios:
//!
//! * the 4-tenant flood — one aggressor at 4× a victim's demand —
//!   under weighted-fair and FIFO arbitration, pinning the victim's
//!   p99 and the bounded-ratio acceptance property;
//! * MSI-X vector exhaustion — a tightened vector table degrades the
//!   late tenant to polled pickup without touching the others;
//! * T=1 — the tenancy wrapping at one tenant is bit-identical to the
//!   pre-tenancy golden runs of `integration_sharding.rs`.

use wave::core::tenant::{Arbitration, TenantRegistry, TenantSpec};
use wave::core::OptLevel;
use wave::ghost::policies::FifoPolicy;
use wave::ghost::sim::{Placement, SchedConfig, SchedSim};
use wave::lab::tenancy::{self, TenancyConfig, TenantCell};
use wave::sim::SimTime;

fn cfg() -> TenancyConfig {
    TenancyConfig {
        tenant_counts: vec![1, 4],
        duration: SimTime::from_ms(60),
        warmup: SimTime::from_ms(10),
        ..TenancyConfig::quick()
    }
}

fn p99_ns(c: &TenantCell) -> u64 {
    (c.p99_us * 1000.0).round() as u64
}

#[test]
fn four_tenant_flood_respects_weighted_fair_and_breaks_fifo() {
    let c = cfg();
    let capacity = tenancy::agent_capacity(&c);
    assert_eq!(capacity.round() as u64, 1_680_640, "calibration drifted");

    let solo = tenancy::run_point(&c, 1, true, capacity);
    let wf = tenancy::run_point(&c, 4, true, capacity);
    let ff = tenancy::run_point(&c, 4, false, capacity);

    // Solo baseline: the victim with the NIC to itself.
    assert_eq!(p99_ns(&solo.cells[0]), 36_863);
    assert_eq!(solo.cells[0].completed, 27_072);
    assert_eq!(solo.cells[0].dropped, 0);

    // Weighted-fair: the victim's p99 barely moves under the flood.
    assert_eq!(p99_ns(&wf.cells[0]), 41_983);
    assert_eq!(wf.cells[0].completed, 27_071);
    assert_eq!(wf.cells[0].dropped, 0);

    // FIFO: the same victim, same seed, same offered load — only the
    // arbitration changed — and its p99 more than doubles.
    assert_eq!(p99_ns(&ff.cells[0]), 92_159);
    assert_eq!(ff.cells[0].completed, 27_065);
    assert_eq!(ff.cells[0].dropped, 0);

    // The acceptance property, as ratios over solo: weighted-fair
    // bounds the victim; FIFO demonstrably violates that bound.
    let solo_p99 = solo.cells[0].p99_us;
    assert!(wf.cells[0].p99_us < 1.5 * solo_p99);
    assert!(ff.cells[0].p99_us > 2.0 * wf.cells[0].p99_us);

    // Where the overload lands is the whole story: under weighted-fair
    // the flooder's own queue eats it (clipped to the same 1/T share,
    // it sheds >100k requests); under FIFO the flooder is *rewarded*
    // for aggression with extra throughput at the victims' expense.
    let wf_flooder = wf.cells.last().unwrap();
    let ff_flooder = ff.cells.last().unwrap();
    assert_eq!(wf_flooder.dropped, 107_650);
    assert_eq!(ff_flooder.dropped, 92_007);
    assert!(ff_flooder.achieved > wf_flooder.achieved);
    for victim in &wf.cells[..3] {
        assert_eq!(victim.dropped, 0, "weighted-fair victims never drop");
    }
}

#[test]
fn msix_exhaustion_degrades_only_the_late_tenant() {
    let mut c = cfg();
    c.msix_capacity = 100; // 4 tenants × 32 workers want 128 vectors.
    let capacity = tenancy::agent_capacity(&c);
    let p = tenancy::run_point(&c, 4, true, capacity);

    // Tenants 0–2 claim 96 vectors; the fourth bundle finds 4 left and
    // is admitted in degraded polling mode instead of being rejected.
    for cell in &p.cells[..3] {
        assert!(!cell.degraded);
        assert!(cell.msix_sent > 0);
        assert_eq!(cell.msix_suppressed, 0);
    }
    let degraded = p.cells.last().unwrap();
    assert!(degraded.degraded, "the late tenant falls back to polling");
    assert_eq!(degraded.msix_sent, 0, "no vectors, no interrupts");
    assert_eq!(degraded.msix_suppressed, 21_935, "every kick suppressed");
    // Polled pickup costs the degraded tenant latency but is invisible
    // to the tenants that kept their vectors: tenant 0 is bit-identical
    // to its cell in the fully-vectored golden above.
    assert_eq!(p99_ns(&p.cells[0]), 41_983);
    assert!(degraded.p99_us > 10.0 * p.cells[0].p99_us);
}

#[test]
fn single_tenant_wrapping_is_bit_identical_to_the_sharding_golden() {
    // The exact configuration of integration_sharding.rs's
    // `one_agent_matches_pre_refactor_fifo_offloaded_full`, built
    // through the tenancy layer: one registered tenant must see
    // nic_share exactly 1.0 (IEEE: x/1.0 == x) and interrupt-driven
    // pickup, making the wrapped run indistinguishable from the
    // pre-tenancy golden.
    let mut reg = TenantRegistry::new(Arbitration::WeightedFair, 64);
    let id = reg.register(TenantSpec::new("solo", 1, 4));
    let demand = 0.37; // arbitrary < 1.0: a lone tenant keeps its demand
    let shares = reg.shares(&[demand]);

    let mut c = SchedConfig::new(4, Placement::Offloaded, OptLevel::full());
    c.workload.set_offered(50_000.0);
    c.duration = SimTime::from_ms(200);
    c.warmup = SimTime::from_ms(20);
    c.nic_share = (shares[0] / demand).min(1.0);
    c.poll_pickup = reg.poll_pickup(id);
    assert_eq!(c.nic_share, 1.0, "a lone tenant owns the NIC");
    assert!(c.poll_pickup.is_none(), "vectors available: no poll mode");

    let report = SchedSim::new(c, Box::new(FifoPolicy::new())).run();
    assert_eq!(report.completed, 8_994);
    assert_eq!(report.latency.p99.as_ns(), 23_551);
    assert_eq!(report.msix_sent, 9_961);
    assert_eq!(report.agent_decisions, 10_140);
    assert_eq!(report.msix_suppressed, 0);
}
