//! Multi-tenant SmartNIC: agent bundles as a service.
//!
//! Wave (§8) treats the SmartNIC as one host's private accelerator;
//! Meili and OSMOSIS (PAPERS.md) argue the NIC is a shared, multi-tenant
//! resource. This module is the service layer that view demands: a
//! [`TenantRegistry`] admits T tenants' agent bundles — each tenant
//! brings its own shards, workload, weight, and SLO class — onto ONE
//! physical NIC, and two mechanisms reach each tenant's simulated time:
//!
//! * **NIC shares** ([`TenantRegistry::shares`]): the NIC cores' serial
//!   pump capacity is split by a fluid model. [`weighted_fair_shares`]
//!   water-fills it over per-tenant effective weights (the configured
//!   weight times the [`slo_weight_multiplier`] of the tenant's class);
//!   [`fifo_shares`] is the null model (no arbitration: everyone slows
//!   down by the *total* demand). A tenant holding share `s` against
//!   demand `d` has its agent work stretched by `1 / min(1, s/d)`.
//! * **Bounded MSI-X vectors** (`wave_pcie::MsixVectorTable`): a bundle
//!   allocates one vector per worker, all-or-nothing. On exhaustion the
//!   tenant is admitted *degraded*: its hosts discover decisions on a
//!   poll grid ([`TenantRegistry::poll_pickup`]) instead of being
//!   kicked, and the would-be interrupts are counted as suppressed.

use wave_pcie::{MsixVector, MsixVectorTable};
use wave_sim::SimTime;

use crate::workload::SloClass;

/// A tenant handle: tenants are numbered in registration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

/// How the NIC arbitrates shared-resource access across tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Arbitration {
    /// Weighted max-min shares over per-tenant weights: a backlogged
    /// tenant keeps at least `w_i / Σw` of the NIC regardless of how
    /// hard the neighbors push.
    #[default]
    WeightedFair,
    /// No arbitration: first-come first-served. The null policy a
    /// flooding neighbor exploits.
    Fifo,
}

/// Weighted max-min ("water-filling") service shares — the model the
/// tenancy sweep derates each tenant's agent with.
///
/// `demands[i]` is tenant i's offered NIC-core utilization (1.0 = one
/// full NIC core's worth of duty-cycle work) and `weights[i]` its
/// arbitration weight. Capacity is 1.0. Tenants demanding less than
/// their weighted share keep their full demand; the surplus refills the
/// heavier askers, round by round, until the capacity is spent. A
/// backlogged tenant is therefore guaranteed at least
/// `w_i/Σw` of the NIC regardless of its neighbors — the isolation
/// property FIFO lacks.
pub fn weighted_fair_shares(demands: &[f64], weights: &[u64]) -> Vec<f64> {
    assert_eq!(demands.len(), weights.len());
    let n = demands.len();
    let mut share = vec![0.0f64; n];
    let mut satisfied = vec![false; n];
    let mut capacity = 1.0f64;
    // Each pass satisfies at least one tenant or exits, so ≤ n passes.
    for _ in 0..n {
        let w_total: f64 = (0..n)
            .filter(|&i| !satisfied[i])
            .map(|i| weights[i] as f64)
            .sum();
        if w_total == 0.0 || capacity <= 0.0 {
            break;
        }
        let fill = capacity / w_total;
        let mut newly = 0;
        for i in 0..n {
            if satisfied[i] {
                continue;
            }
            let offer = share[i] + fill * weights[i] as f64;
            if offer >= demands[i] {
                capacity -= demands[i] - share[i];
                share[i] = demands[i];
                satisfied[i] = true;
                newly += 1;
            }
        }
        if newly == 0 {
            // Nobody satisfied: split the remaining capacity by weight
            // and stop.
            for i in 0..n {
                if !satisfied[i] {
                    share[i] += fill * weights[i] as f64;
                }
            }
            break;
        }
    }
    share
}

/// Service shares under no arbitration: every tenant's work interleaves
/// FIFO on the shared cores, so each receives service proportional to
/// its demand — `share_i = d_i / Σd` once the NIC saturates. The
/// flooding tenant takes most of the NIC and *every* tenant's slowdown
/// becomes `Σd`, which is exactly the isolation failure the weighted-
/// fair model prevents.
pub fn fifo_shares(demands: &[f64]) -> Vec<f64> {
    let total: f64 = demands.iter().sum();
    if total <= 1.0 {
        return demands.to_vec();
    }
    demands.iter().map(|d| d / total).collect()
}

/// The weight boost a tenant's SLO class earns. Class 0 is the
/// latency-critical tier (the paper's 10 µs GETs): its weight counts 4×
/// in [`weighted_fair_shares`], so against an equal-demand
/// throughput-class neighbor it keeps the larger share without starving
/// anyone (every backlogged tenant still gets its weighted floor). All
/// other classes run at face-value weight.
pub fn slo_weight_multiplier(slo: SloClass) -> u64 {
    if slo.0 == 0 {
        4
    } else {
        1
    }
}

/// What a tenant brings to the NIC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Display name (reports).
    pub name: String,
    /// Arbitration weight (≥ 1).
    pub weight: u64,
    /// Worker cores the bundle serves — and MSI-X vectors it wants (one
    /// kick target per worker).
    pub workers: u32,
    /// The tenant's SLO class, threaded into its workload.
    pub slo: SloClass,
}

impl TenantSpec {
    /// A spec with the default SLO class.
    pub fn new(name: impl Into<String>, weight: u64, workers: u32) -> Self {
        TenantSpec {
            name: name.into(),
            weight,
            workers,
            slo: SloClass::DEFAULT,
        }
    }

    /// The weight [`TenantRegistry::shares`] actually uses: the
    /// configured weight scaled by [`slo_weight_multiplier`] for the
    /// tenant's class.
    pub fn effective_weight(&self) -> u64 {
        self.weight * slo_weight_multiplier(self.slo)
    }
}

/// A registered tenant: its spec plus the shared resources it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantBinding {
    /// The registry-assigned id.
    pub id: TenantId,
    /// What was registered.
    pub spec: TenantSpec,
    /// The MSI-X vectors the bundle owns — empty when admitted degraded.
    pub vectors: Vec<MsixVector>,
    /// Whether the tenant was admitted without vectors (exhaustion →
    /// degraded polling mode).
    pub degraded: bool,
}

/// T tenants' agent bundles as a service on one NIC.
///
/// The registry owns the NIC-wide shared state: the arbitration mode
/// and the bounded MSI-X vector table. Tenant deployments are
/// constructed by the caller (they live in higher crates) and read two
/// things back: their NIC share ([`TenantRegistry::shares`]) and
/// whether to kick (vectors held) or poll
/// ([`TenantRegistry::poll_pickup`]).
#[derive(Debug)]
pub struct TenantRegistry {
    arbitration: Arbitration,
    vectors: MsixVectorTable,
    tenants: Vec<TenantBinding>,
}

/// Default degraded-mode poll grid: hosts of a vectorless tenant
/// discover decisions every 5 µs (the paper's spin-loop pickup is
/// ~0.6 µs; the grid models a shared poller visiting T tenants).
pub const DEFAULT_POLL_GRID: SimTime = SimTime::from_us(5);

impl TenantRegistry {
    /// Creates a registry arbitrating with `arbitration` over a NIC
    /// exposing `msix_capacity` vectors.
    pub fn new(arbitration: Arbitration, msix_capacity: usize) -> Self {
        TenantRegistry {
            arbitration,
            vectors: MsixVectorTable::new(msix_capacity),
            tenants: Vec::new(),
        }
    }

    /// The arbitration mode.
    pub fn arbitration(&self) -> Arbitration {
        self.arbitration
    }

    /// Admits a tenant: assigns the next id, allocates one MSI-X
    /// vector per worker (all-or-nothing). On vector exhaustion the
    /// tenant is admitted *degraded* — no vectors, hosts poll on
    /// [`TenantRegistry::poll_pickup`]'s grid — rather than rejected: NIC
    /// cycles are still schedulable, only the kick path is gone.
    pub fn register(&mut self, spec: TenantSpec) -> TenantId {
        let id = TenantId(self.tenants.len() as u32);
        let vectors = self
            .vectors
            .alloc_block(spec.workers as usize)
            .unwrap_or_default();
        let degraded = vectors.is_empty() && spec.workers > 0;
        self.tenants.push(TenantBinding {
            id,
            spec,
            vectors,
            degraded,
        });
        id
    }

    /// The binding for `id`, if registered.
    pub fn binding(&self, id: TenantId) -> Option<&TenantBinding> {
        self.tenants.get(id.0 as usize)
    }

    /// Registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// `Some(grid)` when `id` runs degraded (no vectors): its hosts
    /// discover decisions at the next poll-grid boundary instead of at
    /// the MSI-X handler instant. `None` while the tenant holds
    /// vectors and kicks normally.
    pub fn poll_pickup(&self, id: TenantId) -> Option<SimTime> {
        self.binding(id)
            .filter(|b| b.degraded)
            .map(|_| DEFAULT_POLL_GRID)
    }

    /// Service shares for the registered tenants under the registry's
    /// arbitration mode. `demands[i]` is tenant i's offered NIC-core
    /// utilization; unregistered slots must demand 0.
    pub fn shares(&self, demands: &[f64]) -> Vec<f64> {
        match self.arbitration {
            Arbitration::WeightedFair => {
                let weights: Vec<u64> = demands
                    .iter()
                    .enumerate()
                    .map(|(i, _)| {
                        self.binding(TenantId(i as u32))
                            .map_or(1, |b| b.spec.effective_weight())
                    })
                    .collect();
                weighted_fair_shares(demands, &weights)
            }
            Arbitration::Fifo => fifo_shares(demands),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_admits_binds_and_degrades_on_exhaustion() {
        let mut reg = TenantRegistry::new(Arbitration::WeightedFair, 16);
        let a = reg.register(TenantSpec::new("a", 4, 8));
        let b = reg.register(TenantSpec::new("b", 1, 8));
        assert_eq!((a, b), (TenantId(0), TenantId(1)));
        for id in [a, b] {
            let bound = reg.binding(id).unwrap();
            assert!(!bound.degraded && bound.vectors.len() == 8);
        }
        assert_eq!(reg.poll_pickup(a), None);

        // Third tenant finds the table exhausted: admitted degraded.
        let c = reg.register(TenantSpec::new("c", 1, 4));
        let bc = reg.binding(c).unwrap();
        assert!(bc.degraded && bc.vectors.is_empty());
        assert_eq!(reg.poll_pickup(c), Some(DEFAULT_POLL_GRID));
        assert_eq!(reg.len(), 3);
        assert!(reg.binding(TenantId(3)).is_none());
    }

    #[test]
    fn registry_shares_apply_the_slo_weight_boost() {
        // Equal configured weight and demand; only the SLO class
        // differs, so the latency tenant's 4x boost alone decides the
        // weighted-fair split.
        let demands = [0.8, 0.8];
        for (arb, want) in [
            (Arbitration::WeightedFair, [0.8, 0.2]),
            (Arbitration::Fifo, [0.5, 0.5]),
        ] {
            let mut reg = TenantRegistry::new(arb, 16);
            for (name, slo) in [("latency", SloClass(0)), ("throughput", SloClass(1))] {
                reg.register(TenantSpec {
                    slo,
                    ..TenantSpec::new(name, 1, 1)
                });
            }
            let shares = reg.shares(&demands);
            for (got, want) in shares.iter().zip(want) {
                assert!((got - want).abs() < 1e-12, "{arb:?}: {shares:?}");
            }
        }
    }

    #[test]
    fn weighted_fair_shares_waterfill() {
        // One flooder (demand 3.6) vs three modest tenants (0.2 each),
        // equal weights: the modest tenants keep their full demand, the
        // flooder gets the rest.
        let shares = weighted_fair_shares(&[3.6, 0.2, 0.2, 0.2], &[1, 1, 1, 1]);
        assert!((shares[1] - 0.2).abs() < 1e-12);
        assert!((shares[0] - 0.4).abs() < 1e-12);
        // FIFO: everyone is cut proportionally — the victims lose most
        // of their service.
        let fifo = fifo_shares(&[3.6, 0.2, 0.2, 0.2]);
        assert!(fifo[1] < 0.05);
        // Undersubscribed NIC: both models give everyone their demand.
        assert_eq!(fifo_shares(&[0.3, 0.2]), vec![0.3, 0.2]);
        assert_eq!(weighted_fair_shares(&[0.3, 0.2], &[1, 5]), vec![0.3, 0.2]);
    }
}
