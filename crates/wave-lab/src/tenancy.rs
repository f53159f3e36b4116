//! Multi-tenant isolation sweep: victim p99 under a flooding neighbor.
//!
//! The paper runs ONE management deployment per host; this sweep asks
//! what happens when T tenants' agent bundles share the SmartNIC as a
//! service. Each tenant runs its own scheduler deployment
//! ([`SchedSim`]) against its own offered load, but the bundles share
//! the NIC's serial pump capacity: tenant `i` holding fluid share
//! `s_i` of the NIC against demand `d_i` sees its agent work stretched
//! by `1 / min(1, s_i/d_i)` ([`SchedConfig::nic_share`]). The share
//! vector comes from the arbitration discipline under test —
//! [`wave_core::tenant::weighted_fair_shares`] (weighted max-min
//! water-filling) versus [`wave_core::tenant::fifo_shares`]
//! (demand-proportional, first-come-first-served).
//!
//! Every point places one **aggressive neighbor** at
//! [`TenancyConfig::flood_factor`]× the victim demand and T−1
//! well-behaved victims. The acceptance property: weighted-fair keeps
//! the victim's p99 within a small bounded ratio of its solo run all
//! the way to T=8, while FIFO lets the flooder inflate the victim's
//! effective demand share until its p99 explodes and it starts
//! dropping — the same offered load, the same seed, only the
//! arbitration changes.
//!
//! The [`TenantRegistry`]'s bounded MSI-X vector table rides along: it
//! runs out at high T, and late tenants are admitted in degraded
//! polling mode (`poll_pickup` set, zero interrupts sent).

use wave_core::tenant::Arbitration;
use wave_core::{OptLevel, TenantId, TenantRegistry, TenantSpec};
use wave_ghost::policies::FifoPolicy;
use wave_ghost::sim::{Placement, SchedConfig, SchedSim};
use wave_sim::par::par_map;
use wave_sim::SimTime;

use crate::report::{LatencyCdf, PaperRow, Report};

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct TenancyConfig {
    /// Tenant counts to sweep. Each count is run under both
    /// arbitration disciplines.
    pub tenant_counts: Vec<u32>,
    /// Worker cores per tenant deployment.
    pub workers_per_tenant: u32,
    /// Each well-behaved tenant's NIC demand as a fraction of the
    /// calibrated single-tenant agent capacity.
    pub victim_demand: f64,
    /// The aggressive neighbor's demand multiple over a victim's.
    pub flood_factor: f64,
    /// MSI-X vectors on the shared NIC (one per worker is requested;
    /// tenants past the limit fall back to degraded polling).
    pub msix_capacity: usize,
    /// Per-tenant simulated duration.
    pub duration: SimTime,
    /// Warmup excluded from stats.
    pub warmup: SimTime,
    /// RNG seed (the victim always runs with exactly this seed so its
    /// cells are comparable across T and across arbitrations).
    pub seed: u64,
}

impl TenancyConfig {
    /// Full-fidelity sweep: T = 1..8, 32-worker tenants.
    pub fn paper() -> Self {
        TenancyConfig {
            tenant_counts: (1..=8).collect(),
            workers_per_tenant: 32,
            victim_demand: 0.32,
            flood_factor: 4.0,
            msix_capacity: 200,
            duration: SimTime::from_ms(200),
            warmup: SimTime::from_ms(30),
            seed: 42,
        }
    }

    /// CI-speed sweep: T = {1, 2, 4, 8}.
    pub fn quick() -> Self {
        TenancyConfig {
            tenant_counts: vec![1, 2, 4, 8],
            duration: SimTime::from_ms(60),
            warmup: SimTime::from_ms(10),
            ..Self::paper()
        }
    }
}

/// One tenant's outcome inside one sweep point.
#[derive(Debug, Clone)]
pub struct TenantCell {
    /// Tenant slot (the last one is the flooder when T > 1).
    pub tenant: u32,
    /// NIC demand as a fraction of single-tenant agent capacity.
    pub demand: f64,
    /// Fluid NIC share granted by the arbitration discipline.
    pub share: f64,
    /// `min(1, share/demand)` — the factor the tenant's agent work is
    /// stretched by (1.0 means contention-free).
    pub nic_share: f64,
    /// Admitted without an MSI-X block (degraded tenants poll).
    pub degraded: bool,
    /// Offered load (req/s).
    pub offered: f64,
    /// Achieved throughput (req/s).
    pub achieved: f64,
    /// p99 scheduling latency (µs).
    pub p99_us: f64,
    /// Requests completed inside the measurement window.
    pub completed: u64,
    /// Requests dropped at admission (queue full).
    pub dropped: u64,
    /// Agent decisions.
    pub decisions: u64,
    /// MSI-X interrupts actually sent.
    pub msix_sent: u64,
    /// Kicks suppressed (poll-mode pickup instead).
    pub msix_suppressed: u64,
    /// Full scheduling-latency quantile ladder (the standard
    /// [`LatencyCdf`] block the report renders for the victim).
    pub cdf: LatencyCdf,
}

/// One (T, arbitration) sweep point.
#[derive(Debug, Clone)]
pub struct TenancyPoint {
    /// Tenant count.
    pub tenants: u32,
    /// True under weighted-fair arbitration, false under FIFO.
    pub weighted: bool,
    /// Per-tenant outcomes; index = tenant slot, the victim is 0.
    pub cells: Vec<TenantCell>,
}

/// Complete sweep output.
#[derive(Debug, Clone)]
pub struct TenancyResult {
    /// Calibrated single-tenant agent capacity (req/s) all demands are
    /// expressed against.
    pub capacity: f64,
    /// All (T, arbitration) points.
    pub points: Vec<TenancyPoint>,
}

impl TenancyResult {
    /// The point for `tenants` under the given arbitration.
    pub fn point(&self, tenants: u32, weighted: bool) -> Option<&TenancyPoint> {
        self.points
            .iter()
            .find(|p| p.tenants == tenants && p.weighted == weighted)
    }

    /// Victim (tenant 0) p99 in µs for a point.
    pub fn victim_p99(&self, tenants: u32, weighted: bool) -> Option<f64> {
        self.point(tenants, weighted).map(|p| p.cells[0].p99_us)
    }

    /// Solo (T=1) p99 in µs — the isolation baseline.
    pub fn solo_p99(&self) -> Option<f64> {
        self.victim_p99(1, true)
            .or_else(|| self.victim_p99(1, false))
    }
}

/// Calibrates the single-tenant agent capacity (req/s) at
/// `workers_per_tenant`: saturate a deployment whose NIC share is
/// pinned to 0.25 — so the stretched serial agent, not the workers, is
/// the bottleneck — and scale the achieved rate back up. Capacity
/// depends on the worker count (policy costs grow with queue depth),
/// so it must be measured at the tenant's own size.
pub fn agent_capacity(cfg: &TenancyConfig) -> f64 {
    let mut sc = base_config(cfg, cfg.seed);
    sc.nic_share = 0.25;
    sc.workload.set_offered(3_000_000.0);
    let rep = SchedSim::new(sc, Box::new(FifoPolicy::new())).run();
    rep.achieved * 4.0
}

/// Per-tenant demand vector: T−1 victims at `victim_demand`, one
/// flooder at `flood_factor`× (T=1 is the solo baseline).
fn demands(cfg: &TenancyConfig, tenants: u32) -> Vec<f64> {
    let mut d = vec![cfg.victim_demand; tenants as usize];
    if tenants > 1 {
        *d.last_mut().unwrap() = cfg.victim_demand * cfg.flood_factor;
    }
    d
}

fn base_config(cfg: &TenancyConfig, seed: u64) -> SchedConfig {
    let mut sc = SchedConfig::new(
        cfg.workers_per_tenant,
        Placement::Offloaded,
        OptLevel::full(),
    );
    sc.duration = cfg.duration;
    sc.warmup = cfg.warmup;
    sc.seed = seed;
    sc.max_outstanding = 8 * cfg.workers_per_tenant as usize;
    sc
}

/// Runs one (T, arbitration) point against a pre-calibrated capacity.
pub fn run_point(cfg: &TenancyConfig, tenants: u32, weighted: bool, capacity: f64) -> TenancyPoint {
    let arb = if weighted {
        Arbitration::WeightedFair
    } else {
        Arbitration::Fifo
    };
    let n = tenants as usize;
    let d = demands(cfg, tenants);

    // Admit every bundle: equal weights, one MSI-X vector requested
    // per worker. Registration order is tenant slot order, so the
    // flooder (last) is first to be degraded on exhaustion.
    let mut reg = TenantRegistry::new(arb, cfg.msix_capacity);
    for (i, &di) in d.iter().enumerate() {
        let name = if n > 1 && i + 1 == n {
            format!("flooder@{di:.2}")
        } else {
            format!("tenant{i}")
        };
        reg.register(TenantSpec::new(name, 1, cfg.workers_per_tenant));
    }
    let shares = reg.shares(&d);
    debug_assert_eq!(shares.len(), n);

    // Per-tenant deployments. Every tenant gets its own workload and
    // seed; the victim's seed is pinned so its cell is bit-comparable
    // across T and across arbitrations (and, at T=1 where nic_share is
    // exactly 1.0, to an untenanted run).
    let cells: Vec<TenantCell> = (0..n)
        .map(|i| {
            let id = TenantId(i as u32);
            let nic_share = (shares[i] / d[i]).min(1.0);
            let offered = d[i] * capacity;
            let mut sc = base_config(cfg, cfg.seed ^ ((i as u64) << 32));
            sc.workload.set_offered(offered);
            sc.nic_share = nic_share;
            sc.poll_pickup = reg.poll_pickup(id);
            let rep = SchedSim::new(sc, Box::new(FifoPolicy::new())).run();
            let degraded = reg.binding(id).is_some_and(|b| b.degraded);
            let label = if n > 1 && i + 1 == n {
                format!("T={tenants} flooder")
            } else {
                format!("T={tenants} tenant{i}")
            };
            let cdf = LatencyCdf::from_ladder(label, &rep.latency_cdf);
            TenantCell {
                tenant: i as u32,
                demand: d[i],
                share: shares[i],
                nic_share,
                degraded,
                offered,
                achieved: rep.achieved,
                p99_us: rep.latency.p99.as_us_f64(),
                completed: rep.completed,
                dropped: rep.dropped,
                decisions: rep.agent_decisions,
                msix_sent: rep.msix_sent,
                msix_suppressed: rep.msix_suppressed,
                cdf,
            }
        })
        .collect();

    TenancyPoint {
        tenants,
        weighted,
        cells,
    }
}

/// Runs the full sweep: calibrate once, then every (T, arbitration)
/// point in parallel.
pub fn run(cfg: &TenancyConfig) -> TenancyResult {
    let capacity = agent_capacity(cfg);
    let grid: Vec<(u32, bool)> = cfg
        .tenant_counts
        .iter()
        .flat_map(|&t| [(t, true), (t, false)])
        .collect();
    let points = par_map(&grid, |&(t, w)| run_point(cfg, t, w, capacity));
    TenancyResult { capacity, points }
}

/// Runs the sweep and renders the victim-isolation table. Every row's
/// "paper" column is the solo (T=1) p99, so the ratio column reads as
/// the victim's slowdown under that arbitration.
pub fn report(cfg: &TenancyConfig) -> Report {
    let res = run(cfg);
    let mut r = Report::new(format!(
        "multi-tenant NIC: victim p99 vs solo, one {}x flooding neighbor",
        cfg.flood_factor
    ));
    let solo = res.solo_p99().unwrap_or(0.0);
    for &t in &cfg.tenant_counts {
        for (weighted, label) in [(true, "weighted-fair"), (false, "fifo")] {
            if t == 1 && !weighted {
                continue; // T=1 is contention-free under either discipline.
            }
            if let Some(p99) = res.victim_p99(t, weighted) {
                let name = if t == 1 {
                    "T=1 solo baseline".to_string()
                } else {
                    format!("T={t} {label} victim p99")
                };
                r.push(PaperRow::new(name, solo, p99, "us"));
            }
        }
    }
    r.note(format!(
        "calibrated agent capacity at {} workers: {:.0} req/s; victims demand {:.2} of it, the flooder {:.2}",
        cfg.workers_per_tenant,
        res.capacity,
        cfg.victim_demand,
        cfg.victim_demand * cfg.flood_factor
    ));
    if let Some(&t_max) = cfg.tenant_counts.iter().max() {
        if let Some(p) = res.point(t_max, true) {
            r.note(format!(
                "T={t_max} weighted-fair: victim nic_share {:.3}",
                p.cells[0].nic_share
            ));
            let degraded = p.cells.iter().filter(|c| c.degraded).count();
            if degraded > 0 {
                r.note(format!(
                    "T={t_max}: MSI-X table exhausted — {degraded} tenant(s) admitted in degraded polling mode ({} kicks suppressed on the last)",
                    p.cells.last().unwrap().msix_suppressed
                ));
            }
            if !p.cells[0].cdf.is_empty() {
                r.block(p.cells[0].cdf.render());
            }
        }
        if let Some(p) = res.point(t_max, false) {
            let dropped: u64 = p.cells.iter().map(|c| c.dropped).sum();
            r.note(format!(
                "T={t_max} fifo: victim p99 {:.1} us, {} requests dropped across tenants",
                p.cells[0].p99_us, dropped
            ));
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg() -> TenancyConfig {
        let (dur, warm) = if cfg!(debug_assertions) {
            (18, 3)
        } else {
            (50, 10)
        };
        TenancyConfig {
            tenant_counts: vec![1, 4, 8],
            duration: SimTime::from_ms(dur),
            warmup: SimTime::from_ms(warm),
            ..TenancyConfig::quick()
        }
    }

    #[test]
    fn weighted_fair_bounds_the_victim_where_fifo_does_not() {
        let res = run(&test_cfg());
        // Victim p99 as a multiple of the solo run.
        let ratio = |t, wf| res.victim_p99(t, wf).unwrap() / res.solo_p99().unwrap();
        let (wf4, ff4) = (ratio(4, true), ratio(4, false));
        let (wf8, ff8) = (ratio(8, true), ratio(8, false));
        // Weighted-fair: bounded slowdown all the way to T=8.
        assert!(wf4 < 2.0, "wf T=4 victim ratio {wf4}");
        assert!(wf8 < 6.0, "wf T=8 victim ratio {wf8}");
        // FIFO: the flooder visibly steals the victim's share.
        assert!(ff4 > wf4, "fifo T=4 ({ff4}) must exceed wf ({wf4})");
        assert!(
            ff8 > 2.0 * wf8,
            "fifo T=8 ({ff8}) must blow past the wf bound ({wf8})"
        );
        // ...and by T=8 FIFO is shedding load while weighted-fair is not.
        let wf8_drops = res.point(8, true).unwrap().cells[0].dropped;
        let ff8_drops = res.point(8, false).unwrap().cells[0].dropped;
        assert_eq!(wf8_drops, 0, "weighted-fair victim never drops");
        assert!(ff8_drops > 0, "fifo victim drops under the flood");
    }

    #[test]
    fn t1_is_contention_free_and_matches_an_untenanted_run() {
        let cfg = test_cfg();
        let capacity = agent_capacity(&cfg);
        let p = run_point(&cfg, 1, true, capacity);
        let cell = &p.cells[0];
        assert_eq!(cell.nic_share, 1.0, "solo tenant owns the NIC");
        assert!(!cell.degraded);
        assert_eq!(cell.msix_suppressed, 0);
        // The tenancy wrapper must be invisible at T=1: the same
        // deployment run without a registry is bit-identical.
        let mut sc = base_config(&cfg, cfg.seed);
        sc.workload.set_offered(cell.offered);
        let plain = SchedSim::new(sc, Box::new(FifoPolicy::new())).run();
        assert_eq!(plain.completed, cell.completed);
        assert_eq!(plain.achieved, cell.achieved);
        assert_eq!(plain.latency.p99.as_us_f64(), cell.p99_us);
    }

    #[test]
    fn msix_exhaustion_degrades_late_tenants_to_polling() {
        let cfg = test_cfg();
        let capacity = agent_capacity(&cfg);
        let p = run_point(&cfg, 8, true, capacity);
        // 8 tenants × 32 workers want 256 vectors of the 200 available:
        // the first six bundles get blocks, the last two poll.
        let degraded: Vec<u32> = p
            .cells
            .iter()
            .filter(|c| c.degraded)
            .map(|c| c.tenant)
            .collect();
        assert_eq!(degraded, vec![6, 7], "exhaustion hits the late tenants");
        for c in &p.cells {
            if c.degraded {
                assert_eq!(c.msix_sent, 0, "degraded tenants send no interrupts");
                assert!(c.msix_suppressed > 0, "their kicks are suppressed");
            } else {
                assert!(c.msix_sent > 0);
                assert_eq!(c.msix_suppressed, 0);
            }
        }
        assert!(!p.cells[0].degraded, "the victim keeps its vectors");
    }

    #[test]
    fn flooder_pays_for_its_own_aggression_under_weighted_fair() {
        let cfg = test_cfg();
        let capacity = agent_capacity(&cfg);
        let p = run_point(&cfg, 4, true, capacity);
        let victim = &p.cells[0];
        let flooder = p.cells.last().unwrap();
        // Equal weights: the flooder's 4x demand is clipped to the same
        // 1/T share everyone gets, so the overload lands on *it*.
        assert!(flooder.nic_share < victim.nic_share);
        assert!(
            flooder.p99_us > 2.0 * victim.p99_us,
            "flooder p99 {} vs victim {}",
            flooder.p99_us,
            victim.p99_us
        );
    }

    #[test]
    fn report_renders() {
        let mut cfg = test_cfg();
        cfg.tenant_counts = vec![1, 4];
        let r = report(&cfg);
        assert!(!r.rows.is_empty());
        let text = r.render();
        assert!(text.contains("victim"));
        // The victim's quantile-ladder CDF rides along as a block.
        assert!(text.contains("latency CDF"), "missing CDF block:\n{text}");
        assert!(text.contains("p99.9"));
    }
}
