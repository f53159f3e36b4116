//! `sched_trace`: one offloaded Wave host under a synthetic production
//! trace — the agent-pump- and policy-heavy path.

use std::sync::Arc;
use std::time::Instant;

use wave_core::shard_map::RebalanceConfig;
use wave_core::workload::{SyntheticConfig, WorkloadSpec};
use wave_core::OptLevel;
use wave_ghost::policies::MultiQueueShinjuku;
use wave_ghost::{Placement, SchedConfig, SchedPolicy, SchedReport, SchedSim};
use wave_sim::SimTime;

use crate::trace::{ns_since, PolicyMeter, TimedPolicy};
use crate::{ratio, timed_setup, Checks, Fnv, Outcome, Size, Span, Times};

/// Simulated time one traced `SchedStepper::advance` slice covers.
const SLICE: SimTime = SimTime::from_ms(1);

/// The workload's configuration: 24 workers under 4 agent shards with
/// `FeedDemand` rebalancing, fed one diurnal day of the diurnal × MMPP ×
/// Pareto trace with a hotspot that roams over the shards.
fn config(seed: u64, size: Size) -> SchedConfig {
    let mut syn = SyntheticConfig::diurnal_bursty();
    syn.base_rate = 250_000.0;
    syn.hotspot_shards = 4;
    syn.hotspot_weight = 0.25;
    let (day, warmup, epoch) = match size {
        Size::Full => {
            // ~170 short bursts a day keep the arrival count within a few
            // percent across seeds; the traces sweep's 40 ms / 200 ms
            // varied it by ±10% and overflowed the overload guard on one
            // seed in five.
            syn.mean_burst = SimTime::from_ms(1);
            syn.mean_calm = SimTime::from_ms(5);
            (
                SimTime::from_secs(1),
                SimTime::from_ms(100),
                SimTime::from_ms(50),
            )
        }
        Size::Smoke => (
            SimTime::from_ms(20),
            SimTime::from_ms(2),
            SimTime::from_ms(2),
        ),
    };
    syn.diurnal_period = day;
    let mut sc = SchedConfig::new(24, Placement::Offloaded, OptLevel::full());
    sc.agents = 4;
    sc.seed = seed;
    sc.workload = WorkloadSpec::synthetic(syn);
    sc.warmup = warmup;
    sc.duration = warmup + day;
    // Latency bucketed per diurnal quarter, as in the traces sweep.
    sc.phases = (1..4)
        .map(|k| warmup + day.scale(0.25 * k as f64))
        .collect();
    sc.rebalance = Some(RebalanceConfig::every(epoch));
    sc
}

fn policy() -> Box<dyn SchedPolicy> {
    Box::new(MultiQueueShinjuku::paper_default())
}

/// Runs the workload once; `traced` decorates the policies and drives
/// the host in `SchedStepper::advance` slices.
pub fn run(seed: u64, size: Size, traced: bool) -> Outcome {
    let cfg = config(seed, size);
    if !traced {
        let (sim, setup_s) =
            timed_setup(|| SchedSim::with_policy_factory(cfg.clone(), |_| policy()));
        let span = Span::start();
        let rep = sim.run();
        return outcome(&rep, span.stop(setup_s), None);
    }

    let ((sim, meter), setup_s) = timed_setup(|| {
        let meter = Arc::new(PolicyMeter::default());
        let sim = SchedSim::with_policy_factory(cfg.clone(), |_| {
            TimedPolicy::boxed(policy(), Arc::clone(&meter))
        });
        (sim, meter)
    });
    let span = Span::start();
    let mut stepper = sim.into_stepper();
    let mut advance_ns = 0u64;
    let mut horizon = SimTime::ZERO;
    while horizon < cfg.duration {
        horizon = (horizon + SLICE).min(cfg.duration);
        let t = Instant::now();
        stepper.advance(horizon);
        advance_ns += ns_since(t);
    }
    let rep = stepper.finish();
    outcome(&rep, span.stop(setup_s), Some((advance_ns, &meter)))
}

/// Checks the report and collects its counters; `traced` carries the
/// host time spent advancing the host and the policies' meter.
fn outcome(rep: &SchedReport, times: Times, traced: Option<(u64, &PolicyMeter)>) -> Outcome {
    let mut work = GhostWork::default();
    work.add(rep);
    let mut checks = Checks::default();
    checks.expect(rep.dropped == 0, || {
        format!("{} arrivals dropped", rep.dropped)
    });
    checks.expect(rep.completed > 0, || "nothing completed".into());
    checks.expect(rep.latency.count == rep.completed, || {
        format!(
            "latency samples {} != completed {}",
            rep.latency.count, rep.completed
        )
    });
    let by_class: u64 = rep.latency_by_class.iter().map(|(_, s)| s.count).sum();
    let by_phase: u64 = rep.latency_by_phase.iter().map(|s| s.count).sum();
    checks.expect(
        by_class == rep.completed && by_phase == rep.completed,
        || {
            format!(
                "per-class {by_class} / per-phase {by_phase} samples != completed {}",
                rep.completed
            )
        },
    );
    let per_agent: u64 = rep.per_agent_decisions.iter().sum();
    checks.expect(per_agent == rep.agent_decisions, || {
        format!("per-agent decisions {per_agent} != {}", rep.agent_decisions)
    });
    let moved: u64 = rep.rebalance.iter().map(|e| e.moves.len() as u64).sum();
    checks.expect(moved == rep.diag.rebalance_moves, || {
        format!(
            "rebalance history moves {moved} != {}",
            rep.diag.rebalance_moves
        )
    });

    let mut counters = work.counters();
    counters.push(("completed", rep.completed));
    Outcome {
        times,
        fingerprint: fingerprint(rep),
        counters,
        layers: traced.map_or_else(Vec::new, |(ns, meter)| work.layers(ns, meter)),
        failures: checks.failures,
    }
}

/// FNV-1a over every count and latency quantile a `SchedReport` holds.
fn fingerprint(rep: &SchedReport) -> u64 {
    let mut h = Fnv::default();
    for v in [
        rep.completed,
        rep.dropped,
        rep.prestage_hits,
        rep.prestage_misses,
        rep.msix_sent,
        rep.msix_suppressed,
        rep.agent_decisions,
        rep.events_executed,
    ] {
        h.u64(v);
    }
    let d = rep.diag;
    for v in [
        d.wakeup_hit,
        d.wakeup_miss,
        d.commit_fail,
        d.complete_hit,
        d.complete_miss,
        d.pumps,
        d.preempt_staged,
        d.preempt_extend,
        d.preempt_switch,
        d.steals,
        d.rebalance_moves,
        d.rebalance_handoffs,
        d.outstanding_at_end,
    ] {
        h.u64(v);
    }
    rep.per_agent_decisions.iter().for_each(|&n| h.u64(n));
    for &(q, t) in &rep.latency_cdf {
        h.u64(q.to_bits());
        h.u64(t.as_ns());
    }
    let by_class = rep
        .latency_by_class
        .iter()
        .map(|(c, s)| (u64::from(c.0), s));
    let by_phase = rep
        .latency_by_phase
        .iter()
        .enumerate()
        .map(|(i, s)| (i as u64, s));
    for (key, s) in by_class.chain(by_phase) {
        for v in [key, s.count, s.p50.as_ns(), s.p99.as_ns(), s.max.as_ns()] {
            h.u64(v);
        }
    }
    for e in &rep.rebalance {
        h.u64(e.at.as_ns());
        h.u64(e.generation);
        h.u64(e.moves.len() as u64);
    }
    h.finish()
}

/// Simulated work of one or more hosts, summed from their reports.
#[derive(Debug, Default)]
pub struct GhostWork {
    events: u64,
    pumps: u64,
    decisions: u64,
    msix_sent: u64,
    prestage_hits: u64,
    prestage_misses: u64,
    wakeup_hit: u64,
    wakeup_miss: u64,
    commit_fail: u64,
    steals: u64,
    rebalance_moves: u64,
    dropped: u64,
}

impl GhostWork {
    /// Adds one host's report.
    pub fn add(&mut self, rep: &SchedReport) {
        self.events += rep.events_executed;
        self.pumps += rep.diag.pumps;
        self.decisions += rep.agent_decisions;
        self.msix_sent += rep.msix_sent;
        self.prestage_hits += rep.prestage_hits;
        self.prestage_misses += rep.prestage_misses;
        self.wakeup_hit += rep.diag.wakeup_hit;
        self.wakeup_miss += rep.diag.wakeup_miss;
        self.commit_fail += rep.diag.commit_fail;
        self.steals += rep.diag.steals;
        self.rebalance_moves += rep.diag.rebalance_moves;
        self.dropped += rep.dropped;
    }

    /// The deterministic counts, which a traced run must reproduce.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("ghost.events", self.events),
            ("ghost.pumps", self.pumps),
            ("ghost.decisions", self.decisions),
            ("ghost.msix_sent", self.msix_sent),
            ("ghost.prestage_hits", self.prestage_hits),
            ("ghost.prestage_misses", self.prestage_misses),
            ("ghost.wakeup_hit", self.wakeup_hit),
            ("ghost.wakeup_miss", self.wakeup_miss),
            ("ghost.commit_fail", self.commit_fail),
            ("ghost.steals", self.steals),
            ("ghost.rebalance_moves", self.rebalance_moves),
            ("ghost.dropped", self.dropped),
        ]
    }

    /// The `policy.*` and `ghost.*` per-layer metrics, given the host
    /// time spent advancing the hosts and the policies' meter.
    pub fn layers(&self, advance_ns: u64, policy: &PolicyMeter) -> Vec<(&'static str, f64)> {
        let advance_s = advance_ns as f64 * 1e-9;
        let policy_s = policy.nanos() as f64 * 1e-9;
        vec![
            ("policy.calls", policy.calls() as f64),
            ("policy.self_s", policy_s),
            ("policy.ns_per_call", ratio(policy.nanos(), policy.calls())),
            ("ghost.advance_s", advance_s),
            ("ghost.model_s", advance_s - policy_s),
            ("ghost.events", self.events as f64),
            ("ghost.events_per_s", ratio(self.events, advance_ns) * 1e9),
            ("ghost.host_ns_per_event", ratio(advance_ns, self.events)),
            ("ghost.pumps", self.pumps as f64),
            ("ghost.host_ns_per_pump", ratio(advance_ns, self.pumps)),
            ("ghost.decisions", self.decisions as f64),
            ("ghost.msix_sent", self.msix_sent as f64),
            (
                "ghost.prestage_hit_ratio",
                ratio(
                    self.prestage_hits,
                    self.prestage_hits + self.prestage_misses,
                ),
            ),
            (
                "ghost.wakeup_hit_ratio",
                ratio(self.wakeup_hit, self.wakeup_hit + self.wakeup_miss),
            ),
            ("ghost.commit_fail", self.commit_fail as f64),
            ("ghost.steals", self.steals as f64),
            ("ghost.rebalance_moves", self.rebalance_moves as f64),
            ("ghost.dropped", self.dropped as f64),
        ]
    }
}
