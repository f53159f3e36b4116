use super::kernel::CoreState;
use super::*;
use crate::policies::{FifoPolicy, ShinjukuPolicy};
use crate::{ThreadMeta, ThreadRun, ThreadTable, Tid};
use rand::Rng;
use wave_core::runtime::SlotId;

fn quick_cfg(placement: Placement, opts: OptLevel, offered: f64) -> SchedConfig {
    let mut cfg = SchedConfig::new(4, placement, opts);
    cfg.workload.set_offered(offered);
    cfg.duration = SimTime::from_ms(200);
    cfg.warmup = SimTime::from_ms(20);
    cfg
}

#[test]
fn low_load_all_requests_complete() {
    let cfg = quick_cfg(Placement::Offloaded, OptLevel::full(), 20_000.0);
    let report = SchedSim::new(cfg, Box::new(FifoPolicy::new())).run();
    // 20k/s for 180 ms measured window ~ 3600 requests.
    assert!(report.completed > 3_000, "completed {}", report.completed);
    assert_eq!(report.dropped, 0);
    // At 20k req/s on 4 cores the system is far from saturation:
    // latency should be tens of microseconds.
    assert!(
        report.latency.p99 < SimTime::from_us(120),
        "p99 {}",
        report.latency.p99
    );
}

#[test]
fn onhost_low_load_latency_below_offloaded() {
    let on = SchedSim::new(
        quick_cfg(Placement::OnHost, OptLevel::full(), 20_000.0),
        Box::new(FifoPolicy::new()),
    )
    .run();
    let off = SchedSim::new(
        quick_cfg(Placement::Offloaded, OptLevel::full(), 20_000.0),
        Box::new(FifoPolicy::new()),
    )
    .run();
    assert!(
        off.latency.p50 >= on.latency.p50,
        "offload median {} should not beat on-host {}",
        off.latency.p50,
        on.latency.p50
    );
    // But with full optimizations the gap stays small (paper: a few us).
    let gap = off.latency.p99.saturating_sub(on.latency.p99);
    assert!(gap < SimTime::from_us(15), "tail gap {gap}");
}

#[test]
fn optimizations_increase_saturation() {
    let mut base_cfg = quick_cfg(Placement::Offloaded, OptLevel::none(), 150_000.0);
    base_cfg.duration = SimTime::from_ms(300);
    let base = SchedSim::new(base_cfg, Box::new(FifoPolicy::new())).run();
    let full = SchedSim::new(
        {
            let mut c = quick_cfg(Placement::Offloaded, OptLevel::full(), 150_000.0);
            c.duration = SimTime::from_ms(300);
            c
        },
        Box::new(FifoPolicy::new()),
    )
    .run();
    // At a load the optimized system can absorb, the unoptimized one
    // must show far worse tail latency (it is past saturation).
    assert!(
        base.latency.p99 > full.latency.p99 * 3,
        "base p99 {} vs full p99 {}",
        base.latency.p99,
        full.latency.p99
    );
}

#[test]
fn prestaging_hits_dominate_at_load() {
    let cfg = quick_cfg(Placement::Offloaded, OptLevel::full(), 150_000.0);
    let report = SchedSim::new(cfg, Box::new(FifoPolicy::new())).run();
    assert!(
        report.prestage_hits > report.prestage_misses,
        "hits {} misses {}",
        report.prestage_hits,
        report.prestage_misses
    );
}

#[test]
fn shinjuku_preempts_long_requests() {
    let mut cfg = quick_cfg(Placement::Offloaded, OptLevel::full(), 20_000.0);
    cfg.workload = WorkloadSpec::poisson(ServiceMix::paper_bimodal(), 20_000.0);
    let report = SchedSim::new(cfg, Box::new(ShinjukuPolicy::paper_default())).run();
    assert!(report.completed > 2_000);
    // With 0.5% 10 ms requests and FIFO, p99 of the GETs would blow
    // past 10 ms at this load; Shinjuku keeps the p99 well below.
    assert!(
        report.latency.p99 < SimTime::from_ms(12),
        "p99 {}",
        report.latency.p99
    );
}

#[test]
fn deterministic_given_seed() {
    let r1 = SchedSim::new(
        quick_cfg(Placement::Offloaded, OptLevel::full(), 50_000.0),
        Box::new(FifoPolicy::new()),
    )
    .run();
    let r2 = SchedSim::new(
        quick_cfg(Placement::Offloaded, OptLevel::full(), 50_000.0),
        Box::new(FifoPolicy::new()),
    )
    .run();
    assert_eq!(r1.completed, r2.completed);
    assert_eq!(r1.latency.p99, r2.latency.p99);
    assert_eq!(r1.msix_sent, r2.msix_sent);
}

#[test]
fn overload_guard_drops() {
    let mut cfg = quick_cfg(Placement::Offloaded, OptLevel::full(), 3_000_000.0);
    cfg.max_outstanding = 500;
    let report = SchedSim::new(cfg, Box::new(FifoPolicy::new())).run();
    assert!(report.dropped > 0);
}

// --- Policy constants --------------------------------------------------

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// FIFO that counts reads of its constants (`compute_cost`,
/// `time_slice`, `wants_prestaging`, in that order) and may decline
/// prestaging.
struct Probe {
    inner: FifoPolicy,
    reads: Arc<[AtomicU64; 3]>,
    prestage: bool,
}

impl Probe {
    fn boxed(reads: &Arc<[AtomicU64; 3]>, prestage: bool) -> Box<dyn SchedPolicy> {
        Box::new(Probe {
            inner: FifoPolicy::new(),
            reads: Arc::clone(reads),
            prestage,
        })
    }
}

impl SchedPolicy for Probe {
    fn name(&self) -> &'static str {
        "probe"
    }
    fn on_runnable(&mut self, threads: &mut ThreadTable, now: SimTime, tid: Tid, meta: ThreadMeta) {
        self.inner.on_runnable(threads, now, tid, meta)
    }
    fn on_removed(&mut self, threads: &mut ThreadTable, now: SimTime, tid: Tid) {
        self.inner.on_removed(threads, now, tid)
    }
    fn pick_next(&mut self, threads: &mut ThreadTable, now: SimTime) -> Option<Tid> {
        self.inner.pick_next(threads, now)
    }
    fn queue_depth(&self) -> usize {
        self.inner.queue_depth()
    }
    fn compute_cost(&self) -> SimTime {
        self.reads[0].fetch_add(1, Ordering::Relaxed);
        self.inner.compute_cost()
    }
    fn time_slice(&self) -> Option<SimTime> {
        self.reads[1].fetch_add(1, Ordering::Relaxed);
        self.inner.time_slice()
    }
    fn wants_prestaging(&self) -> bool {
        self.reads[2].fetch_add(1, Ordering::Relaxed);
        self.prestage
    }
}

#[test]
fn policy_constants_are_read_once_per_shard() {
    let mut cfg = sharded_cfg(8, 4, 120_000.0);
    cfg.workload = WorkloadSpec::poisson(ServiceMix::paper_bimodal(), 120_000.0);
    cfg.steal = true;
    assert!(cfg.opts.prestage);
    let reads = Arc::new([0, 0, 0].map(AtomicU64::new));
    let r = SchedSim::with_policy_factory(cfg, |_| Probe::boxed(&reads, true)).run();
    // Both pick paths ran: steals and prestaged idle transitions.
    assert!(r.diag.steals > 0, "{:?}", r.diag);
    assert!(r.diag.complete_hit > 0, "{:?}", r.diag);
    let reads = reads.each_ref().map(|n| n.load(Ordering::Relaxed));
    assert_eq!(
        reads,
        [4, 4, 4],
        "compute_cost, time_slice, wants_prestaging"
    );
}

#[test]
fn declined_prestaging_never_hits() {
    let cfg = quick_cfg(Placement::Offloaded, OptLevel::full(), 150_000.0);
    let reads = Arc::new([0, 0, 0].map(AtomicU64::new));
    let declined = SchedSim::new(cfg.clone(), Probe::boxed(&reads, false)).run();
    assert_eq!(declined.diag.complete_hit, 0, "{:?}", declined.diag);
    let stock = SchedSim::new(cfg, Box::new(FifoPolicy::new())).run();
    assert!(stock.diag.complete_hit > 0, "{:?}", stock.diag);
}

// --- Sharding ----------------------------------------------------------

fn sharded_cfg(workers: u32, agents: u32, offered: f64) -> SchedConfig {
    let mut cfg = SchedConfig::new(workers, Placement::Offloaded, OptLevel::full());
    cfg.agents = agents;
    cfg.workload.set_offered(offered);
    cfg.duration = SimTime::from_ms(150);
    cfg.warmup = SimTime::from_ms(20);
    cfg
}

#[test]
fn sharded_agents_serve_all_cores() {
    let report =
        SchedSim::with_policy_factory(
            sharded_cfg(8, 4, 100_000.0),
            |_| Box::new(FifoPolicy::new()),
        )
        .run();
    assert!(report.completed > 10_000, "completed {}", report.completed);
    assert_eq!(report.dropped, 0);
    assert_eq!(report.per_agent_decisions.len(), 4);
    for (i, d) in report.per_agent_decisions.iter().enumerate() {
        assert!(*d > 0, "shard {i} made no decisions");
    }
}

#[test]
fn sharded_run_is_deterministic() {
    let run = || {
        SchedSim::with_policy_factory(
            sharded_cfg(8, 4, 200_000.0),
            |_| Box::new(FifoPolicy::new()),
        )
        .run()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.latency.p99, b.latency.p99);
    assert_eq!(a.msix_sent, b.msix_sent);
    assert_eq!(a.per_agent_decisions, b.per_agent_decisions);
}

#[test]
fn uneven_worker_split_covers_every_core() {
    // 10 cores over 4 shards: slices of 2/3/2/3.
    let report = SchedSim::with_policy_factory(sharded_cfg(10, 4, 150_000.0), |_| {
        Box::new(FifoPolicy::new())
    })
    .run();
    assert!(report.completed > 15_000);
    assert_eq!(report.dropped, 0);
}

#[test]
fn wakeups_follow_uneven_shard_sizes() {
    // 16 cores over 3 shards: slices of 5/5/6. Saturated, each shard's
    // share of decisions must track its share of cores, not a third.
    let mut cfg = sharded_cfg(16, 3, 1.0);
    cfg.workload.set_offered(cfg.worker_capacity() * 1.25);
    cfg.max_outstanding = 8 * 16;
    cfg.duration = SimTime::from_ms(20);
    cfg.warmup = SimTime::from_ms(3);
    let r = SchedSim::with_policy_factory(cfg, |_| Box::new(FifoPolicy::new())).run();
    let total = r.per_agent_decisions.iter().sum::<u64>() as f64;
    for (i, (&d, cores)) in r.per_agent_decisions.iter().zip([5, 5, 6]).enumerate() {
        let (share, want) = (d as f64 / total, cores as f64 / 16.0);
        assert!(
            (share - want).abs() < 0.02,
            "shard {i}: {share:.3} of decisions vs {want:.3} of cores ({:?})",
            r.per_agent_decisions
        );
    }
}

#[test]
fn steal_rebalances_idle_shards() {
    // Bimodal mix: a 10 ms RANGE clogs one shard's cores while its
    // siblings idle — stealing should kick in.
    let mut cfg = sharded_cfg(4, 2, 60_000.0);
    cfg.workload = WorkloadSpec::poisson(ServiceMix::paper_bimodal(), 60_000.0);
    cfg.steal = true;
    let stealing =
        SchedSim::with_policy_factory(cfg.clone(), |_| Box::new(FifoPolicy::new())).run();
    assert!(stealing.diag.steals > 0, "no steals at {:?}", stealing.diag);
    let mut no_steal_cfg = cfg;
    no_steal_cfg.steal = false;
    let fixed = SchedSim::with_policy_factory(no_steal_cfg, |_| Box::new(FifoPolicy::new())).run();
    assert_eq!(fixed.diag.steals, 0);
    // Work conservation must not hurt completion count.
    assert!(
        stealing.completed * 100 >= fixed.completed * 99,
        "steal {} vs fixed {}",
        stealing.completed,
        fixed.completed
    );
}

#[test]
#[should_panic(expected = "use with_policy_factory")]
fn new_rejects_multi_agent_config() {
    let cfg = sharded_cfg(8, 2, 10_000.0);
    let _ = SchedSim::new(cfg, Box::new(FifoPolicy::new()));
}

// --- Dynamic rebalancing -----------------------------------------------

/// 4:1-skewed wakeup routing over 2 shards: shard 0 serves 4x the
/// offered load of shard 1.
fn skewed_cfg(rebalance: bool) -> SchedConfig {
    let mut cfg = sharded_cfg(8, 2, 330_000.0);
    cfg.wakeup_weights = Some(vec![4, 1]);
    if rebalance {
        cfg.rebalance = Some(RebalanceConfig::every(SimTime::from_ms(10)));
    }
    cfg
}

#[test]
fn weighted_routing_respects_weights() {
    // All wakeups to shard 0: shard 1 makes no fresh picks beyond
    // what it would via its own cores' events (none, since it never
    // receives a thread).
    let mut cfg = sharded_cfg(4, 2, 50_000.0);
    cfg.wakeup_weights = Some(vec![1, 0]);
    let r = SchedSim::with_policy_factory(cfg, |_| Box::new(FifoPolicy::new())).run();
    assert!(r.per_agent_decisions[0] > 0);
    assert_eq!(r.per_agent_decisions[1], 0, "starved shard decided");
    assert!(r.completed > 0);
}

#[test]
fn rebalance_feeds_cores_to_the_loaded_shard() {
    let skewed =
        SchedSim::with_policy_factory(skewed_cfg(true), |_| Box::new(FifoPolicy::new())).run();
    assert!(
        skewed.diag.rebalance_moves > 0,
        "sustained 4:1 skew must move cores: {:?}",
        skewed.diag
    );
    // Every move feeds the busy shard (shard 0 gains, never loses).
    for e in &skewed.rebalance {
        for m in &e.moves {
            assert_eq!(m.to, 0, "moves feed the loaded shard");
        }
    }
    // The per-core decision-rate spread shrinks from the first
    // sample to the last: the raw rates stay 4:1 by construction
    // (that *is* the offered skew), but once cores follow the load
    // every owned core carries a similar rate.
    let first = skewed
        .rebalance
        .first()
        .expect("epochs fired")
        .per_resource_spread();
    let last = skewed.rebalance.last().unwrap().per_resource_spread();
    assert!(
        last < first,
        "per-core decision-rate spread must shrink: {first:.3} -> {last:.3}"
    );
    // And rebalancing must not cost throughput vs the static split.
    let fixed =
        SchedSim::with_policy_factory(skewed_cfg(false), |_| Box::new(FifoPolicy::new())).run();
    assert!(fixed.rebalance.is_empty());
    assert_eq!(fixed.diag.rebalance_moves, 0);
    assert!(
        skewed.completed >= fixed.completed,
        "rebalance {} vs static {}",
        skewed.completed,
        fixed.completed
    );
}

#[test]
fn rebalance_history_is_deterministic() {
    let run =
        || SchedSim::with_policy_factory(skewed_cfg(true), |_| Box::new(FifoPolicy::new())).run();
    let (a, b) = (run(), run());
    assert_eq!(a.rebalance, b.rebalance, "generation history drifted");
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.diag, b.diag);
    assert_eq!(a.per_agent_decisions, b.per_agent_decisions);
}

#[test]
fn per_class_latency_is_reported() {
    let mut cfg = quick_cfg(Placement::Offloaded, OptLevel::full(), 20_000.0);
    cfg.workload = WorkloadSpec::poisson(ServiceMix::paper_bimodal(), 20_000.0);
    let r = SchedSim::new(cfg, Box::new(ShinjukuPolicy::paper_default())).run();
    assert_eq!(r.latency_by_class.len(), 2, "both mix classes completed");
    assert_eq!(r.latency_by_class[0].0, SloClass(0));
    assert_eq!(r.latency_by_class[1].0, SloClass(1));
    // The 10 ms RANGE class must dominate the GET class's median.
    assert!(r.latency_by_class[1].1.p50 > r.latency_by_class[0].1.p50 * 10);
}

#[test]
fn mix_sampling_matches_weights() {
    let mix = ServiceMix::paper_bimodal();
    let mut rng = wave_sim::rng(7);
    let mut long = 0u32;
    for _ in 0..200_000 {
        let (svc, _) = mix.sample(&mut rng);
        if svc >= SimTime::from_ms(10) {
            long += 1;
        }
    }
    // 0.5% of 200k = 1000 expected RANGEs; allow wide slack.
    assert!((600..1_400).contains(&long), "long {long}");
}

// --- Workload sources --------------------------------------------------

use wave_core::workload::{SloClass as Wslo, SyntheticConfig, TraceRecord};

#[test]
fn synthetic_workload_drives_the_sim_deterministically() {
    let run = || {
        let mut cfg = quick_cfg(Placement::Offloaded, OptLevel::full(), 0.0);
        let mut syn = SyntheticConfig::diurnal_bursty();
        syn.base_rate = 40_000.0;
        syn.diurnal_period = SimTime::from_ms(50);
        cfg.workload = WorkloadSpec::synthetic(syn);
        SchedSim::new(cfg, Box::new(FifoPolicy::new())).run()
    };
    let (a, b) = (run(), run());
    assert!(a.completed > 2_000, "completed {}", a.completed);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.latency.p99, b.latency.p99);
    assert_eq!(a.msix_sent, b.msix_sent);
}

#[test]
fn trace_workload_replays_and_affinity_pins_shards() {
    // Every task is pinned to shard 1 of 2: shard 0 never receives a
    // wakeup, so it makes no decisions — the routing analogue of the
    // weighted-routing starvation test, driven by the trace.
    // Arrivals start past the 20 ms warmup so every completion is
    // measured.
    let records: Vec<TraceRecord> = (0..2_000)
        .map(|i| TraceRecord {
            at: SimTime::from_us(21_000 + i * 20),
            service: SimTime::from_us(5),
            slo: Wslo(0),
            affinity: Some(1),
        })
        .collect();
    let mut cfg = sharded_cfg(4, 2, 0.0);
    cfg.workload = WorkloadSpec::trace(records);
    let r = SchedSim::with_policy_factory(cfg, |_| Box::new(FifoPolicy::new())).run();
    assert!(r.completed > 1_500, "completed {}", r.completed);
    assert_eq!(r.per_agent_decisions[0], 0, "pinned-away shard decided");
    assert!(r.per_agent_decisions[1] > 0);
}

#[test]
fn phase_boundaries_bucket_latency_by_arrival() {
    let mut cfg = quick_cfg(Placement::Offloaded, OptLevel::full(), 50_000.0);
    cfg.phases = vec![SimTime::from_ms(80), SimTime::from_ms(140)];
    let r = SchedSim::new(cfg, Box::new(FifoPolicy::new())).run();
    assert_eq!(r.latency_by_phase.len(), 3);
    let total: u64 = r.latency_by_phase.iter().map(|s| s.count).sum();
    assert_eq!(total, r.completed, "every completion lands in a phase");
    for (i, s) in r.latency_by_phase.iter().enumerate() {
        assert!(s.count > 0, "phase {i} empty");
    }
}

#[test]
fn queue_full_rejections_reach_the_completion_log() {
    // 5,000 fabric requests land at once: the agent's 4,096-entry queue
    // takes 4,096 wakeups and turns 904 away. A fleet driver counts a
    // request in flight until its outcome is logged, so all must be.
    let mut cfg = SchedConfig::new(4, Placement::Offloaded, OptLevel::full());
    cfg.workload = WorkloadSpec::trace(Vec::new());
    cfg.max_outstanding = 10_000;
    let mut stepper = SchedSim::new(cfg, Box::new(FifoPolicy::new())).into_stepper();
    stepper.set_completion_log(true);
    let at = SimTime::from_ms(1);
    for _ in 0..5_000 {
        stepper.inject(at, at, Task::new(SimTime::from_us(10), SloClass(0)));
    }
    stepper.advance(SimTime::from_ms(500));
    let mut log = Vec::new();
    stepper.drain_completions(&mut log);
    let rejected = log.iter().filter(|c| c.rejected).count();
    assert_eq!((log.len(), rejected), (5_000, 904));
    assert_eq!(stepper.finish().dropped, 904);
}

/// `run()` must equal `into_stepper` + `advance` over any windows +
/// `finish`, down to every report field: windows cut at random, exactly
/// on the next pending event, or one nanosecond before it.
#[test]
fn stepper_windows_are_invisible() {
    let mut sharded = sharded_cfg(8, 4, 100_000.0);
    sharded.workload = WorkloadSpec::poisson(ServiceMix::paper_bimodal(), 100_000.0);
    sharded.wakeup_weights = Some(vec![4, 1, 1, 1]);
    sharded.steal = true;
    sharded.rebalance = Some(RebalanceConfig::every(SimTime::from_ms(5)));
    let mut ingress = quick_cfg(Placement::Offloaded, OptLevel::full(), 150_000.0);
    ingress.ingress = Some(IngressConfig {
        stack_cores: 2,
        stack_core: wave_sim::cpu::CoreClass::NicArm,
        per_rpc: SimTime::from_us(2),
        network_delay: SimTime::from_us(5),
        worker_receive: SimTime::from_ns(800),
        worker_respond: SimTime::from_ns(400),
    });
    let mut preempt = quick_cfg(Placement::Offloaded, OptLevel::full(), 55_000.0);
    preempt.workload = WorkloadSpec::poisson(ServiceMix::paper_bimodal(), 55_000.0);
    type Policy = fn() -> Box<dyn SchedPolicy>;
    let fifo: Policy = || Box::new(FifoPolicy::new());
    let shinjuku: Policy = || Box::new(ShinjukuPolicy::paper_default());
    for (mut cfg, policy) in [(sharded, fifo), (ingress, fifo), (preempt, shinjuku)] {
        cfg.duration = SimTime::from_ms(60);
        cfg.warmup = SimTime::from_ms(10);
        let build = || SchedSim::with_policy_factory(cfg.clone(), |_| policy());
        let whole = format!("{:?}", build().run());
        for seed in 1..=3 {
            let mut rng = wave_sim::rng(seed);
            let mut stepper = build().into_stepper();
            let mut horizon = SimTime::ZERO;
            while horizon < cfg.duration {
                let next = stepper.next_event().unwrap_or(cfg.duration);
                horizon = match rng.random_range(0..3) {
                    0 => next,
                    1 => next.saturating_sub(SimTime::from_ns(1)).max(horizon),
                    _ => horizon + SimTime::from_ns(rng.random_range(1..3_000_000)),
                }
                .min(cfg.duration);
                stepper.advance(horizon);
            }
            let stepped = format!("{:?}", stepper.finish());
            assert!(stepped == whole, "seed {seed}: windows changed the report");
        }
    }
}

/// The §3.2 commit check: a decision for a thread that exited, whose
/// arena slot a new thread now holds, fails cleanly and parks the core;
/// the live id for the same slot commits and runs.
#[test]
fn stale_tid_fails_commit_and_live_tid_runs() {
    let cfg = quick_cfg(Placement::Offloaded, OptLevel::full(), 20_000.0);
    let mut m = SchedSim::new(cfg, Box::new(FifoPolicy::new()));
    let threads = &mut m.kernel.threads;
    let stale = threads.insert(SimTime::from_us(10), SimTime::ZERO, SloClass::DEFAULT);
    assert!(threads.remove(stale));
    let live = threads.insert(SimTime::from_us(10), SimTime::ZERO, SloClass::DEFAULT);
    assert_eq!(live.slot(), stale.slot());
    // Stages `tid` in idle core 0's slot at `at` and delivers the MSI-X
    // 10 µs later; nothing after the handler runs.
    let (cpu, idle) = (CpuId(0), CoreState::Idle { waiting: true });
    let stage_and_kick = |m: &mut SchedSim, tid: Tid, at: SimTime| {
        m.agents.shards[0].rt.stage(at, &mut m.ic, SlotId(0), tid);
        let mut sim: S = Sim::new();
        let irq = at + SimTime::from_us(10);
        sim.set_horizon(irq);
        sim.schedule(irq, SchedEvent::WakeupIrq(cpu));
        sim.run(|s, ev| m.handle(s, ev));
    };
    assert_eq!(m.kernel.cores[0], idle);
    stage_and_kick(&mut m, stale, SimTime::ZERO);
    assert_eq!((m.diag.wakeup_hit, m.diag.commit_fail), (1, 1));
    assert_eq!(m.kernel.cores[0], idle, "a failed commit parks the core");
    assert_eq!(m.kernel.threads[live].run, ThreadRun::Runnable);

    stage_and_kick(&mut m, live, SimTime::from_us(20));
    assert_eq!((m.diag.wakeup_hit, m.diag.commit_fail), (2, 1));
    assert!(matches!(m.kernel.cores[0], CoreState::Busy { tid, .. } if tid == live));
    assert_eq!(m.kernel.threads[live].run, ThreadRun::Running(cpu));
}
