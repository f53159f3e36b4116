//! `fleet_w1` / `fleet_w2`: a 64-host datacenter of Wave hosts on the
//! conservative windowed executor, sequential or on two worker threads.
//!
//! The fleet is assembled here from its public parts (`HostNode`,
//! `Frontdoor`, `FatTreeFabric`, `FleetExecutor`) rather than through
//! `FleetConfig::run`, so that set-up can be timed apart from the run
//! and the traced run can wrap each part. The assembly mirrors
//! `FleetConfig::run` exactly; the smoke test pins the two fingerprints
//! equal.

use std::sync::Arc;
use std::time::Instant;

use wave_core::workload::SloClass;
use wave_fleet::{
    FatTreeFabric, FleetConfig, FleetNode, FleetReport, Frontdoor, HostNode, SloAttainment,
};
use wave_ghost::SchedReport;
use wave_sim::fleet::{FleetExecStats, FleetExecutor, FleetHost};
use wave_sim::SimTime;

use crate::sched::GhostWork;
use crate::trace::{ns_since, PolicyMeter, TimedNode, TimedPolicy, TimedTransit};
use crate::{ratio, timed_setup, Checks, Outcome, Size, Span, Times};

/// Share of the fleet's service capacity the frontdoor offers.
const LOAD: f64 = 0.6;

/// The workload's configuration: 64 hosts of 4 workers and one FIFO
/// agent, least-loaded frontdoor, datacenter fat tree, the paper's
/// bimodal mix at 60% of capacity.
pub fn config(seed: u64, size: Size, workers: usize) -> FleetConfig {
    let (hosts, duration, drain) = match size {
        Size::Full => (64, SimTime::from_ms(250), SimTime::from_ms(50)),
        Size::Smoke => (8, SimTime::from_ms(6), SimTime::from_ms(4)),
    };
    let mut cfg = FleetConfig::quick(hosts);
    // Sized from the mix: `FleetConfig::quick` assumes 100k req/s per
    // worker, which `paper_bimodal`'s ~60 µs mean service cannot serve.
    let capacity = f64::from(hosts * cfg.host.workers) / cfg.workload.mean_service().as_secs_f64();
    cfg.workload.set_offered(LOAD * capacity);
    cfg.workers = workers;
    cfg.duration = duration;
    cfg.warmup = duration.scale(0.1);
    cfg.drain = drain;
    cfg.seed = seed;
    cfg
}

/// `FleetConfig::run`'s per-host seed derivation (splitmix64 of
/// `seed ^ host`), which the crate keeps private.
fn host_seed(seed: u64, host: u32) -> u64 {
    let mut z = (seed ^ u64::from(host)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The hosts and the frontdoor, in executor node order. `meters` gives
/// each host's policy a meter of its own when tracing.
fn nodes(cfg: &FleetConfig, meters: Option<&[Arc<PolicyMeter>]>) -> Vec<FleetNode> {
    let end = cfg.duration + cfg.drain;
    let mut nodes = Vec::with_capacity(cfg.hosts as usize + 1);
    for h in 0..cfg.hosts {
        let mut hc = cfg.host.clone();
        hc.duration = end;
        hc.seed = host_seed(cfg.seed, h);
        let mut policy = (cfg.policy)();
        if let Some(m) = meters {
            policy = TimedPolicy::boxed(policy, Arc::clone(&m[h as usize]));
        }
        nodes.push(FleetNode::Host(Box::new(HostNode::new(
            hc, policy, cfg.hosts,
        ))));
    }
    nodes.push(FleetNode::Frontdoor(Box::new(Frontdoor::new(
        &cfg.workload,
        cfg.seed,
        cfg.hosts,
        cfg.lb,
        cfg.duration,
        cfg.warmup,
    ))));
    nodes
}

/// Set-up: the nodes, the fabric and the executor.
fn build<H: FleetHost>(
    cfg: &FleetConfig,
    wrap: impl Fn(FleetNode) -> H,
    meters: Option<&[Arc<PolicyMeter>]>,
) -> (FleetExecutor<H>, FatTreeFabric) {
    let nodes = nodes(cfg, meters).into_iter().map(wrap).collect();
    let fabric = FatTreeFabric::new(cfg.fabric, cfg.hosts);
    let exec = FleetExecutor::new(nodes, cfg.fabric.min_latency(), cfg.workers);
    (exec, fabric)
}

/// Runs the workload once; `traced` wraps every node, the fabric and
/// every host's policy in a timer.
pub fn run(seed: u64, size: Size, workers: usize, traced: bool) -> Outcome {
    let cfg = config(seed, size, workers);
    let end = cfg.duration + cfg.drain;
    if !traced {
        let ((mut exec, mut fabric), setup_s) = timed_setup(|| build(&cfg, |n| n, None));
        let span = Span::start();
        let stats = exec.run_until(end, &mut fabric);
        let (report, hosts) = report(&cfg, exec.into_hosts(), fabric.carried(), stats);
        return outcome(&cfg, &report, &hosts, span.stop(setup_s), None);
    }

    let ((mut exec, mut fabric, meters), setup_s) = timed_setup(|| {
        let meters: Vec<_> = (0..cfg.hosts).map(|_| Arc::default()).collect();
        let (exec, fabric) = build(&cfg, TimedNode::new, Some(&meters));
        (exec, fabric, meters)
    });
    let span = Span::start();
    let mut transit = TimedTransit {
        inner: &mut fabric,
        nanos: 0,
    };
    let t = Instant::now();
    let stats = exec.run_until(end, &mut transit);
    let mut trace = FleetTrace {
        run_ns: ns_since(t),
        transit_ns: transit.nanos,
        ..FleetTrace::default()
    };
    let nodes: Vec<FleetNode> = exec
        .into_hosts()
        .into_iter()
        .map(|n| {
            match n.inner {
                FleetNode::Host(_) => trace.host_ns += n.nanos,
                FleetNode::Frontdoor(_) => trace.frontdoor_ns += n.nanos,
            }
            n.inner
        })
        .collect();
    let (report, hosts) = report(&cfg, nodes, fabric.carried(), stats);
    let times = span.stop(setup_s);
    meters.iter().for_each(|m| trace.policy.absorb(m));
    outcome(&cfg, &report, &hosts, times, Some(trace))
}

/// Host nanoseconds the traced run measured at each seam.
#[derive(Default)]
struct FleetTrace {
    /// `FleetExecutor::run_until` as a whole.
    run_ns: u64,
    /// Host nodes' `advance`, summed over hosts and threads.
    host_ns: u64,
    /// The frontdoor's `advance`.
    frontdoor_ns: u64,
    /// `FatTreeFabric::deliver_at`.
    transit_ns: u64,
    /// Every host's policy calls.
    policy: PolicyMeter,
}

impl FleetTrace {
    fn layers(
        &self,
        work: &GhostWork,
        stats: FleetExecStats,
        workers: usize,
    ) -> Vec<(&'static str, f64)> {
        let advance_ns = (self.host_ns + self.frontdoor_ns) as f64 / workers as f64;
        let exec_overhead_ns = self.run_ns as f64 - self.transit_ns as f64 - advance_ns;
        let mut layers = work.layers(self.host_ns, &self.policy);
        layers.extend([
            ("fleet.windows", stats.windows as f64),
            ("fleet.messages", stats.messages as f64),
            ("fleet.events", stats.events as f64),
            (
                "fleet.events_per_window",
                ratio(stats.events, stats.windows),
            ),
            ("fleet.events_per_s", ratio(stats.events, self.run_ns) * 1e9),
            ("fleet.host_advance_s", self.host_ns as f64 * 1e-9),
            ("fleet.frontdoor_s", self.frontdoor_ns as f64 * 1e-9),
            ("fleet.transit_s", self.transit_ns as f64 * 1e-9),
            ("fleet.exec_overhead_s", exec_overhead_ns * 1e-9),
        ]);
        layers
    }
}

/// Finishes every node and assembles the `FleetReport` exactly as
/// `FleetConfig::run` does, plus each host's own report.
fn report(
    cfg: &FleetConfig,
    nodes: Vec<FleetNode>,
    fabric_messages: u64,
    exec: FleetExecStats,
) -> (FleetReport, Vec<SchedReport>) {
    let mut hosts = Vec::with_capacity(cfg.hosts as usize);
    let mut fd = None;
    for node in nodes {
        match node {
            FleetNode::Host(h) => hosts.push(h.finish()),
            FleetNode::Frontdoor(f) => fd = Some(f.into_stats()),
        }
    }
    let fd = fd.expect("the fleet has a frontdoor");
    let slo = fd
        .latency_by_class
        .iter()
        .map(|(&c, h)| {
            let class = SloClass(c);
            let target = cfg.slo.target(class).unwrap_or(SimTime::MAX);
            SloAttainment {
                class,
                target,
                total: h.count(),
                attained: h.count_at_or_below(target),
            }
        })
        .collect();
    let window = cfg.duration - cfg.warmup;
    let report = FleetReport {
        hosts: cfg.hosts,
        workers: cfg.workers,
        lb: cfg.lb.name(),
        offered: cfg.workload.offered(),
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
        per_host_completed: hosts.iter().map(|h| h.completed).collect(),
        fabric_messages,
        exec,
    };
    (report, hosts)
}

/// Checks the report and collects its counters, plus the layer
/// metrics of a traced run.
fn outcome(
    cfg: &FleetConfig,
    r: &FleetReport,
    hosts: &[SchedReport],
    times: Times,
    trace: Option<FleetTrace>,
) -> Outcome {
    let mut checks = Checks::default();
    let steered: u64 = r.per_host_emitted.iter().sum();
    checks.expect(steered == r.emitted, || {
        format!("per-host emitted {steered} != emitted {}", r.emitted)
    });
    checks.expect(
        r.completed + r.rejected + r.in_flight_at_end <= r.emitted,
        || {
            format!(
                "completed {} + rejected {} + in flight {} > emitted {}",
                r.completed, r.rejected, r.in_flight_at_end, r.emitted
            )
        },
    );
    let served: u64 = r.per_host_completed.iter().sum();
    checks.expect(served >= r.completed, || {
        format!("hosts completed {served} < fleet completed {}", r.completed)
    });
    let slo_total: u64 = r.slo.iter().map(|s| s.total).sum();
    checks.expect(
        slo_total == r.completed && r.latency.count == r.completed,
        || {
            format!(
                "SLO samples {slo_total} / latency samples {} != completed {}",
                r.latency.count, r.completed
            )
        },
    );
    checks.expect(r.exec.messages <= r.fabric_messages, || {
        format!(
            "delivered {} > carried {}",
            r.exec.messages, r.fabric_messages
        )
    });
    checks.expect(r.completed > 0 && r.rejected == 0, || {
        format!("completed {}, rejected {}", r.completed, r.rejected)
    });
    let class0 = SloClass(0);
    let deadline = cfg.slo.target(class0).unwrap_or(SimTime::MAX);
    let p99 = r
        .latency_by_class
        .iter()
        .find(|(c, _)| *c == class0)
        .map(|(_, s)| s.p99);
    checks.expect(p99.is_some_and(|p| p < deadline), || {
        format!("class-0 p99 {p99:?} misses its {deadline} deadline")
    });

    let mut work = GhostWork::default();
    hosts.iter().for_each(|h| work.add(h));
    let mut counters = work.counters();
    counters.extend([
        ("fleet.windows", r.exec.windows),
        ("fleet.messages", r.exec.messages),
        ("fleet.events", r.exec.events),
        ("fleet.emitted", r.emitted),
        ("fleet.completed", r.completed),
        ("fleet.class0_p99_ns", p99.map_or(0, SimTime::as_ns)),
    ]);
    Outcome {
        times,
        fingerprint: r.fingerprint(),
        counters,
        layers: trace.map_or_else(Vec::new, |t| t.layers(&work, r.exec, cfg.workers)),
        failures: checks.failures,
    }
}
