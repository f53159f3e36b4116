//! Fleet nodes: the hosts and the frontdoor.
//!
//! A fleet is `n` [`HostNode`]s (each a full [`SchedStepper`] — NIC
//! agent, worker cores, policies, the works) plus one [`Frontdoor`] at
//! node index `n`. The frontdoor owns the fleet-level workload source
//! and the load balancer: every arrival is steered to a host and sent
//! over the fabric as a [`FleetMsg::Request`]; every host completion
//! comes back as a [`FleetMsg::Done`] and lands in the frontdoor's
//! latency accounting. Latency is measured emission → `Done` delivery,
//! so it includes both fabric directions plus everything the host did.

use std::collections::BTreeMap;

use wave_core::workload::{AnySource, SloClass, Task, WorkloadSource, WorkloadSpec};
use wave_ghost::{HostCompletion, SchedConfig, SchedReport, SchedSim, SchedStepper};
use wave_sim::fleet::{Envelope, FleetHost, Outbound};
use wave_sim::stats::Histogram;
use wave_sim::SimTime;

/// What travels over the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetMsg {
    /// Frontdoor → host: one steered request.
    Request {
        /// Frontdoor emission time (latency epoch).
        emit: SimTime,
        /// The request itself.
        task: Task,
    },
    /// Host → frontdoor: a request reached a terminal state.
    Done {
        /// The original emission stamp, echoed back.
        emit: SimTime,
        /// The request's SLO class.
        slo: SloClass,
        /// `true` when the host's overload guard shed the request.
        rejected: bool,
    },
}

/// How the frontdoor spreads requests over the hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LbPolicy {
    /// RSS-style: hash the flow id ([`wave_rpc::rss`]), blind to load.
    Hash,
    /// Least outstanding requests (ties to the lowest host index).
    /// Counts are exact at window barriers and stale within a window —
    /// the realistic setting: a real balancer's view lags the hosts by
    /// at least one network RTT anyway.
    LeastLoaded,
}

impl LbPolicy {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            LbPolicy::Hash => "hash",
            LbPolicy::LeastLoaded => "least-loaded",
        }
    }
}

/// One Wave host, adapted to the conservative executor.
///
/// The wrapped [`SchedStepper`] runs with an empty local workload —
/// every request it serves arrives over the fabric via
/// [`SchedStepper::inject`] — and logs per-request completions, which
/// `advance` drains into `Done` messages each window.
pub struct HostNode {
    stepper: SchedStepper,
    /// Node index of the frontdoor (completions go there).
    frontdoor: u32,
    /// Scratch buffer reused across windows.
    done: Vec<HostCompletion>,
}

impl HostNode {
    /// Builds a host from its config and policy. The config's workload
    /// is replaced with an empty trace (fleet hosts serve only injected
    /// requests) and warmup is zeroed: measurement windows are the
    /// frontdoor's job.
    pub fn new(
        mut cfg: SchedConfig,
        policy: Box<dyn wave_ghost::SchedPolicy>,
        frontdoor: u32,
    ) -> Self {
        cfg.workload = WorkloadSpec::trace(Vec::new());
        cfg.warmup = SimTime::ZERO;
        let mut stepper = SchedSim::new(cfg, policy).into_stepper();
        stepper.set_completion_log(true);
        HostNode {
            stepper,
            frontdoor,
            done: Vec::new(),
        }
    }

    /// Finishes the wrapped host and returns its local report
    /// (per-host diagnostics; fleet-level numbers live in
    /// [`FleetReport`](crate::FleetReport)).
    pub fn finish(self) -> SchedReport {
        self.stepper.finish()
    }
}

impl FleetHost for HostNode {
    type Msg = FleetMsg;

    fn advance(
        &mut self,
        horizon: SimTime,
        inbox: &mut Vec<Envelope<FleetMsg>>,
        outbox: &mut Vec<Outbound<FleetMsg>>,
    ) -> u64 {
        for env in inbox.drain(..) {
            match env.msg {
                FleetMsg::Request { emit, task } => {
                    self.stepper.inject(env.at, emit, task);
                }
                FleetMsg::Done { .. } => unreachable!("hosts never receive Done"),
            }
        }
        let events = self.stepper.advance(horizon);
        self.stepper.drain_completions(&mut self.done);
        for c in self.done.drain(..) {
            outbox.push(Outbound {
                sent: c.finished,
                dst: self.frontdoor,
                msg: FleetMsg::Done {
                    emit: c.arrival,
                    slo: c.slo,
                    rejected: c.rejected,
                },
            });
        }
        events
    }

    fn next_event(&self) -> Option<SimTime> {
        self.stepper.next_event()
    }
}

/// Everything the frontdoor measured, extracted after the run.
#[derive(Debug, Clone)]
pub struct FrontdoorStats {
    /// Requests emitted (all, including warmup).
    pub emitted: u64,
    /// Completions recorded inside the measured window.
    pub completed: u64,
    /// Rejections (host overload guard) inside the measured window.
    pub rejected: u64,
    /// Requests emitted but not yet answered when the run ended.
    pub in_flight_at_end: u64,
    /// Emissions per host (all, including warmup).
    pub per_host_emitted: Vec<u64>,
    /// Round-trip latency, measured window only.
    pub latency: Histogram,
    /// Round-trip latency per SLO class, measured window only.
    pub latency_by_class: BTreeMap<u8, Histogram>,
}

/// The fleet's load balancer + load generator, as an executor node.
///
/// Runs no event engine of its own: `advance` merges the (time-sorted)
/// inbox with the workload source's (time-sorted) arrivals and processes
/// both streams in timestamp order, so least-loaded balancing sees
/// completions exactly as they are delivered. On a timestamp tie the
/// `Done` is processed first — capacity frees before the next pick.
pub struct Frontdoor {
    source: AnySource,
    lb: LbPolicy,
    /// Next undrawn arrival time, if the source has one.
    next_arrival: Option<SimTime>,
    /// Stop emitting after this time (drain phase follows).
    duration: SimTime,
    /// Ignore completions whose request was emitted before this.
    warmup: SimTime,
    /// Outstanding requests per host, exact at barriers.
    outstanding: Vec<u64>,
    /// Flow-id counter for the hash balancer.
    flows: u64,
    stats: FrontdoorStats,
}

impl Frontdoor {
    /// Builds the frontdoor: `workload` is the *fleet-level* source
    /// (its offered rate is the whole datacenter's), split over `hosts`
    /// hosts by `lb`. Emission stops at `duration`; completions of
    /// requests emitted in `[warmup, duration]` are measured.
    pub fn new(
        workload: &WorkloadSpec,
        seed: u64,
        hosts: u32,
        lb: LbPolicy,
        duration: SimTime,
        warmup: SimTime,
    ) -> Self {
        let mut source = workload.build(seed);
        let next_arrival = source.next_arrival();
        Frontdoor {
            source,
            lb,
            next_arrival,
            duration,
            warmup,
            outstanding: vec![0; hosts as usize],
            flows: 0,
            stats: FrontdoorStats {
                emitted: 0,
                completed: 0,
                rejected: 0,
                in_flight_at_end: 0,
                per_host_emitted: vec![0; hosts as usize],
                latency: Histogram::default(),
                latency_by_class: BTreeMap::new(),
            },
        }
    }

    /// Extracts the measurements (call after the run).
    pub fn into_stats(mut self) -> FrontdoorStats {
        self.stats.in_flight_at_end = self.outstanding.iter().sum();
        self.stats
    }

    /// Steers one request to a host.
    fn pick(&self) -> u32 {
        match self.lb {
            LbPolicy::Hash => wave_rpc::rss(self.flows, self.outstanding.len() as u32),
            LbPolicy::LeastLoaded => self
                .outstanding
                .iter()
                .enumerate()
                .min_by_key(|&(_, &n)| n)
                .map(|(i, _)| i as u32)
                .expect("fleet has at least one host"),
        }
    }

    /// Emits the arrival drawn for time `t`.
    fn emit(&mut self, t: SimTime, outbox: &mut Vec<Outbound<FleetMsg>>) {
        // Same draw order as `SchedSim::arrival`: announce the next
        // arrival first, then draw the task.
        self.next_arrival = self.source.next_arrival();
        let task = self.source.task();
        let host = self.pick();
        self.flows += 1;
        self.outstanding[host as usize] += 1;
        self.stats.emitted += 1;
        self.stats.per_host_emitted[host as usize] += 1;
        outbox.push(Outbound {
            sent: t,
            dst: host,
            msg: FleetMsg::Request { emit: t, task },
        });
    }

    /// Books one returned completion.
    fn absorb(&mut self, at: SimTime, src: u32, msg: FleetMsg) {
        let FleetMsg::Done {
            emit,
            slo,
            rejected,
        } = msg
        else {
            unreachable!("frontdoor only receives Done")
        };
        self.outstanding[src as usize] -= 1;
        if emit < self.warmup || emit > self.duration {
            return;
        }
        if rejected {
            self.stats.rejected += 1;
            return;
        }
        self.stats.completed += 1;
        self.stats.latency.record_time(at - emit);
        self.stats
            .latency_by_class
            .entry(slo.0)
            .or_default()
            .record_time(at - emit);
    }
}

impl FleetHost for Frontdoor {
    type Msg = FleetMsg;

    fn advance(
        &mut self,
        horizon: SimTime,
        inbox: &mut Vec<Envelope<FleetMsg>>,
        outbox: &mut Vec<Outbound<FleetMsg>>,
    ) -> u64 {
        let mut processed = 0u64;
        let mut next_done = 0usize;
        loop {
            let done_at = inbox.get(next_done).map(|e| e.at);
            let emit_at = self
                .next_arrival
                .filter(|&t| t <= horizon && t <= self.duration);
            match (done_at, emit_at) {
                // Tie: absorb the completion first so a freed slot is
                // visible to the pick made at the same instant.
                (Some(d), Some(e)) if d <= e => {
                    let env = inbox[next_done];
                    next_done += 1;
                    self.absorb(env.at, env.src, env.msg);
                }
                (_, Some(e)) => self.emit(e, outbox),
                (Some(_), None) => {
                    let env = inbox[next_done];
                    next_done += 1;
                    self.absorb(env.at, env.src, env.msg);
                }
                (None, None) => break,
            }
            processed += 1;
        }
        inbox.clear();
        processed
    }

    /// The next arrival, while emission lasts; completions come only as
    /// deliveries.
    fn next_event(&self) -> Option<SimTime> {
        self.next_arrival.filter(|&t| t <= self.duration)
    }
}

/// A fleet node: either a host or the frontdoor, so the executor can
/// hold them in one homogeneous vector.
pub enum FleetNode {
    /// A Wave host (index `0..n`).
    Host(Box<HostNode>),
    /// The frontdoor (index `n`).
    Frontdoor(Box<Frontdoor>),
}

impl FleetHost for FleetNode {
    type Msg = FleetMsg;

    fn advance(
        &mut self,
        horizon: SimTime,
        inbox: &mut Vec<Envelope<FleetMsg>>,
        outbox: &mut Vec<Outbound<FleetMsg>>,
    ) -> u64 {
        match self {
            FleetNode::Host(h) => h.advance(horizon, inbox, outbox),
            FleetNode::Frontdoor(f) => f.advance(horizon, inbox, outbox),
        }
    }

    fn next_event(&self) -> Option<SimTime> {
        match self {
            FleetNode::Host(h) => h.next_event(),
            FleetNode::Frontdoor(f) => f.next_event(),
        }
    }
}
