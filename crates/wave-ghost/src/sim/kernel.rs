//! The host side of the seam: what the kernel keeps under Wave —
//! admission, the cores' state machine, commit, run segments and the
//! latency accounting — and the host's end of the Table 1 crossings.

use std::collections::BTreeMap;

use wave_core::runtime::SlotId;
use wave_core::workload::AnySource;
use wave_sim::cpu::WorkloadClass;
use wave_sim::stats::Histogram;

use super::agent::arm_pump;
use super::*;
use crate::arena::{ThreadRun, ThreadTable};
use crate::msg::{CpuId, SchedMsg, SchedMsgKind, Tid};

/// Worker-core state machine, as the *host kernel* sees it.
///
/// `waiting` is set on every idle transition that finds no prestaged
/// decision (and re-armed when the agent sees the core's dead message),
/// and cleared when the agent kicks the core, so no interrupt is sent
/// twice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum CoreState {
    /// Idle; `waiting` means the agent owes this core an MSI-X wakeup.
    Idle { waiting: bool },
    /// Running a thread; the token invalidates stale preempt events.
    Busy { tid: Tid, token: u64 },
}

/// One run segment: `tid` on `cpu` from `start`, stamped with the run
/// token that tells its timers from a later segment's.
#[derive(Clone, Copy)]
pub(super) struct Segment {
    pub(super) cpu: CpuId,
    pub(super) tid: Tid,
    token: u64,
    start: SimTime,
}

/// The host kernel's state.
pub(super) struct Kernel {
    pub(super) cores: Vec<CoreState>,
    /// The thread arena, the one record per thread: its generation-
    /// stamped [`Tid`]s are what a commit validates, its length is the
    /// outstanding count, and the policies' run queues are intrusive
    /// lists through its rows.
    pub(super) threads: ThreadTable,
    /// [`SchedConfig::workload`] built with the config seed; statically
    /// dispatched, as the sim's hottest external call.
    pub(super) source: AnySource,
    /// Sequential admission counter, which drives the wakeup routing
    /// (thread ids are generation-packed arena handles).
    next_seq: u64,
    run_token: u64,
    /// Per RPC-stack core, when it next falls idle (Fig. 6 ingress).
    stack_busy: Vec<SimTime>,
    pub(super) lat: Histogram,
    /// Per-SLO-class latency histograms (key: class id).
    pub(super) lat_by_class: BTreeMap<u8, Histogram>,
    /// Per-phase latency histograms, by arrival (empty without phases).
    pub(super) lat_by_phase: Vec<Histogram>,
    pub(super) dropped: u64,
    /// Fleet mode: log every request's outcome to `completions`.
    pub(super) log_completions: bool,
    pub(super) completions: Vec<HostCompletion>,
}

impl Kernel {
    pub(super) fn new(cfg: &SchedConfig) -> Self {
        Kernel {
            cores: vec![CoreState::Idle { waiting: true }; cfg.workers as usize],
            threads: ThreadTable::with_capacity(1024),
            source: cfg.workload.build(cfg.seed),
            next_seq: 0,
            run_token: 0,
            stack_busy: vec![SimTime::ZERO; cfg.ingress.map_or(0, |i| i.stack_cores as usize)],
            lat: Histogram::new(),
            lat_by_class: BTreeMap::new(),
            lat_by_phase: if cfg.phases.is_empty() {
                Vec::new()
            } else {
                vec![Histogram::new(); cfg.phases.len() + 1]
            },
            dropped: 0,
            log_completions: false,
            completions: Vec::new(),
        }
    }

    /// Whether the segment's core still runs it; a timer or IRQ for any
    /// other segment is stale and does nothing.
    pub(super) fn runs(&self, seg: Segment) -> bool {
        let (tid, token) = (seg.tid, seg.token);
        self.cores[seg.cpu.0 as usize] == CoreState::Busy { tid, token }
    }

    /// Logs a request's terminal outcome for the fleet driver, when on.
    fn log(&mut self, arrival: SimTime, finished: SimTime, slo: SloClass, rejected: bool) {
        if self.log_completions {
            let done = HostCompletion {
                arrival,
                finished,
                slo,
                rejected,
            };
            self.completions.push(done);
        }
    }

    /// Turns a request away: counts the drop and logs it as rejected, so
    /// a fleet driver's accounting comes back down.
    pub(super) fn reject(&mut self, now: SimTime, wire_arrival: SimTime, slo: SloClass) {
        self.dropped += 1;
        self.log(wire_arrival, now, slo, true);
    }

    fn finish_thread(&mut self, cfg: &SchedConfig, tid: Tid, now: SimTime) {
        let Some(t) = self.threads.get(tid) else {
            return;
        };
        let (arrival, slo) = (t.arrival, t.slo);
        self.threads.remove(tid);
        self.log(arrival, now, slo, false);
        if arrival >= cfg.warmup && now <= cfg.duration {
            let lat = now - arrival;
            self.lat.record_time(lat);
            self.lat_by_class.entry(slo.0).or_default().record_time(lat);
            if !self.lat_by_phase.is_empty() {
                // Bucket by arrival: a request belongs to the phase its
                // load hit the system in, not the one it drained in.
                let idx = cfg.phases.partition_point(|&p| p <= arrival);
                self.lat_by_phase[idx].record_time(lat);
            }
        }
    }
}

impl SchedSim {
    /// Host→agent message (Table 1 `SEND_MESSAGES`): pushes `msg` onto
    /// shard `si`'s queue at `at`, flushes it, and arms the pump for when
    /// it is visible, one hop later. A full queue gets one credit refresh
    /// and retry with `retry`; else the message is lost. A lost
    /// preemption requeue strands its thread: it stays runnable, but no
    /// policy queue holds it, so it never runs again. Returns the host
    /// cost and whether it went.
    fn send_to_agent(
        &mut self,
        sim: &mut S,
        si: usize,
        at: SimTime,
        msg: SchedMsg,
        retry: bool,
    ) -> (SimTime, bool) {
        let rt = &mut self.agents.shards[si].rt;
        let (mut cost, sent) = if retry {
            rt.host_send(at, &mut self.ic, msg)
        } else {
            let c = rt.host_try_send(at, &mut self.ic, msg);
            (c.unwrap_or(SimTime::ZERO), c.is_some())
        };
        if sent {
            cost += rt.host_flush(at + cost, &mut self.ic);
            let visible = at + cost + self.ic.one_way();
            arm_pump(sim, &mut self.agents.shards, si, visible);
        }
        (cost, sent)
    }

    /// Host read of `cpu`'s decision slot (Table 1 `POLL_TXNS`) at `at`:
    /// `fresh` flushes the stale view first (§5.3.2, the MSI-X paths);
    /// otherwise it reads what the idle transition prefetched. Returns
    /// the host cost and the staged thread, if any.
    fn read_slot(&mut self, at: SimTime, cpu: CpuId, fresh: bool) -> (SimTime, Option<Tid>) {
        let si = self.agents.shard_of(cpu);
        let slots = self.agents.shards[si].rt.slots();
        let mut cost = SimTime::ZERO;
        if fresh {
            cost += slots.host_invalidate(at, &mut self.ic, SlotId(cpu.0));
        }
        let (c, got) = slots.host_consume(at + cost, &mut self.ic, SlotId(cpu.0));
        (cost + c, got)
    }

    /// Parks `cpu` with nothing to run: the agent now owes it an MSI-X,
    /// and its shard pumps once the idle transition is visible, one hop
    /// after `at`.
    // shortcut: the pump reads the parked core state directly; stands in
    // for ghOSt's idle-CPU notification over `SEND_MESSAGES`.
    fn park(&mut self, sim: &mut S, cpu: CpuId, at: SimTime) {
        self.kernel.cores[cpu.0 as usize] = CoreState::Idle { waiting: true };
        let si = self.agents.shard_of(cpu);
        arm_pump(sim, &mut self.agents.shards, si, at + self.ic.one_way());
    }

    /// The local load generator's next arrival.
    pub(super) fn arrival(&mut self, sim: &mut S) {
        let now = sim.now();
        // Announce the next arrival first (open loop): next-arrival draw,
        // overload guard, then the task draw, so a shed arrival draws no
        // task and the Poisson source keeps its legacy draw order.
        if let Some(at) = self.kernel.source.next_arrival() {
            sim.schedule(at, SchedEvent::Arrival);
        }
        if self.kernel.threads.len() >= self.cfg.max_outstanding {
            self.kernel.dropped += 1;
            self.kernel.source.drop_task();
            return;
        }
        let task = self.kernel.source.task();
        let Some(ing) = self.cfg.ingress else {
            return self.admit(sim, now, task);
        };
        // Route through the RPC stack: pick the least-busy stack core;
        // the scheduler learns about the request when protocol
        // processing completes.
        let cpu = self.cfg.cpu;
        let ratio = cpu.ratio(ing.stack_core, WorkloadClass::ComputeBound);
        let busy = &mut self.kernel.stack_busy;
        let idx = (0..busy.len())
            .min_by_key(|&i| busy[i])
            .expect("ingress has at least one stack core");
        let start = (now + ing.network_delay).max(busy[idx]);
        busy[idx] = start + ing.per_rpc.scale(ratio);
        sim.schedule(busy[idx], SchedEvent::Admit { arrival: now, task });
    }

    /// The one admission path, for local arrivals (after the ingress
    /// stack, if any) and fabric-injected ones: makes the thread and
    /// sends its wakeup; a wakeup that finds the agent's queue full turns
    /// the request away.
    pub(super) fn admit(&mut self, sim: &mut S, wire_arrival: SimTime, task: Task) {
        let now = sim.now();
        let k = &mut self.kernel;
        let seq = k.next_seq;
        k.next_seq += 1;
        let io = self
            .cfg
            .ingress
            .map_or(SimTime::ZERO, |i| i.worker_receive + i.worker_respond);
        let service = task.service + SimTime::from_ns(self.cfg.cost.app_overhead_ns) + io;
        let tid = k.threads.insert(service, wire_arrival, task.slo);
        // The load generator core sends the message (its CPU time is not
        // charged against worker throughput, matching the paper's setup
        // where the generator has its own resources).
        let si = self.agents.route_wakeup(seq, task.affinity);
        let msg = SchedMsg::new(tid, SchedMsgKind::Wakeup, None);
        if !self.send_to_agent(sim, si, now, msg, true).1 {
            let k = &mut self.kernel;
            k.threads.remove(tid);
            k.reject(now, wire_arrival, task.slo);
        }
    }

    /// MSI-X handler on an idle core: software coherence + consume +
    /// commit + switch.
    pub(super) fn wakeup_irq(&mut self, sim: &mut S, cpu: CpuId) {
        let now = sim.now();
        if !matches!(self.kernel.cores[cpu.0 as usize], CoreState::Idle { .. }) {
            return; // Core got work through another path meanwhile.
        }
        match self.read_slot(now, cpu, true) {
            (cost, Some(tid)) => {
                self.diag.wakeup_hit += 1;
                self.try_commit(sim, cpu, tid, now + cost)
            }
            (cost, None) => {
                // Spurious kick (e.g. the decision moved to another shard
                // with its core). Stay waiting.
                self.diag.wakeup_miss += 1;
                self.park(sim, cpu, now + cost);
            }
        }
    }

    /// Validate + enforce a decision on `cpu` (the atomic commit, Table 1
    /// `SET_TXNS_OUTCOMES`): `tid` commits only if it still resolves in
    /// the arena at the generation the agent saw and is runnable.
    fn try_commit(&mut self, sim: &mut S, cpu: CpuId, tid: Tid, at: SimTime) {
        let offloaded = self.cfg.placement == Placement::Offloaded;
        let cost = self.cfg.cost.commit_path(offloaded);
        let k = &mut self.kernel;
        if !matches!(k.threads.get(tid), Some(t) if t.run == ThreadRun::Runnable) {
            // Failed transaction: clean failure, core keeps waiting.
            self.diag.commit_fail += 1;
            return self.park(sim, cpu, at + cost);
        }
        k.run_token += 1;
        let token = k.run_token;
        k.cores[cpu.0 as usize] = CoreState::Busy { tid, token };
        k.threads[tid].run = ThreadRun::Running(cpu);
        let start = at + cost + self.cfg.cost.kernel_switch();
        self.begin_segment(
            sim,
            Segment {
                cpu,
                tid,
                token,
                start,
            },
        );
    }

    /// Starts a run segment, scheduling either its completion or the
    /// agent's preemption check at the end of its slice.
    fn begin_segment(&mut self, sim: &mut S, seg: Segment) {
        let remaining = self.kernel.threads[seg.tid].remaining;
        // shortcut: the kernel arms the agent's slice timer; stands in
        // for the agent learning of the commit from `POLL_TXNS_OUTCOMES`.
        match self.agents.shards[self.agents.shard_of(seg.cpu)].time_slice {
            Some(slice) if remaining > slice => {
                // The agent tracks the slice and will preempt via MSI-X.
                sim.schedule(seg.start + slice, SchedEvent::AgentPreempt(seg));
            }
            _ => sim.schedule(seg.start + remaining, SchedEvent::Complete(seg)),
        }
    }

    /// Host IRQ for a preemption: context-switch to the staged decision,
    /// re-queue the preempted thread.
    pub(super) fn preempt_irq(&mut self, sim: &mut S, seg: Segment) {
        let now = sim.now();
        if !self.kernel.runs(seg) {
            return;
        }
        let (cpu, tid) = (seg.cpu, seg.tid);
        // The kernel charges the preempted thread for its runtime.
        let ran = now.saturating_sub(seg.start);
        let rem = self.kernel.threads[tid].remaining.saturating_sub(ran);
        let (mut cost, got) = self.read_slot(now, cpu, true);
        match got {
            Some(next) if next != tid => {
                self.diag.preempt_switch += 1;
                if rem == SimTime::ZERO {
                    // The thread finished exactly at the slice boundary;
                    // treat as completion, then run the replacement.
                    self.kernel.finish_thread(&self.cfg, tid, now);
                } else {
                    let t = &mut self.kernel.threads[tid];
                    t.remaining = rem;
                    t.run = ThreadRun::Runnable;
                    // Tell the agent the thread is runnable again.
                    cost += self.cfg.cost.kernel_event();
                    let msg = SchedMsg::new(tid, SchedMsgKind::Preempted, Some(cpu));
                    let si = self.agents.shard_of(cpu);
                    cost += self.send_to_agent(sim, si, now + cost, msg, false).0;
                }
                self.try_commit(sim, cpu, next, now + cost);
            }
            Some(_) if rem == SimTime::ZERO => {
                // "Continue" decision for a thread that just finished.
                self.kernel.finish_thread(&self.cfg, tid, now);
                self.park(sim, cpu, now + cost);
            }
            _ => {
                // "Continue" decision (charge the check, extend the
                // slice), or the replacement vanished: keep running.
                self.kernel.threads[tid].remaining = rem;
                let start = now + cost;
                self.begin_segment(sim, Segment { start, ..seg });
            }
        }
    }

    /// A request finished: record stats and walk the idle transition
    /// (the paper's prestaged fast path).
    pub(super) fn complete(&mut self, sim: &mut S, seg: Segment) {
        let now = sim.now();
        if !self.kernel.runs(seg) {
            return;
        }
        let cpu = seg.cpu;
        self.kernel.finish_thread(&self.cfg, seg.tid, now);
        let si = self.agents.shard_of(cpu);
        let mut cost = SimTime::ZERO;
        // §5.4 ordering: prefetch first (Table 1 `PREFETCH_TXNS`), then
        // kernel bookkeeping + the dead message — that ~1 µs of useful
        // work hides the prefetch fill.
        if self.cfg.opts.prefetch {
            let slots = self.agents.shards[si].rt.slots();
            cost += slots.host_prefetch(now, &mut self.ic, SlotId(cpu.0));
        }
        cost += self.cfg.cost.kernel_event();
        let msg = SchedMsg::new(seg.tid, SchedMsgKind::Dead, Some(cpu));
        cost += self.send_to_agent(sim, si, now + cost, msg, true).0;
        match self.read_slot(now + cost, cpu, false) {
            (c, Some(tid)) => {
                self.diag.complete_hit += 1;
                self.try_commit(sim, cpu, tid, now + cost + c);
            }
            (c, None) => {
                self.diag.complete_miss += 1;
                self.park(sim, cpu, now + cost + c);
            }
        }
    }
}
