//! The NIC side of the seam: the agent shards that make every decision
//! (pump, pick, steal, kick, core rebalancing), and the agent's end of
//! the Table 1 crossings (`Cycle::stage`, `Cycle::kick`).

use wave_core::runtime::{AgentRuntime, RuntimeConfig, SlotId};
use wave_core::shard_map::{FeedDemand, Rebalancer, ResourceMove};
use wave_pcie::config::Side;
use wave_pcie::{MsixSendPath, MsixVector};
use wave_sim::cpu::WorkloadClass;

use super::kernel::{CoreState, Kernel, Segment};
use super::*;
use crate::arena::ThreadRun;
use crate::msg::{CpuId, SchedMsg, Tid};
use crate::policy::steal_victim;

/// One agent shard: its runtime bundle, its policy instance, and the
/// policy's constants, read once when the sim is built.
pub(super) struct Shard {
    pub(super) rt: AgentRuntime<SchedMsg, Tid>,
    policy: Box<dyn SchedPolicy>,
    /// Agent cost of one pick: the policy's compute cost scaled to the
    /// agent core, plus [`SchedConfig::agent_decision_extra`].
    pick_cost: SimTime,
    /// Agent cost of one message (enqueue/remove): half the scaled compute.
    msg_cost: SimTime,
    /// [`SchedPolicy::time_slice`].
    pub(super) time_slice: Option<SimTime>,
    /// [`SchedPolicy::wants_prestaging`].
    prestage: bool,
}

/// The NIC side's state: the shards and which cores and wakeups each
/// one serves.
pub(super) struct Agents {
    pub(super) shards: Vec<Shard>,
    /// Generation-stamped core-ownership map (static contiguous until a
    /// rebalance commits).
    pub(super) map: ShardMap,
    /// Ascending core list per shard, rebuilt every rebalance epoch
    /// (keeps the pump hot path allocation-free).
    owned_cores: Vec<Vec<u32>>,
    pub(super) rebalancer: Option<Rebalancer>,
    /// Cumulative wakeup-weight bounds ([`SchedConfig::wakeup_weights`],
    /// else the shards' initial core counts), so an arrival pays one mod
    /// plus a bucket probe.
    wakeup_route: Vec<u64>,
    /// Reused buffers: drained messages, the steal scan's class depths.
    msgs: Vec<SchedMsg>,
    class_scratch: Vec<(SloClass, usize)>,
}

impl Agents {
    pub(super) fn new(
        cfg: &SchedConfig,
        ic: &mut Interconnect,
        policies: Vec<Box<dyn SchedPolicy>>,
    ) -> Self {
        let agent_core = match cfg.placement {
            Placement::OnHost => CoreClass::HostX86,
            Placement::Offloaded => CoreClass::NicArm,
        };
        let ratio = cfg.cpu.ratio(agent_core, WorkloadClass::ComputeBound) / cfg.nic_share;
        // Core ownership starts as the static contiguous partition; only a
        // rebalance commit ever changes it.
        let map = ShardMap::contiguous(cfg.workers as usize, cfg.agents);
        let shards = policies.into_iter().map(|policy| {
            // Every shard's slot table spans all worker cores, indexed by
            // core id, so a core can change owners without re-mapping
            // SmartNIC DRAM.
            let rcfg = RuntimeConfig {
                queue_capacity: 4096,
                msg_words: cfg.cost.msg_words,
                decision_words: cfg.cost.decision_words,
                slots: cfg.workers,
                // The scheduler is the µs-scale agent: MMIO queues (§4.1).
                msg_transport: wave_queue::Transport::Mmio,
                wire_bytes_per_msg: None,
                msg_pte: cfg.opts.message_queue_pte(),
                decision_pte: cfg.opts.decision_queue_pte(),
                soc_pte: cfg.opts.soc_pte(),
                pickup: SimTime::from_ns(cfg.cost.agent_pickup_ns),
            };
            let compute = policy.compute_cost();
            Shard {
                rt: AgentRuntime::new(ic, &rcfg),
                pick_cost: compute.scale(ratio) + cfg.agent_decision_extra,
                msg_cost: compute.scale(ratio * 0.5),
                time_slice: policy.time_slice(),
                prestage: policy.wants_prestaging(),
                policy,
            }
        });
        let shards = shards.collect();
        let owned_cores: Vec<Vec<u32>> = (0..cfg.agents)
            .map(|i| map.resources_of(i).map(|r| r as u32).collect())
            .collect();
        let rebalancer = cfg.rebalance.map(|rc| {
            // Decision rates are demand the cores *serve*: feed the
            // busiest shard, never draining a sibling below one core.
            let policy = FeedDemand {
                max_moves: (cfg.workers as usize / 4).max(1),
                min_resources: 1,
            };
            Rebalancer::new(rc, Box::new(policy), cfg.agents)
        });
        // Wakeups follow the shards' initial core counts unless the config
        // skews them. Dividing by the gcd makes equal shards route
        // exactly `seq % agents`.
        let weights: Vec<u64> = match &cfg.wakeup_weights {
            Some(w) => {
                let valid = w.len() == cfg.agents as usize && w.iter().any(|&x| x > 0);
                assert!(valid, "need one wakeup weight per agent, not all zero");
                w.iter().map(|&x| x as u64).collect()
            }
            None => owned_cores.iter().map(|c| c.len() as u64).collect(),
        };
        let g = weights.iter().fold(0, |g, &w| gcd(g, w));
        let wakeup_route = weights
            .iter()
            .scan(0, |acc, &w| {
                *acc += w / g;
                Some(*acc)
            })
            .collect();
        Agents {
            shards,
            owned_cores,
            map,
            rebalancer,
            wakeup_route,
            msgs: Vec::new(),
            class_scratch: Vec::new(),
        }
    }

    /// Shard owning a worker core (dynamic: follows rebalance commits).
    pub(super) fn shard_of(&self, cpu: CpuId) -> usize {
        self.map.owner(cpu.0 as usize) as usize
    }

    /// Which shard the `seq`-th admitted thread's wakeup goes to: the one
    /// its task's affinity hint names, else weighted round-robin over
    /// [`SchedConfig::wakeup_weights`] or the shards' initial core counts.
    pub(super) fn route_wakeup(&self, seq: u64, affinity: Option<u32>) -> usize {
        let cum = &self.wakeup_route;
        match affinity {
            Some(a) => a as usize % self.shards.len(),
            None => cum.partition_point(|&c| c <= seq % cum[cum.len() - 1]),
        }
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Arms shard `si`'s pump (Table 1 `POLL_MESSAGES`) for messages visible
/// at `at`; at most one pump event is in flight per shard.
pub(super) fn arm_pump(sim: &mut S, shards: &mut [Shard], si: usize, at: SimTime) {
    if let Some(t) = shards[si].rt.arm_pump(at) {
        sim.schedule(t, SchedEvent::Pump(si));
    }
}

/// One duty cycle of shard `si`'s agent and the state it reaches: the
/// policy sees `now`; each step starts after the `cost` charged so far.
struct Cycle<'a> {
    si: usize,
    now: SimTime,
    cost: SimTime,
    cfg: &'a SchedConfig,
    ic: &'a mut Interconnect,
    shards: &'a mut [Shard],
    /// Kernel state the agent reaches without a message; every use is
    /// marked `// shortcut:` with the message it stands in for.
    kernel: &'a mut Kernel,
}

impl SchedSim {
    /// One agent duty cycle for shard `si`: drain visible messages,
    /// update the policy, serve waiting cores (stage + MSI-X), then
    /// prestage.
    pub(super) fn agent_pump(&mut self, sim: &mut S, si: usize) {
        let agents = &mut self.agents;
        let rt = &mut agents.shards[si].rt;
        rt.pump_fired();
        if !rt.is_running() {
            return;
        }
        self.diag.pumps += 1;
        let now = sim.now().max(rt.busy_until());
        agents.msgs.clear();
        let cost = rt.poll_into(now, &mut self.ic, 64, &mut agents.msgs);
        let mut cyc = Cycle {
            si,
            now,
            cost,
            cfg: &self.cfg,
            ic: &mut self.ic,
            shards: &mut agents.shards,
            kernel: &mut self.kernel,
        };
        for &msg in &agents.msgs {
            let shard = &mut cyc.shards[si];
            // Message handling touches a few run-queue words (paying the
            // SoC mapping cost) and does a cheap enqueue/remove; the full
            // policy pick cost is paid at staging time.
            cyc.cost += cyc.ic.soc.access(cyc.cfg.opts.soc_pte(), 8) + shard.msg_cost;
            // shortcut: the policy queues through the kernel's thread rows;
            // stands in for a thread table kept from `SEND_MESSAGES`.
            let threads = &mut cyc.kernel.threads;
            if msg.makes_runnable() {
                // A runnable message always names a live thread; the
                // arena would reject a stale id anyway, as the host's
                // commit rejects a staged one.
                if let Some(meta) = threads.meta(msg.tid) {
                    shard.policy.on_runnable(threads, now, msg.tid, meta);
                }
            } else if msg.removes_thread() {
                shard.policy.on_removed(threads, now, msg.tid);
                // The core parked when it sent this message; seeing it
                // (re-)arms the agent's wakeup obligation unless the core
                // found work again in the meantime.
                let core = msg.cpu.map(|cpu| &mut cyc.kernel.cores[cpu.0 as usize]);
                if let Some(CoreState::Idle { waiting }) = core {
                    *waiting = true;
                }
            }
        }

        // Serve idle, waiting cores first: re-kick a decision the host
        // missed, or stage a fresh pick — from this shard's queue, then
        // (optionally) stolen from a sibling — and kick it.
        // shortcut: the agent scans the kernel's core states; stands in
        // for a per-core view kept from `SEND_MESSAGES` and its own kicks.
        let idle = CoreState::Idle { waiting: true };
        for &c in &agents.owned_cores[si] {
            let cpu = CpuId(c);
            if cyc.kernel.cores[c as usize] != idle {
                continue;
            }
            let have = cyc.shards[si].rt.slots_ref().is_staged(SlotId(c))
                || cyc.stage_pick(si, None, cpu)
                || (cyc.cfg.steal
                    && cyc.steal_pick(&mut agents.class_scratch, cpu, &mut self.diag));
            if have {
                let irq_at = cyc.kick(cpu);
                cyc.kernel.cores[c as usize] = CoreState::Idle { waiting: false };
                sim.schedule(irq_at, SchedEvent::WakeupIrq(cpu));
            }
        }

        // §5.4 eager prestaging: stage one decision into each busy core's
        // empty slot while the run queue has backlog. Prestages count as
        // load, or a rebalancer would read a busy shard as idle.
        if cyc.cfg.opts.prestage && cyc.shards[si].prestage {
            for &c in &agents.owned_cores[si] {
                if !matches!(cyc.kernel.cores[c as usize], CoreState::Busy { .. }) {
                    continue;
                }
                if cyc.shards[si].policy.queue_depth() == 0 {
                    break;
                }
                if !cyc.shards[si].rt.slots_ref().is_staged(SlotId(c))
                    && cyc.stage_pick(si, None, CpuId(c))
                {
                    cyc.shards[si].rt.record_decision();
                }
            }
        }

        let rt = &mut cyc.shards[si].rt;
        rt.run_raw(now, cyc.cost);
        // If entries remain (a bigger batch, or pushed-but-not-yet-
        // visible messages), pump again when they can be seen.
        if let Some(next) = rt.next_visible_at() {
            let at = next.max(rt.busy_until());
            arm_pump(sim, cyc.shards, si, at);
        }
    }

    /// Agent-side slice expiry (§7.2.3, the path prefetching cannot help):
    /// Shinjuku stages a decision at *every* slice boundary — the
    /// replacement if the run queue has one, else "continue" for the same
    /// thread — and kicks the core, so the host pays the MSI-X, a fresh
    /// slot read and a commit either way (why Fig. 4b degrades more under
    /// offload than FIFO does).
    pub(super) fn agent_preempt(&mut self, sim: &mut S, seg: Segment) {
        // shortcut: a stale timer is told by the kernel's core state;
        // stands in for the commit the agent polls (`POLL_TXNS_OUTCOMES`).
        if !self.kernel.runs(seg) {
            return;
        }
        let si = self.agents.shard_of(seg.cpu);
        let rt = &self.agents.shards[si].rt;
        if !rt.is_running() {
            return;
        }
        let mut cyc = Cycle {
            si,
            now: sim.now().max(rt.busy_until()),
            cost: SimTime::ZERO,
            cfg: &self.cfg,
            ic: &mut self.ic,
            shards: &mut self.agents.shards,
            kernel: &mut self.kernel,
        };
        // Pick the replacement (if any) and stage it.
        if cyc.stage_pick(si, None, seg.cpu) {
            self.diag.preempt_staged += 1;
        } else {
            // Queue empty: stage a self-requeue ("continue") decision.
            self.diag.preempt_extend += 1;
            cyc.stage(seg.cpu, seg.tid);
        }
        let irq_at = cyc.kick(seg.cpu);
        cyc.shards[si].rt.run_raw(cyc.now, cyc.cost);
        sim.schedule(irq_at, SchedEvent::PreemptIrq(seg));
    }

    /// Host-side rebalance epoch: drain each shard's decision-rate
    /// counter into the [`Rebalancer`], let it plan against the map,
    /// and apply whatever core moves it committed. Reschedules itself
    /// on the configured epoch.
    pub(super) fn rebalance_epoch(&mut self, sim: &mut S) {
        let now = sim.now();
        let agents = &mut self.agents;
        let Some(rb) = agents.rebalancer.as_mut() else {
            return;
        };
        for (i, sh) in agents.shards.iter_mut().enumerate() {
            rb.record(i as u32, sh.rt.take_load());
        }
        let moves = &rb.run_epoch(now, &mut agents.map, &[]).moves;
        for (i, cache) in agents.owned_cores.iter_mut().enumerate() {
            cache.clear();
            cache.extend(agents.map.resources_of(i as u32).map(|r| r as u32));
        }
        for &m in moves {
            let (kernel, ic) = (&mut self.kernel, &mut self.ic);
            apply_core_move(&mut agents.shards, kernel, ic, &mut self.diag, sim, now, m);
        }
        let epoch = rb.config().epoch;
        sim.schedule(now + epoch, SchedEvent::RebalanceEpoch);
    }
}

impl Cycle<'_> {
    fn at(&self) -> SimTime {
        self.now + self.cost
    }

    /// Agent→host decision (Table 1 `TXN_CREATE`): writes "run `tid`"
    /// into this shard's slot for `cpu`, where the host reads it. The
    /// `Tid` carries the generation the agent saw, which is what the
    /// host's commit validates.
    fn stage(&mut self, cpu: CpuId, tid: Tid) {
        let at = self.at();
        self.cost += self.shards[self.si]
            .rt
            .stage(at, self.ic, SlotId(cpu.0), tid);
    }

    /// Picks a thread from shard `victim`'s policy (restricted to
    /// `class` for a class-aware steal) and stages it in this shard's
    /// slot for `cpu` — `victim == si` for a local pick. The pick cost is
    /// charged whether or not a decision comes out, as real agents pay
    /// it. Returns whether a decision was staged.
    fn stage_pick(&mut self, victim: usize, class: Option<SloClass>, cpu: CpuId) -> bool {
        let shard = &mut self.shards[victim];
        self.cost += shard.pick_cost;
        let threads = &mut self.kernel.threads;
        let tid = match class {
            Some(c) => shard.policy.pick_class(threads, self.now, c),
            None => shard.policy.pick_next(threads, self.now),
        };
        let Some(tid) = tid else {
            return false;
        };
        self.stage(cpu, tid);
        true
    }

    /// Steal hook: when this shard's run queue is empty, pull a pick for
    /// its idle `cpu` from a sibling, chosen **per SLO class**
    /// ([`steal_victim`]: tightest class with backlog first, depth only
    /// within a class). The thief pays the pick cost (the victim's run
    /// queue lives in shared SmartNIC memory).
    fn steal_pick(
        &mut self,
        scratch: &mut Vec<(SloClass, usize)>,
        cpu: CpuId,
        diag: &mut Diag,
    ) -> bool {
        if self.shards.len() < 2 || self.shards[self.si].policy.queue_depth() != 0 {
            return false;
        }
        let policies = self.shards.iter().map(|sh| sh.policy.as_ref());
        let Some((vi, class)) = steal_victim(policies, self.si, scratch) else {
            return false;
        };
        let staged = self.stage_pick(vi, Some(class), cpu);
        diag.steals += staged as u64;
        staged
    }

    /// Agent→host kick for the decision staged for `cpu` (the MSI-X of
    /// Table 1 `TXNS_COMMIT`), or in degraded polling mode
    /// ([`SchedConfig::poll_pickup`]) a suppressed one picked up on the
    /// next poll-grid boundary. Counts the decision; returns when the
    /// host's handler runs.
    fn kick(&mut self, cpu: CpuId) -> SimTime {
        let at = self.at();
        let (sender_cpu, handler_at) = if let Some(grid) = self.cfg.poll_pickup {
            self.ic.msix.suppress();
            // Next strict grid boundary ≥ at (never "now": the poller
            // visits, it is not interrupt-driven).
            let g = grid.as_ns().max(1);
            (
                SimTime::ZERO,
                SimTime::from_ns(at.as_ns().div_ceil(g).max(1) * g),
            )
        } else {
            let side = match self.cfg.placement {
                Placement::Offloaded => Side::Nic,
                Placement::OnHost => Side::Host,
            };
            let d = self
                .ic
                .msix
                .send(at, MsixVector(cpu.0), MsixSendPath::Ioctl, side);
            (d.sender_cpu, d.handler_at)
        };
        self.cost += sender_cpu;
        self.shards[self.si].rt.record_decision();
        handler_at
    }
}

/// Applies one committed core move (the map has already flipped): a
/// decision staged in the donor's slot and not yet consumed is taken out
/// (one agent-local write) and its thread re-enqueued with the
/// recipient, so no pick is lost; a parked core is now the recipient's
/// to serve, so its pump is kicked. Host-side state was never per-shard.
fn apply_core_move(
    shards: &mut [Shard],
    kernel: &mut Kernel,
    ic: &mut Interconnect,
    diag: &mut Diag,
    sim: &mut S,
    now: SimTime,
    m: ResourceMove,
) {
    diag.rebalance_moves += 1;
    let (from, to) = (m.from as usize, m.to as usize);
    let slot = SlotId(m.resource as u32);
    let (cost, staged) = shards[from].rt.slots().take_staged(now, ic, slot);
    shards[from].rt.run_raw(now, cost);
    // shortcut: reads thread and core state from the kernel; stands in
    // for the agent's own view of both, kept from `SEND_MESSAGES`.
    if let Some(tid) = staged {
        // The donor had picked a thread for this core. If it is still
        // runnable it re-enters the recipient's run queue, and the
        // recipient stages it afresh.
        let runnable = (kernel.threads.get(tid)).is_some_and(|t| t.run == ThreadRun::Runnable);
        if let Some(meta) = kernel.threads.meta(tid).filter(|_| runnable) {
            diag.rebalance_handoffs += 1;
            let policy = &mut shards[to].policy;
            policy.on_runnable(&mut kernel.threads, now, tid, meta);
        }
    }
    if kernel.cores[m.resource] == (CoreState::Idle { waiting: true }) {
        arm_pump(sim, shards, to, now);
    }
}
