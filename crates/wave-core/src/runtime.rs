//! The reusable agent-runtime layer.
//!
//! Every Wave agent — the thread scheduler, the memory manager, the RPC
//! steerer — runs the same duty cycle (Fig. 2): *pump* the host→NIC
//! message queue, run a policy, *stage* decisions into per-resource
//! slots, and let the host *commit* each one only if its target still
//! has the generation the agent saw.
//! This module extracts that machinery from the scheduling simulation so
//! it can be instantiated once per agent and reused by other resource
//! managers:
//!
//! * [`SlotTable`] — generic per-resource decision slots in SmartNIC
//!   DRAM with the full software-coherence semantics (staleness,
//!   prefetch, `clflush`) of §5.3.2/§5.4.
//! * [`AgentRuntime`] — one agent: its message queue, staged decisions
//!   (a slot table over MMIO, an outbox over DMA), liveness flag and
//!   serial compute clock, plus the pump-gating state machine (`at most
//!   one pump event in flight`) that the simulation's event loop drives.
//!   The agent is its runtime: Table 1 starts it together with its
//!   queues and kills it as a whole, and a §6 restart re-pulls its state
//!   from the host. All of its work advances one `busy_until` clock;
//!   that serialization is what queues work on a loaded agent, the
//!   paper's reason for partitioning hosts across agents (§6). Callers
//!   charge costs already scaled to the agent's core.
//!
//! The runtime is deliberately *mechanism only*: host-side state (which
//! cores are idle, thread tables, commit validation) stays with the
//! caller, which is what lets N runtimes shard one host's cores.
//!
//! # Transports
//!
//! Both §4 agents run on this runtime, but they bind it to different
//! transports ([`RuntimeConfig::msg_transport`]):
//!
//! * the **thread scheduler** (§4.1) uses [`Transport::Mmio`]: µs-scale
//!   wakeup messages land in SmartNIC DRAM one posted write at a time,
//!   and decisions are consumed slot-by-slot over MMIO
//!   ([`SlotTable::host_consume`]);
//! * the **memory manager** (§4.2) uses [`Transport::Dma`]: PTE deltas
//!   are staged locally and shipped in one batched, delta-compressed
//!   DMA per iteration ([`RuntimeConfig::wire_bytes_per_msg`] models
//!   the compression). Its host never reads a slot line: the migration
//!   decisions wait in an outbox bounded by one iteration's stages and
//!   return to the host in bulk via [`AgentRuntime::dma_ship_staged`],
//!   so a DMA runtime maps no slot table.
//!
//! The duty cycle — pump, stage, commit — is the same either way, and
//! [`AgentRuntime::stage`] charges the agent the same slot write on
//! both; only the queue legs differ, which is what makes runtime
//! features (pump gating, watchdog restart, N-shard slicing) apply to
//! both agents.
//!
//! # Worked example
//!
//! The smallest possible agent: one [`AgentRuntime`] bound to the MMIO
//! transport whose policy echoes host request ids back as decisions, and
//! one full duty cycle — host *send*, agent *poll* and *stage*, host
//! *consume*. This is the whole extension surface: a new resource
//! manager picks a transport in [`RuntimeConfig`], runs its own policy
//! on what it polls, builds each decision and stages it with
//! [`AgentRuntime::stage`], driving exactly these calls from its event
//! loop (sharded deployments instantiate K of everything below, each
//! starting with one contiguous slice of the resources — see
//! [`shard_range`]).
//!
//! ```
//! use wave_core::runtime::{AgentRuntime, RuntimeConfig, SlotId};
//! use wave_pcie::{Interconnect, PteType, SocPteMode};
//! use wave_queue::Transport;
//! use wave_sim::SimTime;
//!
//! let mut ic = Interconnect::pcie();
//! let cfg = RuntimeConfig {
//!     queue_capacity: 64,
//!     msg_words: 4,
//!     decision_words: 6,
//!     slots: 4,
//!     msg_transport: Transport::Mmio, // µs-scale traffic (§4.1)
//!     wire_bytes_per_msg: None,
//!     msg_pte: PteType::WriteCombining,
//!     decision_pte: PteType::WriteThrough,
//!     soc_pte: SocPteMode::WriteBack,
//!     pickup: SimTime::from_ns(100),
//! };
//! let mut rt: AgentRuntime<u64, u64> = AgentRuntime::new(&mut ic, &cfg);
//!
//! // Host: submit request 7 and fence it visible.
//! let (send_cpu, delivered) = rt.host_send(SimTime::ZERO, &mut ic, 7);
//! assert!(delivered);
//! let flushed = send_cpu + rt.host_flush(send_cpu, &mut ic);
//!
//! // Agent: pick the message up after the wire delay, run the policy
//! // (an echo, 100 ns on the agent's clock), and stage its decision
//! // into the resource's slot.
//! let arrive = flushed + ic.one_way();
//! let mut polled = Vec::new();
//! rt.poll_into(arrive, &mut ic, usize::MAX, &mut polled);
//! assert_eq!(polled, vec![7]);
//! let mut agent_cpu = SimTime::from_ns(100);
//! agent_cpu += rt.stage(arrive + agent_cpu, &mut ic, SlotId(0), polled[0]);
//! assert!(rt.slots_ref().is_staged(SlotId(0)));
//!
//! // Host: consume the staged decision on the next idle transition.
//! let later = arrive + agent_cpu + ic.one_way();
//! let (_cpu, decision) = rt.slots().host_consume(later, &mut ic, SlotId(0));
//! assert_eq!(decision, Some(7));
//! ```

use wave_pcie::config::Side;
use wave_pcie::{DmaDirection, Interconnect, LineAddr, PteType, RegionId, SocPteMode};
use wave_queue::{Transport, WaveQueue};
use wave_sim::SimTime;

/// Index of a decision slot: the global id of the resource it decides
/// for (a worker core, a page batch).
///
/// Every MMIO runtime of a sharded deployment maps a [`SlotTable`] over
/// the whole resource space, and a DMA runtime accepts any id of that
/// space into its outbox, so which shard owns a resource is a
/// [`crate::shard_map::ShardMap`] fact, not a table layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId(pub u32);

/// The static contiguous resource slice owned by shard `i` of `shards`:
/// `[i·total/shards, (i+1)·total/shards)`, balanced to within one
/// resource. This is the initial partition both sharded agents use —
/// the scheduler over worker cores, the memory manager over page
/// batches — before any rebalance moves ownership. It sizes no slot
/// table: slots are indexed by global resource id ([`SlotId`]).
///
/// ```
/// use wave_core::runtime::shard_range;
///
/// assert_eq!(shard_range(10, 4, 0), 0..2);
/// assert_eq!(shard_range(10, 4, 1), 2..5);
/// assert_eq!(shard_range(10, 4, 3), 7..10);
/// // Every resource is owned by exactly one shard.
/// let owned: usize = (0..4).map(|i| shard_range(10, 4, i).len()).sum();
/// assert_eq!(owned, 10);
/// ```
///
/// # Panics
///
/// Panics if `shards` is zero or `i >= shards`.
pub fn shard_range(total: usize, shards: usize, i: usize) -> std::ops::Range<usize> {
    assert!(shards > 0, "need at least one shard");
    assert!(i < shards, "shard index {i} out of range ({shards} shards)");
    (i * total / shards)..((i + 1) * total / shards)
}

#[derive(Debug, Clone, Copy)]
struct Staged<D> {
    decision: D,
    /// When the slot contents reach SmartNIC DRAM.
    visible_at: SimTime,
}

/// Per-resource decision slots in SmartNIC DRAM (the paper's Fig. 2
/// per-core decision queues), generic over the decision payload.
///
/// * the **agent** stages a decision into the slot (cheap local store,
///   which makes any host-cached copy of the line stale);
/// * the **host**, on an idle transition, prefetches the line, does its
///   kernel bookkeeping (hiding the fill latency), then reads the slot —
///   a cache hit if the protocol worked;
/// * after consuming, the host flushes the line (`clflush`) so the next
///   prefetch refetches fresh data, and posts a consumed flag the agent
///   observes locally.
///
/// All the staleness hazards are real: if the agent stages *after* the
/// host's prefetch snapshot, the host misses the decision and falls back
/// to the idle/MSI-X path — the "prestages may fail" variability the
/// paper notes under Table 3.
#[derive(Debug)]
pub struct SlotTable<D: Copy> {
    region: RegionId,
    words: u64,
    nic_pte: SocPteMode,
    slots: Vec<Option<Staged<D>>>,
    /// Slots currently holding a decision.
    staged: usize,
    /// Count of host reads that found a fresh, visible decision.
    hits: u64,
    /// Count of host reads that found nothing (empty, invisible, or
    /// stale-hidden).
    misses: u64,
}

impl<D: Copy> SlotTable<D> {
    /// Maps one slot (one line) per resource with the given host PTE
    /// type.
    pub fn new(
        ic: &mut Interconnect,
        slots: u32,
        words: u64,
        host_pte: PteType,
        nic_pte: SocPteMode,
    ) -> Self {
        assert!(slots > 0, "need at least one slot");
        let region = ic.mmio.map_region(host_pte, slots as u64);
        SlotTable {
            region,
            words,
            nic_pte,
            slots: vec![None; slots as usize],
            staged: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn line(&self, slot: SlotId) -> LineAddr {
        LineAddr::new(self.region, slot.0 as u64)
    }

    /// Number of slots with a currently staged (agent-side view)
    /// decision.
    pub fn staged_count(&self) -> usize {
        self.staged
    }

    /// Total slots in the table.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the table has no slots (never true — construction
    /// requires at least one).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether the agent has a decision staged for `slot`.
    pub fn is_staged(&self, slot: SlotId) -> bool {
        self.slots[slot.0 as usize].is_some()
    }

    /// Host-read hit/miss counters (prestage effectiveness telemetry).
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Empties `slot`, keeping the staged count; returns what it held.
    fn clear(&mut self, slot: SlotId) -> Option<Staged<D>> {
        let staged = self.slots[slot.0 as usize].take();
        self.staged -= staged.is_some() as usize;
        staged
    }

    /// Agent stages (or replaces) a decision for `slot`. Returns the
    /// agent CPU cost. The host's cached view of the slot line becomes
    /// stale.
    pub fn stage(
        &mut self,
        now: SimTime,
        ic: &mut Interconnect,
        slot: SlotId,
        decision: D,
    ) -> SimTime {
        // The agent writes the payload words plus the valid flag and a
        // txn seal word: a full line for the default 6-word decision
        // (this is the 8-word write behind the paper's 1013/426 ns
        // open-decision anchors).
        let cost = ic.soc.access(self.nic_pte, self.words + 2);
        let visible_at = now + cost;
        ic.mmio.note_device_write(self.line(slot), visible_at);
        let previous = self.slots[slot.0 as usize].replace(Staged {
            decision,
            visible_at,
        });
        self.staged += previous.is_none() as usize;
        cost
    }

    /// Agent-side handoff: removes and returns `slot`'s staged decision
    /// without a host read — used when the slot's resource moves to a
    /// different shard (dynamic rebalancing) and the pending decision
    /// must be re-queued with the new owner instead of being consumed
    /// here. Taking a staged decision costs one local word write (the
    /// valid flag); an empty slot costs nothing — no word is written, so
    /// no line is dirtied. Counts as neither hit nor miss, since the
    /// host never observed the slot.
    pub fn take_staged(
        &mut self,
        now: SimTime,
        ic: &mut Interconnect,
        slot: SlotId,
    ) -> (SimTime, Option<D>) {
        let Some(staged) = self.clear(slot) else {
            return (SimTime::ZERO, None);
        };
        let cost = ic.soc.access(self.nic_pte, 1);
        ic.mmio.note_device_write(self.line(slot), now + cost);
        (cost, Some(staged.decision))
    }

    /// Host prefetches `slot`'s line (§5.4). Tiny CPU cost; the fill
    /// runs in the background.
    pub fn host_prefetch(&mut self, now: SimTime, ic: &mut Interconnect, slot: SlotId) -> SimTime {
        ic.mmio.prefetch(now, self.line(slot))
    }

    /// Host flushes its cached view of `slot` (`clflush`) — run from the
    /// MSI-X handler before reading a freshly-announced decision
    /// (§5.3.2).
    pub fn host_invalidate(
        &mut self,
        now: SimTime,
        ic: &mut Interconnect,
        slot: SlotId,
    ) -> SimTime {
        ic.mmio.clflush(now, self.line(slot))
    }

    /// Host reads and (if present) consumes `slot`'s staged decision.
    ///
    /// Reads `words` 64-bit words through the MMIO model, so the cost
    /// depends on PTE type, cache state, and prefetch timing. The
    /// decision is returned only if its contents were visible *in the
    /// snapshot the read observed* — a stale cached line hides fresh
    /// decisions, exactly as on hardware.
    ///
    /// On success the host also pays one posted write (consumed flag)
    /// and one `clflush` (so the next prefetch refetches), and the slot
    /// empties.
    pub fn host_consume(
        &mut self,
        now: SimTime,
        ic: &mut Interconnect,
        slot: SlotId,
    ) -> (SimTime, Option<D>) {
        let line = self.line(slot);
        // Read the flag word; further words hit the same line.
        let first = ic.mmio.read(now, line);
        let mut cpu_cost = first.cpu;
        let staged = self.slots[slot.0 as usize];
        let visible = match staged {
            Some(s) => s.visible_at <= first.snapshot_at,
            None => false,
        };
        if !visible {
            self.misses += 1;
            return (cpu_cost, None);
        }
        for _ in 1..self.words {
            cpu_cost += ic.mmio.read(now + cpu_cost, line).cpu;
        }
        self.hits += 1;
        let decision = staged.expect("checked visible").decision;
        self.clear(slot);
        // Consumed flag: posted write the agent observes locally.
        cpu_cost += ic.mmio.write(now + cpu_cost, line, 1).cpu;
        // Drop our cached copy so the next prefetch refetches.
        cpu_cost += ic.mmio.clflush(now + cpu_cost, line);
        (cpu_cost, Some(decision))
    }
}

/// The decisions a DMA-transport agent staged since its last ship, in
/// stage order. The host never reads a slot line of such an agent, so
/// there is no per-resource table: the outbox holds what one iteration
/// staged and [`AgentRuntime::dma_ship_staged`] empties it.
#[derive(Debug)]
struct Outbox<D> {
    words: u64,
    nic_pte: SocPteMode,
    /// Slot ids must stay below this, as in a [`SlotTable`].
    slots: u32,
    /// `(slot, stage sequence, decision)`; the sequence orders restages
    /// of one slot so the ship keeps the latest.
    staged: Vec<(SlotId, u32, D)>,
}

impl<D: Copy> Outbox<D> {
    /// Appends a decision at the same agent cost as a slot-table stage
    /// (payload words plus valid flag and txn seal).
    fn stage(&mut self, ic: &mut Interconnect, slot: SlotId, decision: D) -> SimTime {
        assert!(slot.0 < self.slots, "slot {} out of range", slot.0);
        let seq = u32::try_from(self.staged.len()).expect("under 2^32 stages per ship");
        self.staged.push((slot, seq, decision));
        ic.soc.access(self.nic_pte, self.words + 2)
    }

    /// Moves the latest decision per slot into `out`, in slot order.
    fn drain(&mut self, out: &mut Vec<(SlotId, D)>) {
        self.staged
            .sort_unstable_by_key(|&(slot, seq, _)| (slot, seq));
        self.staged.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                *kept = *later;
            }
            same
        });
        out.extend(self.staged.drain(..).map(|(slot, _, d)| (slot, d)));
    }
}

/// Where an agent's staged decisions wait for the host.
#[derive(Debug)]
enum Decisions<D: Copy> {
    /// MMIO transport: one slot line per resource, consumed one line at
    /// a time.
    Slots(SlotTable<D>),
    /// DMA transport: one batched ship per iteration.
    Outbox(Outbox<D>),
}

const NO_SLOTS: &str = "a DMA runtime ships decisions from its outbox and maps no slot table";

/// Construction parameters for one [`AgentRuntime`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// Message-queue capacity in entries.
    pub queue_capacity: u64,
    /// 64-bit words per message entry.
    pub msg_words: u64,
    /// 64-bit words per staged decision.
    pub decision_words: u64,
    /// Size of the slot id space: one per resource of the whole space
    /// (every worker core, every page batch), since slots are indexed by
    /// global resource id. An MMIO runtime maps one slot line each; a
    /// DMA runtime only bounds-checks staged ids against it.
    pub slots: u32,
    /// Transport for the host→agent message queue: [`Transport::Mmio`]
    /// for µs-scale traffic (the scheduler), [`Transport::Dma`] for
    /// batched bulk streams (the memory manager's PTE deltas).
    pub msg_transport: Transport,
    /// Wire bytes per message entry when the DMA stream is compressed
    /// in flight (§4.2's ~10:1 delta compression). `None` ships raw
    /// entries. Ignored for MMIO transports.
    pub wire_bytes_per_msg: Option<u64>,
    /// Host PTE type for the message queue.
    pub msg_pte: PteType,
    /// Host PTE type for the decision slots (MMIO runtimes only).
    pub decision_pte: PteType,
    /// SmartNIC-side mapping mode for both.
    pub soc_pte: SocPteMode,
    /// Spin-loop discovery latency: how long after a message becomes
    /// visible until the polling agent picks it up.
    pub pickup: SimTime,
}

/// Timing of shipping the staged decisions to the host in one batched
/// DMA ([`AgentRuntime::dma_ship_staged`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaShipment {
    /// Agent CPU cost (doorbell for async, blocking wait for sync).
    pub initiator_cpu: SimTime,
    /// When the batch is fully visible in host DRAM.
    pub complete_at: SimTime,
}

/// One agent: message queue + staged decisions (slot table or outbox,
/// by transport) + liveness + serial compute clock + pump gating.
///
/// `M` is the host→agent message type, `D` the staged decision payload.
/// The runtime owns no host state and no event loop; the embedding
/// simulation (or, eventually, a real device driver) schedules pump
/// events at the instants [`AgentRuntime::arm_pump`] returns.
#[derive(Debug)]
pub struct AgentRuntime<M, D: Copy> {
    msg_q: WaveQueue<M>,
    decisions: Decisions<D>,
    pump_armed: bool,
    pickup: SimTime,
    /// False between [`AgentRuntime::kill`] and [`AgentRuntime::restart`].
    running: bool,
    /// When the agent can next accept work.
    busy_until: SimTime,
    /// Decisions produced so far.
    decided: u64,
    /// Load events since the last [`AgentRuntime::take_load`] — the
    /// counter a [`crate::shard_map::Rebalancer`] samples per epoch.
    load_events: u64,
}

impl<M, D: Copy> AgentRuntime<M, D> {
    /// Builds the runtime: maps the message queue and, for an MMIO
    /// transport, the slot table (a DMA transport stages into an outbox
    /// instead), then starts the agent with an idle clock (Table 1
    /// `CREATE_QUEUE` + `START_WAVE_AGENT`).
    pub fn new(ic: &mut Interconnect, cfg: &RuntimeConfig) -> Self {
        let mut msg_q = WaveQueue::new(
            ic,
            cfg.msg_transport,
            cfg.queue_capacity,
            cfg.msg_words,
            cfg.msg_pte,
            cfg.soc_pte,
        );
        msg_q.set_wire_bytes_per_entry(cfg.wire_bytes_per_msg);
        let decisions = match cfg.msg_transport {
            Transport::Mmio => Decisions::Slots(SlotTable::new(
                ic,
                cfg.slots,
                cfg.decision_words,
                cfg.decision_pte,
                cfg.soc_pte,
            )),
            Transport::Dma => {
                assert!(cfg.slots > 0, "need at least one slot");
                Decisions::Outbox(Outbox {
                    words: cfg.decision_words,
                    nic_pte: cfg.soc_pte,
                    slots: cfg.slots,
                    staged: Vec::new(),
                })
            }
        };
        AgentRuntime {
            msg_q,
            decisions,
            pump_armed: false,
            pickup: cfg.pickup,
            running: true,
            busy_until: SimTime::ZERO,
            decided: 0,
            load_events: 0,
        }
    }

    // --- Host side: message submission ---------------------------------

    /// Host pushes one message, retrying once after a credit refresh.
    /// Returns `(cpu_cost, delivered)`; the queue is sized so the retry
    /// is rare and a second failure means overload.
    pub fn host_send(&mut self, now: SimTime, ic: &mut Interconnect, msg: M) -> (SimTime, bool) {
        let mut cost = SimTime::ZERO;
        match self.msg_q.push(now, ic, msg) {
            Ok(out) => {
                cost += out.cpu;
                (cost, true)
            }
            Err(rej) => {
                cost += self.msg_q.sync_credits(now + cost, ic);
                match self.msg_q.push(now + cost, ic, rej.payload) {
                    Ok(out) => {
                        cost += out.cpu;
                        (cost, true)
                    }
                    Err(_) => (cost, false),
                }
            }
        }
    }

    /// Host pushes one message with no retry. Returns the CPU cost on
    /// success; on `None` the message is lost, and the caller must cope
    /// with that (the scheduler's preemption requeue does not: its
    /// thread is stranded).
    pub fn host_try_send(
        &mut self,
        now: SimTime,
        ic: &mut Interconnect,
        msg: M,
    ) -> Option<SimTime> {
        self.msg_q.push(now, ic, msg).ok().map(|out| out.cpu)
    }

    /// Host flushes the message queue so pushed entries become visible
    /// to the agent: an `sfence` for MMIO transports, the batched
    /// (possibly delta-compressed) transfer for DMA transports. The
    /// entries' arrival instant is then [`AgentRuntime::next_visible_at`].
    pub fn host_flush(&mut self, now: SimTime, ic: &mut Interconnect) -> SimTime {
        self.msg_q.flush(now, ic)
    }

    // --- Agent side: the duty cycle ------------------------------------

    /// Arms the pump gate: returns the time the pump event should fire
    /// (message pickup after `at`, serialized behind in-flight agent
    /// work), or `None` if a pump is already scheduled.
    ///
    /// The caller schedules the event, and the event handler calls
    /// [`AgentRuntime::pump_fired`] before pumping, re-opening the gate.
    pub fn arm_pump(&mut self, at: SimTime) -> Option<SimTime> {
        if self.pump_armed {
            return None;
        }
        self.pump_armed = true;
        Some(at.max(self.busy_until) + self.pickup)
    }

    /// Marks the armed pump event as fired, allowing the next arm.
    pub fn pump_fired(&mut self) {
        self.pump_armed = false;
    }

    /// Agent drains visible messages (`POLL_MESSAGES`) into a
    /// caller-owned buffer, which the pump loop reuses: appends at most
    /// `max` messages to `out` and returns the agent CPU time.
    pub fn poll_into(
        &mut self,
        now: SimTime,
        ic: &mut Interconnect,
        max: usize,
        out: &mut Vec<M>,
    ) -> SimTime {
        self.msg_q.poll_nic_into(now, ic, max, out)
    }

    /// When pushed-but-not-yet-visible messages can next be seen.
    pub fn next_visible_at(&self) -> Option<SimTime> {
        self.msg_q.next_visible_at()
    }

    /// Stages a caller-built decision into `slot` (Table 1
    /// `TXN_CREATE`): the caller runs its policy, builds the decision
    /// and charges the policy's compute on its own clock. Returns the
    /// agent CPU cost of the slot write, the same on either transport:
    /// an MMIO runtime writes the slot line ([`SlotTable::stage`]), a
    /// DMA runtime appends to its outbox for the next
    /// [`AgentRuntime::dma_ship_staged`].
    pub fn stage(&mut self, now: SimTime, ic: &mut Interconnect, slot: SlotId, d: D) -> SimTime {
        match &mut self.decisions {
            Decisions::Slots(t) => t.stage(now, ic, slot, d),
            Decisions::Outbox(o) => o.stage(ic, slot, d),
        }
    }

    /// Decisions staged and not yet taken by the host: slots holding a
    /// decision on an MMIO runtime, outbox entries on a DMA runtime
    /// (where a slot restaged before the ship counts once per stage).
    pub fn staged_count(&self) -> usize {
        match &self.decisions {
            Decisions::Slots(t) => t.staged_count(),
            Decisions::Outbox(o) => o.staged.len(),
        }
    }

    /// Ships every staged decision to the host in one batched DMA — the
    /// memory manager's migration-decision leg (§4.2), and the DMA
    /// counterpart of the per-slot [`SlotTable::host_consume`] path.
    /// The latest decision staged per slot is appended to `out`, in
    /// slot order.
    ///
    /// `wire_bytes` is the compressed on-wire size of the batch; the
    /// decision stream ships a header even when nothing is staged, so
    /// the transfer is floored at a 64-byte minimum payload (matching
    /// the ingest leg's compressed-batch floor). The outbox empties
    /// immediately on the agent side; the host owns the decisions once
    /// the transfer completes at [`DmaShipment::complete_at`].
    ///
    /// # Panics
    ///
    /// Panics on an MMIO runtime, whose host consumes slot by slot.
    pub fn dma_ship_staged(
        &mut self,
        now: SimTime,
        ic: &mut Interconnect,
        wire_bytes: u64,
        out: &mut Vec<(SlotId, D)>,
    ) -> DmaShipment {
        let Decisions::Outbox(o) = &mut self.decisions else {
            panic!("an MMIO runtime's host consumes its decisions slot by slot");
        };
        o.drain(out);
        let t = ic
            .dma
            .transfer(now, wire_bytes.max(64), DmaDirection::NicToHost, Side::Nic);
        DmaShipment {
            initiator_cpu: t.initiator_cpu,
            complete_at: t.complete_at,
        }
    }

    // --- Accessors ------------------------------------------------------

    /// The slot table (host consume/prefetch/invalidate paths).
    ///
    /// # Panics
    ///
    /// Panics on a DMA runtime, which maps no slot table.
    pub fn slots(&mut self) -> &mut SlotTable<D> {
        match &mut self.decisions {
            Decisions::Slots(t) => t,
            Decisions::Outbox(_) => panic!("{NO_SLOTS}"),
        }
    }

    /// Read-only slot-table view.
    ///
    /// # Panics
    ///
    /// Panics on a DMA runtime, which maps no slot table.
    pub fn slots_ref(&self) -> &SlotTable<D> {
        match &self.decisions {
            Decisions::Slots(t) => t,
            Decisions::Outbox(_) => panic!("{NO_SLOTS}"),
        }
    }

    // --- Lifecycle and the serial compute clock ------------------------

    /// Kills the agent (Table 1 `KILL_WAVE_AGENT`, also the watchdog's
    /// path). Its queues and staged decisions stay mapped.
    pub fn kill(&mut self) {
        self.running = false;
    }

    /// Restarts a killed agent at `now`. Per §6 ("keep fault recovery
    /// simple") it re-pulls all non-policy state from the host, so it
    /// starts from a clean compute clock; the decision count carries on.
    pub fn restart(&mut self, now: SimTime) {
        self.running = true;
        self.busy_until = now;
    }

    /// Whether the agent is alive and polling.
    pub fn is_running(&self) -> bool {
        self.running
    }

    /// When the agent can next accept work.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Runs `cost` of work, already scaled to the agent's core, starting
    /// no earlier than `now` and serialized behind prior work. Returns
    /// the completion time.
    ///
    /// # Panics
    ///
    /// Panics if the agent is not running.
    pub fn run_raw(&mut self, now: SimTime, cost: SimTime) -> SimTime {
        assert!(self.running, "agent is not running");
        self.busy_until = now.max(self.busy_until) + cost;
        self.busy_until
    }

    /// Counts one produced decision (telemetry) and one load event
    /// toward the rebalance epoch.
    pub fn record_decision(&mut self) {
        self.decided += 1;
        self.load_events += 1;
    }

    /// Decisions produced so far.
    pub fn decisions(&self) -> u64 {
        self.decided
    }

    // --- Load accounting (rebalancing) ----------------------------------

    /// Adds `n` load events that are not decisions (e.g. the memory
    /// agent's due-batch scans) toward the rebalance epoch.
    pub fn note_load(&mut self, n: u64) {
        self.load_events += n;
    }

    /// Drains and returns the load-event counter — called once per
    /// rebalance epoch by the shard owner, which feeds the value to
    /// [`crate::shard_map::Rebalancer::record`].
    pub fn take_load(&mut self) -> u64 {
        std::mem::take(&mut self.load_events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runtime(ic: &mut Interconnect) -> AgentRuntime<u64, u64> {
        let cfg = RuntimeConfig {
            queue_capacity: 64,
            msg_words: 4,
            decision_words: 6,
            slots: 4,
            msg_transport: Transport::Mmio,
            wire_bytes_per_msg: None,
            msg_pte: PteType::WriteCombining,
            decision_pte: PteType::WriteThrough,
            soc_pte: SocPteMode::WriteBack,
            pickup: SimTime::from_ns(100),
        };
        AgentRuntime::new(ic, &cfg)
    }

    #[test]
    fn pump_gate_admits_one_event() {
        let mut ic = Interconnect::pcie();
        let mut rt = runtime(&mut ic);
        let t = rt.arm_pump(SimTime::from_us(1)).expect("first arm fires");
        assert_eq!(t, SimTime::from_us(1) + SimTime::from_ns(100));
        assert!(rt.arm_pump(SimTime::from_us(2)).is_none(), "gate closed");
        rt.pump_fired();
        assert!(rt.arm_pump(SimTime::from_us(3)).is_some(), "gate reopens");
    }

    #[test]
    fn pump_serializes_behind_agent_work() {
        let mut ic = Interconnect::pcie();
        let mut rt = runtime(&mut ic);
        rt.run_raw(SimTime::ZERO, SimTime::from_us(5));
        let t = rt.arm_pump(SimTime::from_us(1)).unwrap();
        assert_eq!(t, SimTime::from_us(5) + SimTime::from_ns(100));
    }

    #[test]
    fn send_poll_round_trip() {
        let mut ic = Interconnect::pcie();
        let mut rt = runtime(&mut ic);
        let (cost, ok) = rt.host_send(SimTime::ZERO, &mut ic, 41u64);
        assert!(ok);
        let flushed = cost + rt.host_flush(cost, &mut ic);
        let visible = flushed + ic.one_way();
        let mut polled = Vec::new();
        rt.poll_into(visible, &mut ic, 16, &mut polled);
        assert_eq!(polled, vec![41]);
    }

    /// `KILL_WAVE_AGENT` and the §6 restart: a restarted agent starts
    /// on a clean clock at the restart time with its decision count
    /// intact, and a killed one refuses work.
    #[test]
    #[should_panic(expected = "agent is not running")]
    fn killed_agent_refuses_work_until_restart() {
        let mut ic = Interconnect::pcie();
        let mut rt = runtime(&mut ic);
        rt.run_raw(SimTime::ZERO, SimTime::from_ms(9));
        rt.record_decision();
        rt.kill();
        assert!(!rt.is_running());
        let now = SimTime::from_ms(5);
        rt.restart(now);
        assert!(rt.is_running());
        assert_eq!(rt.busy_until(), now, "restart resets the clock");
        rt.record_decision();
        assert_eq!(rt.decisions(), 2);
        let done = rt.run_raw(now, SimTime::from_ns(100));
        assert_eq!(done, now + SimTime::from_ns(100));
        rt.kill();
        rt.run_raw(done, SimTime::from_ns(1));
    }

    #[test]
    fn host_consume_returns_staged_decision() {
        let mut ic = Interconnect::pcie();
        let mut rt = runtime(&mut ic);
        rt.stage(SimTime::ZERO, &mut ic, SlotId(1), 99u64);
        let slots = rt.slots();
        slots.host_invalidate(SimTime::from_us(1), &mut ic, SlotId(1));
        let (_c, got) = slots.host_consume(SimTime::from_us(2), &mut ic, SlotId(1));
        assert_eq!(got, Some(99));
        let (_c, empty) = slots.host_consume(SimTime::from_us(3), &mut ic, SlotId(1));
        assert!(empty.is_none());
    }

    fn dma_runtime(ic: &mut Interconnect) -> AgentRuntime<u64, u64> {
        let cfg = RuntimeConfig {
            queue_capacity: 1 << 12,
            msg_words: 8,
            decision_words: 6,
            slots: 8,
            msg_transport: Transport::Dma,
            wire_bytes_per_msg: Some(8),
            msg_pte: PteType::WriteCombining,
            decision_pte: PteType::WriteThrough,
            soc_pte: SocPteMode::WriteBack,
            pickup: SimTime::from_ns(100),
        };
        AgentRuntime::new(ic, &cfg)
    }

    #[test]
    fn dma_transport_batches_ingest() {
        let mut ic = Interconnect::pcie();
        let mut rt = dma_runtime(&mut ic);
        for v in 0..500u64 {
            let (_cost, ok) = rt.host_send(SimTime::ZERO, &mut ic, v);
            assert!(ok);
        }
        // Staged locally: nothing visible, no DMA issued yet.
        assert_eq!(ic.dma.transfers(), 0);
        rt.host_flush(SimTime::ZERO, &mut ic);
        assert_eq!(ic.dma.transfers(), 1);
        // 500 compressed 8-byte entries on the wire.
        assert_eq!(ic.dma.bytes_moved(), 500 * 8);
        let arrive = rt.next_visible_at().expect("batch in flight");
        let mut polled = Vec::new();
        rt.poll_into(arrive - SimTime::from_ns(1), &mut ic, 1000, &mut polled);
        assert!(polled.is_empty());
        rt.poll_into(arrive, &mut ic, 1000, &mut polled);
        assert_eq!(polled.len(), 500);
        assert_eq!(polled[499], 499);
    }

    #[test]
    fn dma_ship_staged_drains_slots_in_bulk() {
        let mut ic = Interconnect::pcie();
        let mut rt = dma_runtime(&mut ic);
        // Out of slot order, and slot 5 restaged: the last decision wins.
        for (slot, d) in [(5, 50u64), (1, 11), (7, 70), (5, 55)] {
            let cost = rt.stage(SimTime::ZERO, &mut ic, SlotId(slot), d);
            // The payload words plus valid flag and seal, as a slot write.
            assert_eq!(cost, SimTime::from_ns(11 * (6 + 2)));
        }
        assert_eq!(rt.staged_count(), 4, "one outbox entry per stage");
        let before = ic.dma.transfers();
        let mut shipped = Vec::new();
        let ship = rt.dma_ship_staged(SimTime::from_us(1), &mut ic, 64, &mut shipped);
        assert_eq!(ic.dma.transfers(), before + 1);
        assert_eq!(
            shipped,
            vec![(SlotId(1), 11), (SlotId(5), 55), (SlotId(7), 70)]
        );
        assert!(ship.complete_at > SimTime::from_us(1));
        assert_eq!(rt.staged_count(), 0, "outbox emptied");
        // An empty shipment still moves its header, and a drain appends
        // to what the buffer already holds.
        rt.dma_ship_staged(SimTime::from_us(2), &mut ic, 64, &mut shipped);
        assert_eq!(shipped.len(), 3);
        assert_eq!(ic.dma.transfers(), before + 2);
    }

    #[test]
    fn dma_runtime_maps_no_slot_region() {
        let mut ic = Interconnect::pcie();
        let mut rt = dma_runtime(&mut ic);
        rt.stage(SimTime::ZERO, &mut ic, SlotId(3), 1);
        // The message queue is region 0 and nothing follows it.
        let next = ic.mmio.map_region(PteType::WriteThrough, 1);
        assert_eq!(next, RegionId(1), "a DMA runtime mapped a slot region");
    }

    fn shipped(rt: &mut AgentRuntime<u64, u64>, ic: &mut Interconnect) -> Vec<(SlotId, u64)> {
        let mut out = Vec::new();
        rt.dma_ship_staged(SimTime::ZERO, ic, 64, &mut out);
        out
    }

    #[test]
    fn out_of_order_stages_drain_in_slot_order() {
        let mut ic = Interconnect::pcie();
        let mut rt = dma_runtime(&mut ic);
        for s in [7u32, 3, 5, 0, 6] {
            rt.stage(SimTime::ZERO, &mut ic, SlotId(s), s as u64 * 10);
        }
        let got = shipped(&mut rt, &mut ic);
        let slots: Vec<u32> = got.iter().map(|(s, _)| s.0).collect();
        assert_eq!(slots, vec![0, 3, 5, 6, 7]);
        assert_eq!(got.first(), Some(&(SlotId(0), 0)));
        assert!(shipped(&mut rt, &mut ic).is_empty());
    }

    #[test]
    fn restaged_slot_drains_once_with_its_latest_decision() {
        let mut ic = Interconnect::pcie();
        let mut rt = dma_runtime(&mut ic);
        for d in 1..=3 {
            rt.stage(SimTime::ZERO, &mut ic, SlotId(7), d);
        }
        assert_eq!(shipped(&mut rt, &mut ic), vec![(SlotId(7), 3)]);
        assert_eq!(rt.staged_count(), 0);
    }

    /// Slot-table staging against a full sweep of its slots, and outbox
    /// ships against a last-write-wins map, under random traffic.
    #[test]
    fn staged_count_and_drain_match_a_sweep() {
        let mut ic = Interconnect::pcie();
        let mut t: SlotTable<u64> =
            SlotTable::new(&mut ic, 8, 2, PteType::WriteThrough, SocPteMode::WriteBack);
        let mut rt = dma_runtime(&mut ic);
        let mut reference = std::collections::BTreeMap::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut now = SimTime::ZERO;
        for step in 0..5_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            now += SimTime::from_ns(x % 2_000);
            let slot = SlotId((x >> 8) as u32 % 8);
            match (x >> 20) % 64 {
                0..=31 => {
                    t.stage(now, &mut ic, slot, step);
                    rt.stage(now, &mut ic, slot, step);
                    reference.insert(slot, step);
                }
                32..=51 => {
                    t.take_staged(now, &mut ic, slot);
                }
                52..=62 => {
                    t.host_consume(now, &mut ic, slot);
                }
                _ => {
                    let expected: Vec<_> = std::mem::take(&mut reference).into_iter().collect();
                    assert_eq!(shipped(&mut rt, &mut ic), expected, "step {step}");
                }
            }
            let swept = t.slots.iter().filter(|s| s.is_some()).count();
            assert_eq!(t.staged_count(), swept, "step {step}");
        }
    }

    #[test]
    fn try_send_reports_overload() {
        let mut ic = Interconnect::pcie();
        let mut rt = runtime(&mut ic);
        let mut delivered = 0u64;
        for i in 0..200u64 {
            if rt.host_try_send(SimTime::from_ns(i), &mut ic, i).is_some() {
                delivered += 1;
            }
        }
        // Capacity is 64 and nothing polls: pushes must start failing.
        assert!(delivered < 200, "delivered {delivered}");
    }

    fn slot_table(ic: &mut Interconnect, pte: PteType) -> SlotTable<u64> {
        SlotTable::new(ic, 4, 6, pte, SocPteMode::WriteBack)
    }

    #[test]
    fn stage_then_consume_uncached() {
        let mut ic = Interconnect::pcie();
        let mut s = slot_table(&mut ic, PteType::Uncacheable);
        s.stage(SimTime::ZERO, &mut ic, SlotId(0), 7);
        let (cost, got) = s.host_consume(SimTime::from_us(2), &mut ic, SlotId(0));
        assert_eq!(got.unwrap(), 7);
        // 6 uncached word reads + consumed-flag write.
        assert!(cost >= SimTime::from_ns(6 * 750 + 50), "cost {cost}");
        assert!(!s.is_staged(SlotId(0)));
    }

    #[test]
    fn prefetch_then_consume_is_cheap_and_fresh() {
        let mut ic = Interconnect::pcie();
        let mut s = slot_table(&mut ic, PteType::WriteThrough);
        s.stage(SimTime::ZERO, &mut ic, SlotId(1), 9);
        // Host prefetches at 2 us; fill completes by 2.75 us.
        s.host_prefetch(SimTime::from_us(2), &mut ic, SlotId(1));
        let (cost, got) = s.host_consume(SimTime::from_us(4), &mut ic, SlotId(1));
        assert_eq!(got.unwrap(), 9);
        assert!(cost < SimTime::from_ns(120), "prefetched consume {cost}");
    }

    #[test]
    fn stale_cache_hides_decision_until_invalidate() {
        let mut ic = Interconnect::pcie();
        let mut s = slot_table(&mut ic, PteType::WriteThrough);
        // Host caches the empty slot.
        let (_c, none) = s.host_consume(SimTime::ZERO, &mut ic, SlotId(2));
        assert!(none.is_none());
        // Agent stages afterwards.
        s.stage(SimTime::from_us(1), &mut ic, SlotId(2), 5);
        // Host re-reads: stale snapshot hides it.
        let (_c, hidden) = s.host_consume(SimTime::from_us(2), &mut ic, SlotId(2));
        assert!(hidden.is_none(), "stale line must hide the decision");
        // MSI-X handler protocol: clflush, then read.
        s.host_invalidate(SimTime::from_us(3), &mut ic, SlotId(2));
        let (_c, got) = s.host_consume(SimTime::from_us(4), &mut ic, SlotId(2));
        assert_eq!(got.unwrap(), 5);
        let (hits, misses) = s.hit_miss();
        assert_eq!((hits, misses), (1, 2));
    }

    #[test]
    fn race_prefetch_before_stage_misses() {
        let mut ic = Interconnect::pcie();
        let mut s = slot_table(&mut ic, PteType::WriteThrough);
        // Prefetch snapshot taken before the stage: decision invisible.
        s.host_prefetch(SimTime::ZERO, &mut ic, SlotId(0));
        s.stage(SimTime::from_ns(500), &mut ic, SlotId(0), 3);
        let (_c, got) = s.host_consume(SimTime::from_us(1), &mut ic, SlotId(0));
        assert!(got.is_none(), "prestage raced the prefetch; host must miss");
        assert!(
            s.is_staged(SlotId(0)),
            "decision stays staged for the MSI-X path"
        );
    }

    #[test]
    fn consume_after_consume_is_empty() {
        let mut ic = Interconnect::pcie();
        let mut s = slot_table(&mut ic, PteType::WriteThrough);
        s.stage(SimTime::ZERO, &mut ic, SlotId(0), 1);
        s.host_invalidate(SimTime::from_us(1), &mut ic, SlotId(0));
        let (_c, got) = s.host_consume(SimTime::from_us(2), &mut ic, SlotId(0));
        assert!(got.is_some());
        let (_c, again) = s.host_consume(SimTime::from_us(3), &mut ic, SlotId(0));
        assert!(again.is_none());
    }
}
