//! Conservative parallel discrete-event execution across many hosts.
//!
//! The single-host engine ([`crate::engine::Sim`]) drains one event heap
//! on one logical clock. Simulating a *datacenter* of Wave hosts needs N
//! such clocks, and the only way to advance them on multiple OS threads
//! without a global lock is the classic conservative (Chandy–Misra-style)
//! recipe: as long as every cross-host message takes at least `L` of
//! virtual time to arrive, a host executing events in the window
//! `[w, w + L)` can never receive a message it should already have seen —
//! anything sent during the window lands at `sent + latency ≥ w + L`,
//! i.e. in a later window. `L` is the *lookahead*.
//!
//! [`FleetExecutor`] splits the hosts into *lanes*, contiguous host
//! ranges that each stay on one thread for a whole
//! [`FleetExecutor::run_until`] call, and advances them window by window:
//!
//! 1. **Deliver** (serial): pending cross-host messages whose delivery
//!    time falls inside the next window are popped in ascending
//!    `(time, src_host, seq)` order into their destination's lane.
//! 2. **Advance** (parallel): each lane moves its messages into its
//!    hosts' inboxes and, in host-index order, advances only the hosts
//!    with a delivery in this window or a local event at or before its
//!    horizon ([`FleetHost::next_event`]), draining their events up to
//!    the horizon via [`FleetHost::advance`]; sends are buffered per
//!    lane, never applied directly.
//! 3. **Barrier** (serial): the lanes' sends are collected in host-index
//!    order, stamped with per-source sequence numbers, routed through
//!    the [`Transit`] model (which may add queueing delay on top of the
//!    minimum latency), and pushed onto the pending heap.
//!
//! Skipping a host is exact: it has nothing to run, so it cannot send,
//! and its later deliveries land at or after its clock. Because the
//! per-host advance is deterministic given its inbox, the skip decision
//! reads only the host's own state, and both the delivery order and the
//! barrier collection order are fixed by `(time, src, seq)` rather than
//! by thread completion order, the fleet result is **bit-identical for
//! any worker count** — `workers = 1` is the sequential reference the
//! tests pin the parallel runs against.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Condvar, Mutex, PoisonError};

use crate::time::SimTime;

/// A cross-host message in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Delivery timestamp at the destination (assigned by [`Transit`]).
    pub at: SimTime,
    /// Sending host index.
    pub src: u32,
    /// Per-source emission sequence number: the executor stamps each
    /// host's sends in emission order, so `(at, src, seq)` totally
    /// orders every message in the fleet independent of worker count.
    pub seq: u64,
    /// Destination host index.
    pub dst: u32,
    /// Payload.
    pub msg: M,
}

/// A buffered send: when it left the source host, where it is going,
/// and what it carries. The [`Transit`] model turns this into a
/// delivery time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outbound<M> {
    /// Local virtual time the message left the sender.
    pub sent: SimTime,
    /// Destination host index.
    pub dst: u32,
    /// Payload.
    pub msg: M,
}

/// One logical host: a self-contained event loop that can be advanced
/// to a horizon and exchanges messages with the rest of the fleet only
/// through its inbox/outbox.
pub trait FleetHost: Send {
    /// Cross-host message payload.
    type Msg: std::marker::Send;

    /// Advances local virtual time to `horizon`.
    ///
    /// `inbox` holds this window's deliveries in ascending
    /// `(at, src, seq)` order; the host must process each at its `at`
    /// timestamp (e.g. by scheduling it into its local [`crate::Sim`])
    /// and drain the buffer. Cross-host sends are pushed onto `outbox`
    /// in emission order with `sent` equal to the local send time;
    /// `sent` must lie within the window being advanced.
    ///
    /// Returns the number of events executed this window (engine
    /// throughput accounting).
    fn advance(
        &mut self,
        horizon: SimTime,
        inbox: &mut Vec<Envelope<Self::Msg>>,
        outbox: &mut Vec<Outbound<Self::Msg>>,
    ) -> u64;

    /// The time of this host's earliest pending local event, or `None`
    /// if it has none until a delivery arrives. The executor reads it
    /// after each [`advance`](Self::advance) and does not advance the
    /// host in a window that brings it no delivery and whose horizon
    /// lies before this time, so it must not be later than any event the
    /// host would run. The default, `Some(SimTime::ZERO)`, advances the
    /// host every window.
    fn next_event(&self) -> Option<SimTime> {
        Some(SimTime::ZERO)
    }
}

/// Maps a buffered send to its delivery time at the destination.
///
/// Runs single-threaded at the window barrier in deterministic
/// `(sent, src, seq)` order, so implementations may keep mutable
/// queueing state (per-link `busy_until` and the like). The contract a
/// conservative run relies on: the returned time is at least
/// `sent + lookahead` (the executor asserts it).
pub trait Transit<M> {
    /// Delivery time of `send` leaving host `src`.
    fn deliver_at(&mut self, src: u32, send: &Outbound<M>) -> SimTime;
}

/// Zero-queueing transit: a constant latency on every path.
#[derive(Debug, Clone, Copy)]
pub struct UniformTransit {
    /// One-way latency between any two hosts.
    pub latency: SimTime,
}

impl<M> Transit<M> for UniformTransit {
    fn deliver_at(&mut self, _src: u32, send: &Outbound<M>) -> SimTime {
        send.sent + self.latency
    }
}

/// Pending-heap entry ordered by `(at, src, seq)` (a min-heap via
/// `Reverse`-free manual ordering: we invert the comparison).
struct Pend<M>(Envelope<M>);

impl<M> PartialEq for Pend<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.0.at, self.0.src, self.0.seq) == (other.0.at, other.0.src, other.0.seq)
    }
}
impl<M> Eq for Pend<M> {}
impl<M> PartialOrd for Pend<M> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Pend<M> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Inverted: BinaryHeap is a max-heap, we want earliest first.
        (other.0.at, other.0.src, other.0.seq).cmp(&(self.0.at, self.0.src, self.0.seq))
    }
}

/// Aggregate statistics of one [`FleetExecutor::run_until`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetExecStats {
    /// Windows executed (barrier count).
    pub windows: u64,
    /// Events executed across all hosts (sum of [`FleetHost::advance`]
    /// returns).
    pub events: u64,
    /// Cross-host messages delivered.
    pub messages: u64,
    /// [`FleetHost::advance`] calls: hosts that had work in a window.
    pub advances: u64,
}

/// The conservative windowed executor: N hosts, one logical clock each,
/// advanced in lookahead-wide windows by up to `workers` threads.
pub struct FleetExecutor<H: FleetHost> {
    hosts: Vec<H>,
    lookahead: SimTime,
    workers: usize,
    now: SimTime,
    pending: BinaryHeap<Pend<H::Msg>>,
    /// Per-source emission counters for deterministic `seq` stamping.
    emit_seq: Vec<u64>,
    /// Each host's [`FleetHost::next_event`] after its last advance.
    next_event: Vec<Option<SimTime>>,
    stats: FleetExecStats,
}

impl<H: FleetHost> FleetExecutor<H> {
    /// Builds an executor over `hosts` with the given lookahead (the
    /// minimum cross-host latency) and worker count.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is empty, `lookahead` is zero, or `workers`
    /// is zero.
    pub fn new(hosts: Vec<H>, lookahead: SimTime, workers: usize) -> Self {
        assert!(!hosts.is_empty(), "fleet needs at least one host");
        assert!(
            lookahead > SimTime::ZERO,
            "conservative execution needs nonzero lookahead"
        );
        assert!(workers >= 1, "need at least one worker");
        FleetExecutor {
            emit_seq: vec![0; hosts.len()],
            // Every host runs in the first window.
            next_event: vec![Some(SimTime::ZERO); hosts.len()],
            hosts,
            lookahead,
            workers,
            now: SimTime::ZERO,
            pending: BinaryHeap::new(),
            stats: FleetExecStats::default(),
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> FleetExecStats {
        self.stats
    }

    /// Seeds a message before the run starts (initial stimuli for toy
    /// fleets; the src counter is stamped like a barrier collection).
    ///
    /// # Panics
    ///
    /// Panics if `src`/`dst` are out of range or `at` is in the past.
    pub fn seed_message(&mut self, at: SimTime, src: u32, dst: u32, msg: H::Msg) {
        assert!((src as usize) < self.hosts.len() && (dst as usize) < self.hosts.len());
        assert!(at >= self.now, "cannot seed a message in the past");
        let seq = self.emit_seq[src as usize];
        self.emit_seq[src as usize] += 1;
        self.pending.push(Pend(Envelope {
            at,
            src,
            seq,
            dst,
            msg,
        }));
    }

    /// Runs windows until fleet time reaches `end`, routing cross-host
    /// sends through `transit`. May be called repeatedly to extend a
    /// run; statistics accumulate. The calling thread runs lane 0 and the
    /// serial steps; each other lane has a thread of its own.
    pub fn run_until<T: Transit<H::Msg>>(
        &mut self,
        end: SimTime,
        transit: &mut T,
    ) -> FleetExecStats {
        let per_lane = self.hosts.len().div_ceil(self.workers);
        let lanes: &Vec<_> = &self
            .hosts
            .chunks_mut(per_lane)
            .zip(self.next_event.chunks_mut(per_lane))
            .enumerate()
            .map(|(i, (hosts, next))| Mutex::new(Lane::new(i * per_lane, hosts, next)))
            .collect();
        let gate = &Gate {
            parties: lanes.len(),
            spin: SPIN,
            ..Gate::default()
        };
        std::thread::scope(|s| {
            for lane in &lanes[1..] {
                s.spawn(move || {
                    let _leave = Leave(gate);
                    while gate.wait() {
                        lane.lock().expect(POISONED).advance();
                        gate.wait();
                    }
                });
            }
            let _leave = Leave(gate);
            let (mut due, mut sends) = (Vec::new(), Vec::new());
            while self.now < end {
                let horizon = (self.now + self.lookahead).min(end);
                while self.pending.peek().is_some_and(|p| p.0.at < horizon) {
                    due.push(self.pending.pop().expect("peeked").0);
                }
                self.stats.messages += due.len() as u64;
                for lane in lanes {
                    let mut lane = lane.lock().expect(POISONED);
                    let range = lane.first..lane.first + lane.hosts.len();
                    let mine = due.extract_if(.., |e| range.contains(&(e.dst as usize)));
                    lane.inbound.extend(mine);
                    lane.horizon = horizon;
                }
                assert!(due.is_empty(), "a message to a node outside the fleet");
                if !gate.wait() {
                    break;
                }
                lanes[0].lock().expect(POISONED).advance();
                if !gate.wait() {
                    break;
                }
                for lane in lanes {
                    let mut lane = lane.lock().expect(POISONED);
                    self.stats.events += std::mem::take(&mut lane.events);
                    self.stats.advances += std::mem::take(&mut lane.advances);
                    for (src, send) in lane.outbound.drain(..) {
                        let seq = self.emit_seq[src as usize];
                        self.emit_seq[src as usize] += 1;
                        sends.push((src, seq, send));
                    }
                }
                // Physical queueing order: the fabric sees messages in
                // send-time order, ties broken by (src, seq) —
                // deterministic and identical for every worker count.
                sends.sort_by_key(|(src, seq, s)| (s.sent, *src, *seq));
                for (src, seq, send) in sends.drain(..) {
                    let at = transit.deliver_at(src, &send);
                    assert!(
                        at >= send.sent + self.lookahead,
                        "transit violated the lookahead contract: sent {} delivered {} lookahead {}",
                        send.sent,
                        at,
                        self.lookahead
                    );
                    // Events at exactly the horizon run inside the
                    // window, so a send stamped `horizon` is legal.
                    debug_assert!(
                        send.sent <= horizon,
                        "host emitted a send from beyond its window"
                    );
                    self.pending.push(Pend(Envelope {
                        at,
                        src,
                        seq,
                        dst: send.dst,
                        msg: send.msg,
                    }));
                }
                self.now = horizon;
                self.stats.windows += 1;
            }
        });
        self.stats
    }

    /// Consumes the executor, returning the hosts in index order.
    pub fn into_hosts(self) -> Vec<H> {
        self.hosts
    }
}

const POISONED: &str = "a lane is locked only while no lane has panicked";

/// A contiguous range of hosts that one thread advances for a whole
/// `run_until` call, and the buffers it trades with the serial steps;
/// the gate orders every access, so the lock is never contended.
struct Lane<'a, H: FleetHost> {
    first: usize,
    hosts: &'a mut [H],
    next_event: &'a mut [Option<SimTime>],
    inboxes: Vec<Vec<Envelope<H::Msg>>>,
    horizon: SimTime,
    /// The window's deliveries to this lane, in `(at, src, seq)` order.
    inbound: Vec<Envelope<H::Msg>>,
    /// The window's sends with their source, in host-index order.
    outbound: Vec<(u32, Outbound<H::Msg>)>,
    /// One host's sends, moved to `outbound` after its advance.
    outbox: Vec<Outbound<H::Msg>>,
    events: u64,
    advances: u64,
}

impl<'a, H: FleetHost> Lane<'a, H> {
    fn new(first: usize, hosts: &'a mut [H], next_event: &'a mut [Option<SimTime>]) -> Self {
        Lane {
            first,
            inboxes: (0..hosts.len()).map(|_| Vec::new()).collect(),
            hosts,
            next_event,
            horizon: SimTime::ZERO,
            inbound: Vec::new(),
            outbound: Vec::new(),
            outbox: Vec::new(),
            events: 0,
            advances: 0,
        }
    }

    /// One window: inbound messages into their hosts' inboxes, then
    /// every host with work advanced to the horizon in index order.
    fn advance(&mut self) {
        for e in self.inbound.drain(..) {
            self.inboxes[e.dst as usize - self.first].push(e);
        }
        let hosts = self
            .hosts
            .iter_mut()
            .zip(&mut self.inboxes)
            .zip(&mut *self.next_event);
        for (src, ((host, inbox), next)) in (self.first as u32..).zip(hosts) {
            // Nothing delivered and nothing local due: it would run no
            // event, so it could not send either.
            if inbox.is_empty() && next.is_none_or(|t| t > self.horizon) {
                continue;
            }
            self.advances += 1;
            self.events += host.advance(self.horizon, inbox, &mut self.outbox);
            *next = host.next_event();
            self.outbound
                .extend(self.outbox.drain(..).map(|send| (src, send)));
        }
    }
}

/// Polls a [`Gate`] waiter makes before it parks: ~100 µs on an idle
/// 2-vCPU Xeon. Each poll yields, so a waiter sharing a core with a busy
/// lane hands the core over. There, 64 to 1,024 polls ran the 64-host
/// fleet alike on 2–8 lanes; busy-waiting made 4–8 lanes 4–70× slower.
const SPIN: u32 = 256;

/// The [`Gate::count`] bit that stops the run.
const STOPPED: u64 = 1 << 63;

/// A reusable barrier. `count` numbers the arrivals, so the round of
/// arrival `t` opens when `count` reaches the next multiple of
/// `parties`. A waiter spins for [`SPIN`] polls, then parks; the last
/// arrival takes the lock and notifies only if a waiter has parked, so
/// lanes that finish close together never touch the lock.
#[derive(Default)]
struct Gate {
    parties: usize,
    spin: u32,
    count: AtomicU64,
    parked: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
}

impl Gate {
    /// Blocks until every party has arrived; `false` if the gate was
    /// stopped first (a stopped gate counts no further arrivals). A gate
    /// of one party never blocks.
    fn wait(&self) -> bool {
        if self.parties == 1 {
            return true;
        }
        let arrive = |c: u64| (c & STOPPED == 0).then_some(c + 1);
        let Ok(ticket) = self.count.fetch_update(SeqCst, SeqCst, arrive) else {
            return false;
        };
        let open = (ticket / self.parties as u64 + 1) * self.parties as u64;
        if ticket + 1 == open {
            self.wake_parked();
        }
        let opened = || self.count.load(SeqCst) >= open;
        (0..self.spin)
            .take_while(|_| !opened())
            .for_each(|_| std::thread::yield_now());
        if !opened() {
            // A waiter registers before its last look under the lock, and
            // an opener bumps `count` before it looks for registered
            // waiters: one of the two always sees the other.
            let lock = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            self.parked.fetch_add(1, SeqCst);
            drop(self.wake.wait_while(lock, |_| !opened()));
            self.parked.fetch_sub(1, SeqCst);
        }
        (self.count.load(SeqCst) & !STOPPED) >= open
    }

    fn wake_parked(&self) {
        if self.parked.load(SeqCst) > 0 {
            drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
            self.wake.notify_all();
        }
    }
}

/// Stops the gate when its thread leaves the window loop, normally or
/// by panicking, so that no lane waits for it forever.
struct Leave<'a>(&'a Gate);

impl Drop for Leave<'_> {
    fn drop(&mut self) {
        self.0.count.fetch_or(STOPPED, SeqCst);
        self.0.wake_parked();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Sim;

    /// splitmix64 finalizer — the toy hosts' deterministic mixer.
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct ToyMsg {
        value: u64,
        ttl: u32,
    }

    /// Toy host model: every delivery folds `(src, value, time)` into an
    /// accumulator and, while TTL remains, emits a follow-up message to
    /// a state-derived destination after a state-derived extra delay.
    struct ToyModel {
        n: u32,
        acc: u64,
        log: Vec<u64>,
        out: Vec<Outbound<ToyMsg>>,
    }

    impl ToyModel {
        fn deliver(&mut self, now: SimTime, src: u32, m: ToyMsg) {
            self.acc = mix(self.acc ^ mix(src as u64) ^ m.value ^ now.as_ns());
            self.log.push(self.acc);
            if m.ttl > 0 {
                let dst = (self.acc >> 8) as u32 % self.n;
                self.out.push(Outbound {
                    sent: now,
                    dst,
                    msg: ToyMsg {
                        value: mix(self.acc),
                        ttl: m.ttl - 1,
                    },
                });
            }
        }
    }

    /// A toy host running on the real event engine: deliveries are
    /// scheduled into a local `Sim` as `(src, msg)` events and drained
    /// window by window.
    struct ToyHost {
        sim: Sim<(u32, ToyMsg)>,
        model: ToyModel,
    }

    impl ToyHost {
        fn new(idx: u32, n: u32) -> Self {
            ToyHost {
                sim: Sim::new(),
                model: ToyModel {
                    n,
                    acc: mix(idx as u64),
                    log: Vec::new(),
                    out: Vec::new(),
                },
            }
        }
    }

    impl FleetHost for ToyHost {
        type Msg = ToyMsg;

        fn advance(
            &mut self,
            horizon: SimTime,
            inbox: &mut Vec<Envelope<ToyMsg>>,
            outbox: &mut Vec<Outbound<ToyMsg>>,
        ) -> u64 {
            for e in inbox.drain(..) {
                self.sim.schedule(e.at, (e.src, e.msg));
            }
            self.sim.set_horizon(horizon);
            let model = &mut self.model;
            let executed = self
                .sim
                .run(|s, (src, msg)| model.deliver(s.now(), src, msg));
            outbox.append(&mut self.model.out);
            executed
        }

        fn next_event(&self) -> Option<SimTime> {
            self.sim.next_at()
        }
    }

    /// The naive reference: one global heap over all hosts' deliveries,
    /// popped in `(time, src, seq)` order — the merged-clock semantics
    /// the windowed executor must reproduce exactly.
    fn reference_run(
        n: u32,
        seeds: &[(SimTime, u32, u32, ToyMsg)],
        transit: &mut impl Transit<ToyMsg>,
        end: SimTime,
    ) -> Vec<Vec<u64>> {
        let mut models: Vec<ToyModel> = (0..n)
            .map(|i| ToyModel {
                n,
                acc: mix(i as u64),
                log: Vec::new(),
                out: Vec::new(),
            })
            .collect();
        let mut heap: BinaryHeap<Pend<ToyMsg>> = BinaryHeap::new();
        let mut emit_seq = vec![0u64; n as usize];
        for &(at, src, dst, msg) in seeds {
            let seq = emit_seq[src as usize];
            emit_seq[src as usize] += 1;
            heap.push(Pend(Envelope {
                at,
                src,
                seq,
                dst,
                msg,
            }));
        }
        while let Some(p) = heap.pop() {
            let e = p.0;
            if e.at >= end {
                break;
            }
            let model = &mut models[e.dst as usize];
            model.deliver(e.at, e.src, e.msg);
            let src = e.dst;
            for send in model.out.drain(..) {
                let seq = emit_seq[src as usize];
                emit_seq[src as usize] += 1;
                let at = transit.deliver_at(src, &send);
                heap.push(Pend(Envelope {
                    at,
                    src,
                    seq,
                    dst: send.dst,
                    msg: send.msg,
                }));
            }
        }
        models.into_iter().map(|m| m.log).collect()
    }

    /// Jittered transit: base latency plus a payload-derived extra delay
    /// — exercises same-time collisions and out-of-order queueing.
    struct JitterTransit {
        base: SimTime,
        spread_ns: u64,
    }

    impl Transit<ToyMsg> for JitterTransit {
        fn deliver_at(&mut self, _src: u32, send: &Outbound<ToyMsg>) -> SimTime {
            send.sent + self.base + SimTime::from_ns(mix(send.msg.value) % (self.spread_ns + 1))
        }
    }

    fn windowed_run(
        n: u32,
        workers: usize,
        seeds: &[(SimTime, u32, u32, ToyMsg)],
        transit: &mut impl Transit<ToyMsg>,
        lookahead: SimTime,
        end: SimTime,
    ) -> Vec<Vec<u64>> {
        let hosts = (0..n).map(|i| ToyHost::new(i, n)).collect();
        let mut ex = FleetExecutor::new(hosts, lookahead, workers);
        for &(at, src, dst, msg) in seeds {
            ex.seed_message(at, src, dst, msg);
        }
        ex.run_until(end, transit);
        ex.into_hosts().into_iter().map(|h| h.model.log).collect()
    }

    fn seeds_for(case: u64, n: u32) -> Vec<(SimTime, u32, u32, ToyMsg)> {
        let mut s = Vec::new();
        let k = 2 + (mix(case) % 6);
        for i in 0..k {
            let r = mix(case ^ mix(i));
            s.push((
                SimTime::from_ns(r % 5_000),
                (r >> 16) as u32 % n,
                (r >> 24) as u32 % n,
                ToyMsg {
                    value: mix(r),
                    ttl: 3 + (r % 5) as u32,
                },
            ));
        }
        s
    }

    #[test]
    fn matches_merged_clock_reference_uniform() {
        let (n, l, end) = (5u32, SimTime::from_us(2), SimTime::from_ms(1));
        for case in 0..40u64 {
            let seeds = seeds_for(case, n);
            let reference = reference_run(n, &seeds, &mut UniformTransit { latency: l }, end);
            let windowed = windowed_run(n, 1, &seeds, &mut UniformTransit { latency: l }, l, end);
            assert_eq!(reference, windowed, "case {case}");
        }
    }

    #[test]
    fn matches_merged_clock_reference_with_queueing_jitter() {
        let (n, l, end) = (4u32, SimTime::from_us(3), SimTime::from_ms(1));
        for case in 0..40u64 {
            let seeds = seeds_for(case ^ 0xabcd, n);
            let mut t1 = JitterTransit {
                base: l,
                spread_ns: 2_500,
            };
            let mut t2 = JitterTransit {
                base: l,
                spread_ns: 2_500,
            };
            let reference = reference_run(n, &seeds, &mut t1, end);
            let windowed = windowed_run(n, 1, &seeds, &mut t2, l, end);
            assert_eq!(reference, windowed, "case {case}");
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        // n = 8 splits evenly; n = 5 splits unevenly at 2 and 3 lanes and
        // gives every host a lane of its own at 5 and 8 workers.
        for (n, workers) in [(8u32, &[2usize, 4, 8][..]), (5, &[2, 3, 5, 8])] {
            let (l, end) = (SimTime::from_us(2), SimTime::from_ms(2));
            let seeds = seeds_for(7, n);
            let base = windowed_run(n, 1, &seeds, &mut UniformTransit { latency: l }, l, end);
            for &workers in workers {
                let par = windowed_run(
                    n,
                    workers,
                    &seeds,
                    &mut UniformTransit { latency: l },
                    l,
                    end,
                );
                assert_eq!(base, par, "n = {n}, workers = {workers}");
            }
        }
    }

    /// Runs a five-host toy fleet through `run_until` once per stop.
    fn split_run(workers: usize, stops: &[SimTime]) -> (FleetExecStats, Vec<Vec<u64>>) {
        let (n, l) = (5u32, SimTime::from_us(2));
        let hosts = (0..n).map(|i| ToyHost::new(i, n)).collect();
        let mut ex = FleetExecutor::new(hosts, l, workers);
        for (at, src, dst, msg) in seeds_for(11, n) {
            ex.seed_message(at, src, dst, msg);
        }
        for &stop in stops {
            ex.run_until(stop, &mut UniformTransit { latency: l });
        }
        let stats = ex.stats();
        let logs = ex.into_hosts().into_iter().map(|h| h.model.log).collect();
        (stats, logs)
    }

    #[test]
    fn a_run_split_across_calls_matches_one_call() {
        // Lanes and their threads are rebuilt on every call; the stop is
        // a window boundary, so even the window count must agree.
        let (stop, end) = (SimTime::from_us(776), SimTime::from_ms(2));
        let whole = split_run(1, &[end]);
        assert!(whole.0.messages > 0);
        for workers in [1, 2, 3] {
            assert_eq!(
                split_run(workers, &[stop, end]),
                whole,
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn gate_opens_a_round_only_once_every_party_has_arrived() {
        // Six parking parties, more than a small machine has cores; two,
        // where one waiter is often the only one parked; and two spinning
        // ones, which park when descheduled. A lost wakeup hangs here, an
        // early release fails the bounds.
        const ROUNDS: usize = 10_000;
        for (parties, spin) in [(6, 0), (2, 0), (2, SPIN)] {
            let gate = Gate {
                parties,
                spin,
                ..Gate::default()
            };
            let arrived = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..parties {
                    s.spawn(|| {
                        let _leave = Leave(&gate);
                        for round in 1..=ROUNDS {
                            arrived.fetch_add(1, SeqCst);
                            assert!(gate.wait(), "gate stopped in round {round}");
                            // Every party has counted this round; the
                            // fastest may have counted the next one, but
                            // none can pass it before this thread counts.
                            let seen = arrived.load(SeqCst);
                            assert!(
                                (round * parties..(round + 1) * parties).contains(&seen),
                                "{parties} parties, round {round}: {seen} arrivals"
                            );
                        }
                    });
                }
            });
            assert_eq!(arrived.into_inner(), parties * ROUNDS);
        }
    }

    #[test]
    fn stats_count_windows_events_and_messages() {
        let (n, l, end) = (3u32, SimTime::from_us(10), SimTime::from_us(100));
        let hosts = (0..n).map(|i| ToyHost::new(i, n)).collect();
        let mut ex = FleetExecutor::new(hosts, l, 1);
        ex.seed_message(SimTime::from_ns(50), 0, 1, ToyMsg { value: 9, ttl: 2 });
        let stats = ex.run_until(end, &mut UniformTransit { latency: l });
        assert_eq!(stats.windows, 10);
        // Seed + two TTL hops, all delivered before `end`.
        assert_eq!(stats.messages, 3);
        assert_eq!(stats.events, 3);
        // Every host in the first window, then only each hop's receiver.
        assert_eq!(stats.advances, 5);
    }

    #[test]
    fn a_host_without_work_is_advanced_only_in_the_first_window() {
        let (n, l) = (3u32, SimTime::from_us(10));
        let hosts = (0..n).map(|i| ToyHost::new(i, n)).collect();
        let mut ex = FleetExecutor::new(hosts, l, 2);
        let stats = ex.run_until(SimTime::from_us(100), &mut UniformTransit { latency: l });
        assert_eq!((stats.windows, stats.advances, stats.events), (10, 3, 0));
    }

    #[test]
    #[should_panic(expected = "lookahead contract")]
    fn transit_below_lookahead_is_rejected() {
        struct TooFast;
        impl Transit<ToyMsg> for TooFast {
            fn deliver_at(&mut self, _src: u32, send: &Outbound<ToyMsg>) -> SimTime {
                send.sent + SimTime::from_ns(1)
            }
        }
        // Two lanes: the serial step's panic must stop lane 1's thread
        // rather than leave it waiting at the gate.
        let hosts = vec![ToyHost::new(0, 2), ToyHost::new(1, 2)];
        let mut ex = FleetExecutor::new(hosts, SimTime::from_us(1), 2);
        ex.seed_message(SimTime::from_ns(10), 0, 1, ToyMsg { value: 1, ttl: 1 });
        ex.run_until(SimTime::from_us(50), &mut TooFast);
    }

    #[test]
    #[should_panic(expected = "outside the fleet")]
    fn a_message_to_a_missing_host_is_rejected() {
        // The toy model addresses 50 hosts, but the fleet has two.
        let hosts = vec![ToyHost::new(0, 50), ToyHost::new(1, 50)];
        let mut ex = FleetExecutor::new(hosts, SimTime::from_us(1), 2);
        ex.seed_message(SimTime::from_ns(10), 0, 1, ToyMsg { value: 1, ttl: 9 });
        ex.run_until(
            SimTime::from_us(50),
            &mut UniformTransit {
                latency: SimTime::from_us(1),
            },
        );
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn a_panicking_lane_stops_the_run() {
        // `Failing` keeps the default `next_event`, so host 2 is advanced
        // in every window although nothing is ever delivered to it.
        struct Failing(ToyHost, u32);
        impl FleetHost for Failing {
            type Msg = ToyMsg;
            fn advance(
                &mut self,
                horizon: SimTime,
                inbox: &mut Vec<Envelope<ToyMsg>>,
                outbox: &mut Vec<Outbound<ToyMsg>>,
            ) -> u64 {
                assert!(
                    self.1 != 2 || horizon < SimTime::from_us(20),
                    "host 2 failed"
                );
                self.0.advance(horizon, inbox, outbox)
            }
        }
        let hosts = (0..3).map(|i| Failing(ToyHost::new(i, 3), i)).collect();
        let mut ex = FleetExecutor::new(hosts, SimTime::from_us(1), 3);
        ex.run_until(
            SimTime::from_us(50),
            &mut UniformTransit {
                latency: SimTime::from_us(1),
            },
        );
    }
}
