//! The discrete-event engine.
//!
//! [`Sim`] is a deterministic event loop over a plain event type `E`.
//! Events are values ordered by `(time, sequence)`, so two events
//! scheduled for the same instant fire in scheduling order — no
//! wall-clock, no thread scheduling, no hash-map iteration order anywhere.
//! [`Sim::run`] hands each one to the caller's handler, which reads the
//! clock with [`Sim::now`] and may schedule more. Given the same seed and
//! inputs, a simulation replays bit-identically (a property the
//! test-suite asserts).
//!
//! The whole interface is [`Sim::schedule`], [`Sim::set_horizon`],
//! [`Sim::run`] and [`Sim::next_at`]. An event cannot be cancelled: a model that re-arms a
//! timer drops the stale one with its own token, checked when the event
//! fires (`SchedSim` keeps a per-segment run token for its preemption and
//! completion timers), the way a kernel ignores a stale interrupt.
//!
//! # Internals: one typed heap
//!
//! The engine is the hot path of every experiment in the workspace, so its
//! data layout is tuned for the dominant event shape — short-horizon
//! timers that are scheduled, fired, and immediately replaced — in
//! shallow queues: a fleet host holds 2.9 pending events on average (5 at
//! most), and the busiest single-host run (`sched_trace`) 14.7 (33).
//! Pending events are `{at, seq, ev}` entries in one `BinaryHeap`, the
//! event held inline, popped in exact `(time, seq)` order. At these
//! depths a push or pop touches a handful of cache lines, steady-state
//! scheduling (fire one event, arm the next) reuses the heap's buffer and
//! allocates nothing, and an idle engine holds no memory beyond that
//! buffer.
//!
//! The repository's `wavebench` benchmark measures the host cost of the
//! engine inside whole simulations, the root `alloc_audit` test pins the
//! allocation-free steady state, and `wave-sim`'s `engine_equivalence`
//! proptest suite pins pop order, clock and event count against a
//! reference `BinaryHeap` model under arbitrary schedule/run-to-horizon
//! interleavings.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use crate::time::SimTime;

/// A queue entry: the full ordering key and the event itself.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    ev: E,
}

impl<E> Entry<E> {
    /// `(at, seq)` as one 128-bit key, which the heap's sift loops pick
    /// children by without a branch. `seq` is unique, so keys are too.
    fn key(&self) -> u128 {
        (self.at.as_ns() as u128) << 64 | self.seq as u128
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    /// Reverse ordering: `BinaryHeap` is a max-heap, we want the
    /// earliest `(at, seq)` on top.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// A deterministic discrete-event simulator over an event type `E`.
///
/// See the [crate-level documentation](crate) for an example and the
/// [module documentation](self) for the internal layout.
pub struct Sim<E> {
    now: SimTime,
    seq: u64,
    executed: u64,
    horizon: SimTime,
    /// Pending events, earliest `(at, seq)` on top.
    queue: BinaryHeap<Entry<E>>,
}

impl<E> Default for Sim<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> fmt::Debug for Sim<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("executed", &self.executed)
            .finish()
    }
}

impl<E> Sim<E> {
    /// Creates an empty simulator at time zero with an unbounded horizon.
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            executed: 0,
            horizon: SimTime::MAX,
            queue: BinaryHeap::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// The time of the earliest pending event, if any: what a driver
    /// compares with its next horizon to tell whether [`Sim::run`] would
    /// execute anything.
    pub fn next_at(&self) -> Option<SimTime> {
        self.queue.peek().map(|e| e.at)
    }

    /// Sets an absolute time horizon; events strictly after the horizon are
    /// not executed and [`Sim::run`] returns once the next event would pass
    /// it. The clock is left at the horizon.
    pub fn set_horizon(&mut self, horizon: SimTime) {
        self.horizon = horizon;
    }

    /// Schedules `ev` at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to `now`: this is deliberate, so
    /// that cost models which compute "ready at" timestamps slightly before
    /// the current event never panic.
    pub fn schedule(&mut self, at: SimTime, ev: E) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Entry { at, seq, ev });
    }

    /// Runs until the event queue is empty or the next event lies past
    /// the horizon, passing each event to `handle` with the clock at its
    /// time. Returns the number of events executed by this call.
    pub fn run(&mut self, mut handle: impl FnMut(&mut Sim<E>, E)) -> u64 {
        let start = self.executed;
        while let Some(at) = self.next_at() {
            if at > self.horizon {
                self.now = self.horizon;
                break;
            }
            let Entry { ev, .. } = self.queue.pop().expect("peeked an entry");
            debug_assert!(at >= self.now, "event queue went backwards");
            self.now = at;
            handle(self, ev);
            self.executed += 1;
        }
        self.executed - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    enum Ev {
        /// Log the value.
        Push(u32),
        /// Log `value`, then schedule `Push(child)` at `at`.
        Spawn {
            value: u32,
            at: SimTime,
            child: u32,
        },
        Nop,
        /// Keeps a reference alive until the event fires or is dropped.
        Hold(Arc<()>),
    }

    /// The test model's handler: logs into `log`.
    fn logger(log: &mut Vec<u32>) -> impl FnMut(&mut Sim<Ev>, Ev) + '_ {
        move |s, ev| match ev {
            Ev::Push(v) => log.push(v),
            Ev::Spawn { value, at, child } => {
                log.push(value);
                s.schedule(at, Ev::Push(child));
            }
            Ev::Hold(w) => drop(w),
            Ev::Nop => {}
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new();
        sim.schedule(SimTime::from_ns(30), Ev::Push(3));
        sim.schedule(SimTime::from_ns(10), Ev::Push(1));
        sim.schedule(SimTime::from_ns(20), Ev::Push(2));
        let mut log = Vec::new();
        sim.run(logger(&mut log));
        assert_eq!(log, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_ns(30));
    }

    #[test]
    fn ties_fire_in_schedule_order() {
        let mut sim = Sim::new();
        for i in 0..16 {
            sim.schedule(SimTime::from_ns(5), Ev::Push(i));
        }
        let mut log = Vec::new();
        sim.run(logger(&mut log));
        assert_eq!(log, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scheduling() {
        let mut sim = Sim::new();
        let at = SimTime::from_ns(2);
        sim.schedule(
            SimTime::from_ns(1),
            Ev::Spawn {
                value: 1,
                at,
                child: 2,
            },
        );
        let mut log = Vec::new();
        sim.run(logger(&mut log));
        assert_eq!(log, vec![1, 2]);
        assert_eq!(sim.now(), SimTime::from_ns(2));
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut sim = Sim::new();
        // "In the past" relative to now=100; must fire, at now.
        let at = SimTime::from_ns(10);
        sim.schedule(
            SimTime::from_ns(100),
            Ev::Spawn {
                value: 1,
                at,
                child: 2,
            },
        );
        let mut log = Vec::new();
        sim.run(logger(&mut log));
        assert_eq!(log, vec![1, 2]);
        assert_eq!(sim.now(), SimTime::from_ns(100));
    }

    #[test]
    fn horizon_stops_run() {
        let mut sim = Sim::new();
        sim.schedule(SimTime::from_ns(5), Ev::Push(1));
        sim.schedule(SimTime::from_ns(50), Ev::Push(2));
        sim.set_horizon(SimTime::from_ns(10));
        let mut log = Vec::new();
        assert_eq!(sim.run(logger(&mut log)), 1);
        assert_eq!(log, vec![1]);
        assert_eq!(sim.now(), SimTime::from_ns(10));
        // The held-back event is still queued and runs under a longer
        // horizon; an event exactly at the horizon runs.
        sim.set_horizon(SimTime::from_ns(50));
        assert_eq!(sim.run(logger(&mut log)), 1);
        assert_eq!(log, vec![1, 2]);
        assert_eq!(sim.now(), SimTime::from_ns(50));
    }

    #[test]
    fn executed_counts() {
        let mut sim = Sim::new();
        for i in 0..10u64 {
            sim.schedule(SimTime::from_ns(i), Ev::Nop);
        }
        let mut log = Vec::new();
        assert_eq!(sim.run(logger(&mut log)), 10);
        assert_eq!(sim.executed(), 10);
    }

    /// Events from nanoseconds to a second ahead, scheduled latest
    /// first, fire in time order.
    #[test]
    fn far_future_events_fire_in_time_order() {
        let mut sim = Sim::new();
        let times = [7u64, 384, 65_535, 65_537, 196_621, 1_114_117, 1_000_000_000];
        for i in (0..times.len()).rev() {
            sim.schedule(SimTime::from_ns(times[i]), Ev::Push(i as u32));
        }
        let mut log = Vec::new();
        sim.run(logger(&mut log));
        assert_eq!(log, (0..times.len() as u32).collect::<Vec<_>>());
        assert_eq!(sim.now(), SimTime::from_ns(1_000_000_000));
    }

    /// `next_at` reports the earliest pending time: none when empty, the
    /// shared instant after a tie, and `now` after a past-time clamp.
    #[test]
    fn next_at_is_the_earliest_pending_time() {
        let mut sim = Sim::new();
        assert_eq!(sim.next_at(), None);
        sim.schedule(SimTime::from_ns(40), Ev::Nop);
        sim.schedule(SimTime::from_ns(20), Ev::Nop);
        sim.schedule(SimTime::from_ns(20), Ev::Nop);
        assert_eq!(sim.next_at(), Some(SimTime::from_ns(20)));
        sim.set_horizon(SimTime::from_ns(30));
        let mut log = Vec::new();
        assert_eq!(sim.run(logger(&mut log)), 2);
        assert_eq!(sim.next_at(), Some(SimTime::from_ns(40)));
        // In the past relative to now = 30: clamped to now.
        sim.schedule(SimTime::from_ns(5), Ev::Nop);
        assert_eq!(sim.next_at(), Some(SimTime::from_ns(30)));
        sim.set_horizon(SimTime::MAX);
        assert_eq!(sim.run(logger(&mut log)), 2);
        assert_eq!(sim.next_at(), None);
    }

    /// Same-instant events split across schedule-before-drain and
    /// schedule-during-drain must still fire in seq order.
    #[test]
    fn same_instant_scheduled_during_drain_keeps_seq_order() {
        let mut sim = Sim::new();
        let t = SimTime::from_ns(10);
        // The child is scheduled while the instant is running; same time.
        sim.schedule(
            t,
            Ev::Spawn {
                value: 0,
                at: t,
                child: 2,
            },
        );
        sim.schedule(t, Ev::Push(1));
        let mut log = Vec::new();
        sim.run(logger(&mut log));
        assert_eq!(log, vec![0, 1, 2]);
    }

    /// Dropping a Sim with unfired events drops each of them exactly once.
    #[test]
    fn drop_releases_unfired_events() {
        let witness = Arc::new(());
        {
            let mut sim = Sim::new();
            sim.schedule(SimTime::from_ns(1), Ev::Hold(Arc::clone(&witness)));
            sim.schedule(SimTime::from_ns(2), Ev::Hold(Arc::clone(&witness)));
            assert_eq!(Arc::strong_count(&witness), 3);
        }
        assert_eq!(Arc::strong_count(&witness), 1, "events dropped with Sim");
    }
}
