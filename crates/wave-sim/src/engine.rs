//! The discrete-event engine.
//!
//! [`Sim`] is a deterministic event loop generic over a user model `M`.
//! Events are `FnOnce(&mut M, &mut Sim<M>)` closures ordered by
//! `(time, sequence)`, so two events scheduled for the same instant fire in
//! scheduling order — no wall-clock, no thread scheduling, no hash-map
//! iteration order anywhere. Given the same seed and inputs, a simulation
//! replays bit-identically (a property the test-suite asserts).
//!
//! The whole interface is [`Sim::schedule`], [`Sim::set_horizon`],
//! [`Sim::run`] and [`Sim::next_at`]. An event cannot be cancelled: a model that re-arms a
//! timer drops the stale one with its own token, checked when the event
//! fires (`SchedSim` keeps a per-segment run token for its preemption and
//! completion timers), the way a kernel ignores a stale interrupt.
//!
//! # Internals: one heap + slab + closure pool
//!
//! The engine is the hot path of every experiment in the workspace, so its
//! data layout is tuned for the dominant event shape — short-horizon
//! timers that are scheduled, fired, and immediately replaced — in
//! shallow queues: a fleet host holds 2.9 pending events on average (5 at
//! most), and the busiest single-host run (`sched_trace`) 14.7 (33).
//!
//! * **One binary heap.** Pending events are 24-byte `(time, seq, slot)`
//!   entries in one `BinaryHeap`, popped in exact `(time, seq)` order.
//!   At these depths a push or pop touches a handful of cache lines, and
//!   an idle engine holds no queue memory beyond the heap's buffer.
//! * **Slab + closure pool.** Each scheduled closure is moved into a
//!   block from a size-classed `pool` of reusable blocks and referenced
//!   from a free-listed slab slot, so a queue entry carries no closure.
//!   Steady-state scheduling (fire one event, arm the next) therefore
//!   allocates nothing once the pool has warmed up.
//!   Every closure goes through the pool: one larger than
//!   `MAX_POOLED_SIZE` or aligned past `BLOCK_ALIGN` is a compile error
//!   in [`Sim::schedule`].
//!
//! The repository's `wavebench` benchmark measures the host cost of the
//! engine inside whole simulations, the root `alloc_audit` test pins the
//! pooled steady state, and `wave-sim`'s `engine_equivalence` proptest
//! suite pins pop order, clock and event count against a reference
//! `BinaryHeap` model under arbitrary schedule/run-to-horizon
//! interleavings.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::mem::{align_of, size_of};

use crate::time::SimTime;

/// A queue entry: the full ordering key plus the slab reference. The
/// closure itself lives in the slab, so entries are small `Copy` values
/// that sort and move cheaply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    /// Reverse ordering: `BinaryHeap` is a max-heap, we want the
    /// earliest `(at, seq)` on top. Compared as one 128-bit key, which
    /// the heap's sift loops pick children by without a branch.
    fn cmp(&self, other: &Self) -> Ordering {
        let key = |e: &Self| (e.at.as_ns() as u128) << 64 | e.seq as u128;
        key(other).cmp(&key(self))
    }
}

/// Size-classed closure storage.
///
/// This module owns the raw blocks; the typed writes, calls and drops of
/// closures in them are the `unsafe` blocks of [`Sim`]. Blocks are
/// raw allocations from the global allocator, recycled through per-class
/// free lists; a closure is moved *out of* its block onto the stack
/// before it runs, so blocks can be recycled immediately and the
/// executing closure never aliases engine-owned memory.
mod pool {
    use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};

    /// Block sizes. Closures in this workspace capture a handful of
    /// `Copy` scalars (typically 0–48 bytes); 256 bytes covers even the
    /// fattest capture lists seen in practice.
    const CLASS_SIZES: [usize; 4] = [32, 64, 128, 256];
    /// All classes share one alignment, covering every closure capture
    /// type in use (max align of scalar captures is 8; 16 adds margin).
    pub const BLOCK_ALIGN: usize = 16;

    /// The largest closure the pool serves.
    pub const MAX_POOLED_SIZE: usize = 256;

    /// Per-class free lists of recycled blocks.
    pub struct ClosurePool {
        free: [Vec<*mut u8>; 4],
    }

    impl ClosurePool {
        pub fn new() -> Self {
            ClosurePool {
                free: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
            }
        }

        /// The smallest size class holding `size` bytes; `size` is at
        /// most [`MAX_POOLED_SIZE`].
        pub fn class_for(size: usize) -> u8 {
            CLASS_SIZES
                .iter()
                .position(|&c| size <= c)
                .expect("closure sizes are checked at compile time") as u8
        }

        fn layout(class: u8) -> Layout {
            // Infallible: every (CLASS_SIZES[i], BLOCK_ALIGN) pair is a
            // valid layout.
            Layout::from_size_align(CLASS_SIZES[class as usize], BLOCK_ALIGN)
                .expect("class layouts are valid")
        }

        /// Hands out a block of at least the class size. Reuses a
        /// recycled block when one exists (the steady-state path).
        pub fn alloc_block(&mut self, class: u8) -> *mut u8 {
            if let Some(p) = self.free[class as usize].pop() {
                return p;
            }
            let layout = Self::layout(class);
            // SAFETY: layout has non-zero size.
            let p = unsafe { alloc(layout) };
            if p.is_null() {
                handle_alloc_error(layout);
            }
            p
        }

        /// Returns a block to its class free list. The block's contents
        /// are dead (the closure was moved out or dropped in place).
        pub fn free_block(&mut self, class: u8, ptr: *mut u8) {
            self.free[class as usize].push(ptr);
        }
    }

    impl Drop for ClosurePool {
        fn drop(&mut self) {
            for (class, list) in self.free.iter_mut().enumerate() {
                let layout = Self::layout(class as u8);
                for &mut p in list {
                    // SAFETY: every pointer in a free list came from
                    // `alloc` with exactly this class layout and is
                    // freed exactly once (lists are drained here).
                    unsafe { dealloc(p, layout) };
                }
            }
        }
    }
}

/// Moves the closure out of its pool block onto the stack and calls it.
///
/// # Safety
///
/// `data` must point to a properly aligned, initialized `F` that is not
/// read again afterwards (the slab entry must already be vacated).
unsafe fn call_pooled<M, F: FnOnce(&mut M, &mut Sim<M>)>(
    data: *mut u8,
    model: &mut M,
    sim: &mut Sim<M>,
) {
    let f = (data as *mut F).read();
    f(model, sim)
}

/// Drops an unfired closure in place (engine drop).
///
/// # Safety
///
/// `data` must point to a properly aligned, initialized `F` that is not
/// used again afterwards.
unsafe fn drop_pooled<F>(data: *mut u8) {
    std::ptr::drop_in_place(data as *mut F)
}

type CallFn<M> = unsafe fn(*mut u8, &mut M, &mut Sim<M>);
type DropFn = unsafe fn(*mut u8);

/// A scheduled closure living in a pool block.
struct Payload<M> {
    data: *mut u8,
    class: u8,
    call: CallFn<M>,
    drop: DropFn,
}

/// A deterministic discrete-event simulator over a model type `M`.
///
/// See the [crate-level documentation](crate) for an example and the
/// [module documentation](self) for the internal layout.
pub struct Sim<M> {
    now: SimTime,
    seq: u64,
    executed: u64,
    horizon: SimTime,
    /// Pending events, earliest `(at, seq)` on top.
    queue: BinaryHeap<Entry>,
    /// Event payload slab; `None` marks a vacant slot.
    slots: Vec<Option<Payload<M>>>,
    /// Vacant slab slots, reused last-freed first.
    free: Vec<u32>,
    pool: pool::ClosurePool,
}

// SAFETY: `Sim` is only non-`Send` automatically because the slab and
// closure pool traffic in raw `*mut u8` blocks. Those blocks are owned
// exclusively by this instance (allocated, consumed, and freed through
// `&mut self` only; nothing aliases or escapes), and every payload
// written into them is a closure the `schedule` bounds require to be
// `Send`. Moving the whole engine to another thread — which the fleet
// executor does when it hands each host to its lane's thread, once per
// `run_until` call — is therefore sound.
unsafe impl<M> Send for Sim<M> {}

impl<M> Default for Sim<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> fmt::Debug for Sim<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("executed", &self.executed)
            .finish()
    }
}

impl<M> Drop for Sim<M> {
    fn drop(&mut self) {
        // Release every unfired closure; `ClosurePool::drop` then
        // returns the blocks to the allocator.
        for Payload {
            data, class, drop, ..
        } in self.slots.iter_mut().filter_map(Option::take)
        {
            // SAFETY: the slot held a live pooled closure; it is dropped
            // exactly once and the block freed exactly once.
            unsafe { drop(data) };
            self.pool.free_block(class, data);
        }
    }
}

impl<M> Sim<M> {
    /// Creates an empty simulator at time zero with an unbounded horizon.
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            executed: 0,
            horizon: SimTime::MAX,
            queue: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            pool: pool::ClosurePool::new(),
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

    /// Schedules `action` at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to `now`: this is deliberate, so
    /// that cost models which compute "ready at" timestamps slightly before
    /// the current event never panic.
    ///
    /// The closure is stored in the engine's closure pool, so its
    /// captures may take at most 256 bytes at an alignment of at most 16;
    /// a larger closure does not compile:
    ///
    /// ```compile_fail
    /// use wave_sim::{Sim, SimTime};
    ///
    /// let mut sim: Sim<()> = Sim::new();
    /// let big = [0u8; 512];
    /// sim.schedule(SimTime::ZERO, move |_, _| {
    ///     std::hint::black_box(big);
    /// });
    /// ```
    pub fn schedule<F>(&mut self, at: SimTime, action: F)
    where
        F: FnOnce(&mut M, &mut Sim<M>) + Send + 'static,
    {
        const {
            assert!(
                size_of::<F>() <= pool::MAX_POOLED_SIZE && align_of::<F>() <= pool::BLOCK_ALIGN,
                "event closure too large or too aligned for the engine's closure pool"
            )
        };
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;

        let class = pool::ClosurePool::class_for(size_of::<F>());
        let data = self.pool.alloc_block(class);
        // SAFETY: the block is at least `size_of::<F>()` bytes, aligned to
        // BLOCK_ALIGN >= align_of::<F>() (both asserted above), and owned
        // exclusively by this slot until the event fires or the engine
        // drops.
        unsafe { (data as *mut F).write(action) };
        let payload = Some(Payload {
            data,
            class,
            call: call_pooled::<M, F>,
            drop: drop_pooled::<F>,
        });

        let slot = match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = payload;
                idx
            }
            None => {
                self.slots.push(payload);
                self.slots.len() as u32 - 1
            }
        };

        self.queue.push(Entry { at, seq, slot });
    }

    /// Vacates `slot` and runs its closure. The closure is moved out of
    /// its pool block (and the block recycled) before it runs, so it runs
    /// from the stack and may freely schedule into this engine.
    fn dispatch(&mut self, slot: u32, model: &mut M) {
        let Payload {
            data, class, call, ..
        } = self.slots[slot as usize]
            .take()
            .expect("queue entry points at a live slot");
        self.free.push(slot);
        self.pool.free_block(class, data);
        // SAFETY: `call` moves the closure out of `data` before invoking
        // it; the block was recycled above but cannot be handed out again
        // until the closure (already on the stack) schedules — which
        // happens after the move.
        unsafe { call(data, model, self) };
    }

    /// Runs until the event queue is empty or the next event lies past
    /// the horizon. Returns the number of events executed by this call.
    pub fn run(&mut self, model: &mut M) -> u64 {
        let start = self.executed;
        while let Some(&next) = self.queue.peek() {
            if next.at > self.horizon {
                self.now = self.horizon;
                break;
            }
            self.queue.pop();
            debug_assert!(next.at >= self.now, "event queue went backwards");
            self.now = next.at;
            self.dispatch(next.slot, model);
            self.executed += 1;
        }
        self.executed - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Log(Vec<u32>);

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new();
        sim.schedule(SimTime::from_ns(30), |m: &mut Log, _| m.0.push(3));
        sim.schedule(SimTime::from_ns(10), |m: &mut Log, _| m.0.push(1));
        sim.schedule(SimTime::from_ns(20), |m: &mut Log, _| m.0.push(2));
        let mut log = Log::default();
        sim.run(&mut log);
        assert_eq!(log.0, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_ns(30));
    }

    #[test]
    fn ties_fire_in_schedule_order() {
        let mut sim = Sim::new();
        for i in 0..16 {
            sim.schedule(SimTime::from_ns(5), move |m: &mut Log, _| m.0.push(i));
        }
        let mut log = Log::default();
        sim.run(&mut log);
        assert_eq!(log.0, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scheduling() {
        let mut sim = Sim::new();
        sim.schedule(SimTime::from_ns(1), |m: &mut Log, s| {
            m.0.push(1);
            s.schedule(s.now() + SimTime::from_ns(1), |m: &mut Log, _| m.0.push(2));
        });
        let mut log = Log::default();
        sim.run(&mut log);
        assert_eq!(log.0, vec![1, 2]);
        assert_eq!(sim.now(), SimTime::from_ns(2));
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut sim = Sim::new();
        sim.schedule(SimTime::from_ns(100), |m: &mut Log, s| {
            m.0.push(1);
            // "In the past" relative to now=100; must fire, at now.
            s.schedule(SimTime::from_ns(10), |m: &mut Log, _| m.0.push(2));
        });
        let mut log = Log::default();
        sim.run(&mut log);
        assert_eq!(log.0, vec![1, 2]);
        assert_eq!(sim.now(), SimTime::from_ns(100));
    }

    #[test]
    fn horizon_stops_run() {
        let mut sim = Sim::new();
        sim.schedule(SimTime::from_ns(5), |m: &mut Log, _| m.0.push(1));
        sim.schedule(SimTime::from_ns(50), |m: &mut Log, _| m.0.push(2));
        sim.set_horizon(SimTime::from_ns(10));
        let mut log = Log::default();
        assert_eq!(sim.run(&mut log), 1);
        assert_eq!(log.0, vec![1]);
        assert_eq!(sim.now(), SimTime::from_ns(10));
        // The held-back event is still queued and runs under a longer
        // horizon; an event exactly at the horizon runs.
        sim.set_horizon(SimTime::from_ns(50));
        assert_eq!(sim.run(&mut log), 1);
        assert_eq!(log.0, vec![1, 2]);
        assert_eq!(sim.now(), SimTime::from_ns(50));
    }

    #[test]
    fn executed_counts() {
        let mut sim = Sim::new();
        for i in 0..10u64 {
            sim.schedule(SimTime::from_ns(i), |_: &mut Log, _| {});
        }
        let mut log = Log::default();
        assert_eq!(sim.run(&mut log), 10);
        assert_eq!(sim.executed(), 10);
    }

    /// Events from nanoseconds to a second ahead, scheduled latest
    /// first, fire in time order.
    #[test]
    fn far_future_events_fire_in_time_order() {
        let mut sim = Sim::new();
        let times = [7u64, 384, 65_535, 65_537, 196_621, 1_114_117, 1_000_000_000];
        for i in (0..times.len()).rev() {
            sim.schedule(SimTime::from_ns(times[i]), move |m: &mut Log, _| {
                m.0.push(i as u32)
            });
        }
        let mut log = Log::default();
        sim.run(&mut log);
        assert_eq!(log.0, (0..times.len() as u32).collect::<Vec<_>>());
        assert_eq!(sim.now(), SimTime::from_ns(1_000_000_000));
    }

    /// `next_at` reports the earliest pending time: none when empty, the
    /// shared instant after a tie, and `now` after a past-time clamp.
    #[test]
    fn next_at_is_the_earliest_pending_time() {
        let mut sim: Sim<Log> = Sim::new();
        assert_eq!(sim.next_at(), None);
        sim.schedule(SimTime::from_ns(40), |_, _| {});
        sim.schedule(SimTime::from_ns(20), |_, _| {});
        sim.schedule(SimTime::from_ns(20), |_, _| {});
        assert_eq!(sim.next_at(), Some(SimTime::from_ns(20)));
        sim.set_horizon(SimTime::from_ns(30));
        let mut log = Log::default();
        assert_eq!(sim.run(&mut log), 2);
        assert_eq!(sim.next_at(), Some(SimTime::from_ns(40)));
        // In the past relative to now = 30: clamped to now.
        sim.schedule(SimTime::from_ns(5), |_, _| {});
        assert_eq!(sim.next_at(), Some(SimTime::from_ns(30)));
        sim.set_horizon(SimTime::MAX);
        assert_eq!(sim.run(&mut log), 2);
        assert_eq!(sim.next_at(), None);
    }

    /// Same-instant events split across schedule-before-drain and
    /// schedule-during-drain must still fire in seq order.
    #[test]
    fn same_instant_scheduled_during_drain_keeps_seq_order() {
        let mut sim = Sim::new();
        let t = SimTime::from_ns(10);
        sim.schedule(t, move |m: &mut Log, s| {
            m.0.push(0);
            // Scheduled while the instant is running; same time.
            s.schedule(t, |m: &mut Log, _| m.0.push(2));
        });
        sim.schedule(t, |m: &mut Log, _| m.0.push(1));
        let mut log = Log::default();
        sim.run(&mut log);
        assert_eq!(log.0, vec![0, 1, 2]);
    }

    /// Dropping a Sim with unfired closures of every size class must
    /// drop each capture exactly once (and free each block exactly once,
    /// which the suite running at all exercises).
    #[test]
    fn drop_releases_unfired_closures() {
        use std::sync::Arc;
        let witness = Arc::new(());
        {
            let mut sim: Sim<Log> = Sim::new();
            let w1 = Arc::clone(&witness);
            let w2 = Arc::clone(&witness);
            let big = [0u8; 200];
            sim.schedule(SimTime::from_ns(1), move |_, _| drop(w1));
            sim.schedule(SimTime::from_ns(2), move |_, _| {
                std::hint::black_box(big);
                drop(w2);
            });
            assert_eq!(Arc::strong_count(&witness), 3);
        }
        assert_eq!(Arc::strong_count(&witness), 1, "closures dropped with Sim");
    }
}
