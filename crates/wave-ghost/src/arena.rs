//! Arena-allocated per-thread state and intrusive run queues.
//!
//! The scheduler's hot path touches per-thread state on **every**
//! simulated event: the agent pump resolves the thread behind each
//! message, every policy pick walks a run queue, and every completion
//! retires a thread. PR 6 made the event *engine* allocation-free; this
//! module does the same for the event *payload*:
//!
//! * [`ThreadTable`] — a generational slab arena. Thread state lives in
//!   one dense `Vec<ThreadSlot>`; a [`Tid`] packs the slot index (low 32
//!   bits) with a per-slot generation (high 32 bits), so a handle to a
//!   retired thread goes stale. Lookup is an index plus a generation
//!   compare — no hashing, no probing — and a retired thread's slot is
//!   recycled through a free list, so steady state performs zero
//!   allocations.
//! * [`ThreadQueue`] — an intrusive index-linked list threaded *through*
//!   the arena slots. Enqueue, dequeue, and (crucially) removal of an
//!   arbitrary queued thread are O(1) link updates on rows the policy
//!   just touched anyway. The old `VecDeque`-backed policies paid an
//!   O(depth) `retain` per blocked/dead message — at saturating load
//!   that queue is tens of thousands deep, and the scan dominated the
//!   whole `sched_sim` workload.
//!
//! **Invariants.** A thread is a member of at most one queue at a time;
//! each slot carries the owning queue's token (minted from a global
//! counter, compared only for equality, so token values never affect
//! simulation results). Queue operations validate the generation first:
//! an operation on a stale `Tid` (the slot was freed, possibly reused)
//! is a no-op, exactly like the old `retain` finding nothing. Freeing a
//! slot that is still queued is a bug in the caller and panics.

use std::sync::atomic::{AtomicU32, Ordering};

use wave_sim::SimTime;

use crate::msg::{CpuId, Tid};
use crate::policy::{SloClass, ThreadMeta};

/// Null link / "no slot" sentinel for the intrusive lists.
const NIL: u32 = u32::MAX;

/// Slot token meaning "not in any queue".
const UNQUEUED: u32 = 0;

/// Queue-membership tokens; `0` is reserved for [`UNQUEUED`].
static NEXT_QUEUE_TOKEN: AtomicU32 = AtomicU32::new(1);

/// What a thread is currently doing, as the host kernel sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadRun {
    /// Schedulable: in (or on its way to) a policy run queue.
    Runnable,
    /// On a worker core.
    Running(CpuId),
}

/// One arena row: the thread's scheduling state plus the intrusive
/// queue links.
///
/// The scheduling fields are public — the simulation reads and writes
/// them directly, that is the point of the dense layout. The links and
/// the generation are private: only [`ThreadTable`]/[`ThreadQueue`] may
/// touch them.
#[derive(Debug, Clone, Copy)]
pub struct ThreadSlot {
    /// Remaining service time.
    pub remaining: SimTime,
    /// Wire arrival time (for latency accounting and queueing-delay-
    /// aware policies).
    pub arrival: SimTime,
    /// SLO class tag.
    pub slo: SloClass,
    /// Current run state.
    pub run: ThreadRun,
    /// Key the owning queue stored at enqueue time (the arrival time a
    /// slack-based policy reads back at pick time).
    qkey: SimTime,
    /// Slot generation; a [`Tid`] resolves only while its generation
    /// matches.
    generation: u32,
    /// Owning queue's token, or [`UNQUEUED`].
    queue: u32,
    /// Next slot in the owning queue ([`NIL`] at the tail).
    next: u32,
    /// Previous slot in the owning queue ([`NIL`] at the head).
    prev: u32,
}

impl ThreadSlot {
    fn fresh(generation: u32) -> Self {
        ThreadSlot {
            remaining: SimTime::ZERO,
            arrival: SimTime::ZERO,
            slo: SloClass::DEFAULT,
            run: ThreadRun::Runnable,
            qkey: SimTime::ZERO,
            generation,
            queue: UNQUEUED,
            next: NIL,
            prev: NIL,
        }
    }
}

impl Tid {
    /// Packs a slot index and generation into a thread id.
    #[inline]
    pub fn pack(slot: u32, generation: u32) -> Tid {
        Tid(((generation as u64) << 32) | slot as u64)
    }

    /// The arena slot index this id refers to.
    #[inline]
    pub fn slot(self) -> u32 {
        self.0 as u32
    }

    /// The slot generation this id was minted under.
    #[inline]
    pub fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Generational slab arena of [`ThreadSlot`]s.
///
/// `insert` pops the free list (or grows the dense vector once, during
/// ramp-up); `remove` bumps the slot's generation — invalidating every
/// outstanding [`Tid`] for it — and pushes it back. Lookups are a bounds
/// check, an index, and a generation compare.
#[derive(Debug, Default)]
pub struct ThreadTable {
    slots: Vec<ThreadSlot>,
    /// Retired slot indices, reused LIFO (the hottest rows stay hot).
    free: Vec<u32>,
}

impl ThreadTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table with room for `cap` threads before any growth.
    pub fn with_capacity(cap: usize) -> Self {
        ThreadTable {
            slots: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
        }
    }

    /// Number of live threads.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether no threads are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admits a thread, returning its generation-stamped id.
    pub fn insert(&mut self, remaining: SimTime, arrival: SimTime, slo: SloClass) -> Tid {
        let idx = match self.free.pop() {
            Some(idx) => {
                let s = &mut self.slots[idx as usize];
                let generation = s.generation;
                *s = ThreadSlot::fresh(generation);
                idx
            }
            None => {
                assert!(self.slots.len() < NIL as usize, "thread arena exhausted");
                self.slots.push(ThreadSlot::fresh(0));
                (self.slots.len() - 1) as u32
            }
        };
        let s = &mut self.slots[idx as usize];
        s.remaining = remaining;
        s.arrival = arrival;
        s.slo = slo;
        Tid::pack(idx, s.generation)
    }

    /// Retires a thread: bumps the slot generation (stale `Tid`s stop
    /// resolving) and recycles the slot. Returns whether the id was
    /// live.
    ///
    /// # Panics
    ///
    /// Panics if the thread is still linked into a queue — the caller
    /// must dequeue (or let the policy's `on_removed` unlink) first.
    pub fn remove(&mut self, tid: Tid) -> bool {
        let idx = tid.slot() as usize;
        let Some(s) = self.slots.get_mut(idx) else {
            return false;
        };
        if s.generation != tid.generation() {
            return false;
        }
        assert!(
            s.queue == UNQUEUED,
            "retiring a thread still linked into a run queue"
        );
        s.generation = s.generation.wrapping_add(1);
        self.free.push(tid.slot());
        true
    }

    /// The live slot behind `tid`, if the id is current.
    #[inline]
    pub fn get(&self, tid: Tid) -> Option<&ThreadSlot> {
        self.slots
            .get(tid.slot() as usize)
            .filter(|s| s.generation == tid.generation())
    }

    /// Mutable access to the live slot behind `tid`.
    #[inline]
    pub fn get_mut(&mut self, tid: Tid) -> Option<&mut ThreadSlot> {
        self.slots
            .get_mut(tid.slot() as usize)
            .filter(|s| s.generation == tid.generation())
    }

    /// Whether `tid` refers to a live thread.
    pub fn contains(&self, tid: Tid) -> bool {
        self.get(tid).is_some()
    }

    /// The policy-facing metadata of a live thread.
    pub fn meta(&self, tid: Tid) -> Option<ThreadMeta> {
        self.get(tid).map(|s| ThreadMeta {
            arrival: s.arrival,
            slo: s.slo,
        })
    }
}

impl std::ops::Index<Tid> for ThreadTable {
    type Output = ThreadSlot;

    fn index(&self, tid: Tid) -> &ThreadSlot {
        self.get(tid).expect("stale or unknown Tid")
    }
}

impl std::ops::IndexMut<Tid> for ThreadTable {
    fn index_mut(&mut self, tid: Tid) -> &mut ThreadSlot {
        self.get_mut(tid).expect("stale or unknown Tid")
    }
}

/// An intrusive FIFO queue threaded through [`ThreadTable`]
/// slots.
///
/// The queue owns no storage beyond three words; membership, links, and
/// the enqueue key live in the arena rows themselves. All operations
/// take the table explicitly. Operations on stale ids are no-ops;
/// operations on a thread queued *elsewhere* are rejected (the token
/// mismatch) rather than corrupting the other queue.
#[derive(Debug)]
pub struct ThreadQueue {
    token: u32,
    head: u32,
    tail: u32,
    len: usize,
}

impl Default for ThreadQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl ThreadQueue {
    /// An empty queue with a freshly minted membership token.
    pub fn new() -> Self {
        let token = NEXT_QUEUE_TOKEN.fetch_add(1, Ordering::Relaxed);
        assert!(token != UNQUEUED, "queue token space exhausted");
        ThreadQueue {
            token,
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Number of queued threads.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Claims `tid`'s slot for this queue, returning the slot index.
    /// `None` if the id is stale or the thread is already queued.
    #[inline]
    fn claim(&self, table: &mut ThreadTable, tid: Tid, qkey: SimTime) -> Option<u32> {
        let s = table.get_mut(tid)?;
        if s.queue != UNQUEUED {
            debug_assert!(false, "thread enqueued while already in a run queue");
            return None;
        }
        s.queue = self.token;
        s.qkey = qkey;
        s.next = NIL;
        s.prev = NIL;
        Some(tid.slot())
    }

    /// Appends `tid` (FIFO order). Returns whether it was enqueued.
    pub fn push_back(&mut self, table: &mut ThreadTable, tid: Tid) -> bool {
        self.push_back_keyed(table, tid, SimTime::ZERO)
    }

    /// Appends `tid`, storing `qkey` in its row (e.g. the arrival time a
    /// slack-based policy reads back at pick time).
    pub fn push_back_keyed(&mut self, table: &mut ThreadTable, tid: Tid, qkey: SimTime) -> bool {
        let Some(idx) = self.claim(table, tid, qkey) else {
            return false;
        };
        table.slots[idx as usize].prev = self.tail;
        match self.tail {
            NIL => self.head = idx,
            t => table.slots[t as usize].next = idx,
        }
        self.tail = idx;
        self.len += 1;
        true
    }

    /// The head thread's id, without dequeuing.
    pub fn front(&self, table: &ThreadTable) -> Option<Tid> {
        if self.head == NIL {
            return None;
        }
        let s = &table.slots[self.head as usize];
        Some(Tid::pack(self.head, s.generation))
    }

    /// The head thread's stored ordering key, without dequeuing.
    pub fn front_key(&self, table: &ThreadTable) -> Option<SimTime> {
        if self.head == NIL {
            return None;
        }
        Some(table.slots[self.head as usize].qkey)
    }

    /// Dequeues the head thread.
    pub fn pop_front(&mut self, table: &mut ThreadTable) -> Option<Tid> {
        if self.head == NIL {
            return None;
        }
        let idx = self.head;
        let s = &mut table.slots[idx as usize];
        debug_assert_eq!(s.queue, self.token, "queue head not owned by this queue");
        let tid = Tid::pack(idx, s.generation);
        self.unlink(table, idx);
        Some(tid)
    }

    /// Removes `tid` from this queue, wherever it sits. O(1). Returns
    /// whether it was a member (stale ids and members of other queues
    /// are no-ops, like the old `retain` finding nothing).
    pub fn remove(&mut self, table: &mut ThreadTable, tid: Tid) -> bool {
        let idx = tid.slot() as usize;
        let Some(s) = table.slots.get(idx) else {
            return false;
        };
        if s.generation != tid.generation() || s.queue != self.token {
            return false;
        }
        self.unlink(table, tid.slot());
        true
    }

    /// Unlinks a slot known to belong to this queue.
    fn unlink(&mut self, table: &mut ThreadTable, idx: u32) {
        let (prev, next) = {
            let s = &mut table.slots[idx as usize];
            let links = (s.prev, s.next);
            s.queue = UNQUEUED;
            s.next = NIL;
            s.prev = NIL;
            links
        };
        match prev {
            NIL => self.head = next,
            p => table.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => table.slots[n as usize].prev = prev,
        }
        self.len -= 1;
    }

    /// Iterates the queued ids head→tail (tests/telemetry; the hot path
    /// never walks).
    pub fn iter<'t>(&self, table: &'t ThreadTable) -> impl Iterator<Item = Tid> + 't {
        let mut at = self.head;
        std::iter::from_fn(move || {
            if at == NIL {
                return None;
            }
            let s = &table.slots[at as usize];
            let tid = Tid::pack(at, s.generation);
            at = s.next;
            Some(tid)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(table: &mut ThreadTable) -> Tid {
        table.insert(SimTime::from_us(10), SimTime::ZERO, SloClass::DEFAULT)
    }

    #[test]
    fn insert_resolves_and_remove_invalidates() {
        let mut tab = ThreadTable::new();
        let a = tab.insert(SimTime::from_us(7), SimTime::from_ns(3), SloClass(1));
        assert_eq!(tab.len(), 1);
        assert_eq!(tab[a].remaining, SimTime::from_us(7));
        assert_eq!(tab.meta(a).unwrap().slo, SloClass(1));
        assert!(tab.remove(a));
        assert!(tab.get(a).is_none(), "stale tid resolved");
        assert!(!tab.remove(a), "double-remove must be a no-op");
        assert!(tab.is_empty());
    }

    #[test]
    fn slot_reuse_mints_distinct_ids_and_resets_state() {
        let mut tab = ThreadTable::new();
        let a = t(&mut tab);
        tab[a].run = ThreadRun::Running(CpuId(0));
        tab.remove(a);
        let b = t(&mut tab);
        assert_eq!(a.slot(), b.slot(), "LIFO free list reuses the slot");
        assert_ne!(a, b, "generation differs");
        assert_eq!(tab[b].run, ThreadRun::Runnable, "reused slot starts fresh");
        assert!(tab.get(a).is_none());
    }

    #[test]
    fn fifo_push_pop_order() {
        let mut tab = ThreadTable::new();
        let mut q = ThreadQueue::new();
        let ids: Vec<Tid> = (0..4).map(|_| t(&mut tab)).collect();
        for &id in &ids {
            assert!(q.push_back(&mut tab, id));
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.iter(&tab).collect::<Vec<_>>(), ids);
        for &id in &ids {
            assert_eq!(q.pop_front(&mut tab), Some(id));
        }
        assert_eq!(q.pop_front(&mut tab), None);
        assert!(q.is_empty());
    }

    #[test]
    fn middle_removal_relinks() {
        let mut tab = ThreadTable::new();
        let mut q = ThreadQueue::new();
        let ids: Vec<Tid> = (0..5).map(|_| t(&mut tab)).collect();
        for &id in &ids {
            q.push_back(&mut tab, id);
        }
        assert!(q.remove(&mut tab, ids[2]));
        assert!(q.remove(&mut tab, ids[0]));
        assert!(q.remove(&mut tab, ids[4]));
        assert_eq!(q.iter(&tab).collect::<Vec<_>>(), vec![ids[1], ids[3]]);
        assert!(!q.remove(&mut tab, ids[2]), "already removed");
        assert_eq!(q.pop_front(&mut tab), Some(ids[1]));
        assert_eq!(q.pop_front(&mut tab), Some(ids[3]));
        assert_eq!(q.pop_front(&mut tab), None);
    }

    #[test]
    fn cross_queue_remove_is_rejected() {
        let mut tab = ThreadTable::new();
        let mut a = ThreadQueue::new();
        let mut b = ThreadQueue::new();
        let id = t(&mut tab);
        a.push_back(&mut tab, id);
        assert!(!b.remove(&mut tab, id), "token mismatch must be a no-op");
        assert_eq!(a.len(), 1);
        assert_eq!(a.pop_front(&mut tab), Some(id));
    }

    #[test]
    fn stale_ops_are_noops() {
        let mut tab = ThreadTable::new();
        let mut q = ThreadQueue::new();
        let id = t(&mut tab);
        tab.remove(id);
        assert!(!q.push_back(&mut tab, id), "stale enqueue rejected");
        assert!(!q.remove(&mut tab, id));
        assert!(q.is_empty());
    }

    #[test]
    fn keyed_push_reads_back_at_front() {
        let mut tab = ThreadTable::new();
        let mut q = ThreadQueue::new();
        let a = t(&mut tab);
        q.push_back_keyed(&mut tab, a, SimTime::from_us(3));
        assert_eq!(q.front(&tab), Some(a));
        assert_eq!(q.front_key(&tab), Some(SimTime::from_us(3)));
    }

    #[test]
    #[should_panic(expected = "still linked into a run queue")]
    fn retiring_a_queued_thread_panics() {
        let mut tab = ThreadTable::new();
        let mut q = ThreadQueue::new();
        let id = t(&mut tab);
        q.push_back(&mut tab, id);
        tab.remove(id);
    }
}
