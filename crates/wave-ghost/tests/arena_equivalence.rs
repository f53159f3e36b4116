//! Arena/intrusive-queue equivalence: [`ThreadTable`]/[`ThreadQueue`]
//! vs. the pre-arena reference design.
//!
//! The scheduler used to keep per-thread state in a `FxHashMap<u64,
//! ThreadState>` and run queues in `VecDeque<Tid>`s; the arena replaced
//! both with a generational slab plus intrusive index-linked lists. The
//! correctness contract is exact behavioral equivalence: same queue
//! contents in the same order, same pop sequence, same no-op behavior
//! for stale ids and cross-queue removals, same metadata for every live
//! thread — under arbitrary interleavings of admit / enqueue / dequeue /
//! unlink / steal-style cross-queue pops / retire / slot-reuse.
//!
//! The suite drives the real arena and a deliberately naive reference
//! model (map + deques, trusted by inspection) through identical
//! operation streams and compares the full observable state after every
//! operation. A keyed queue (`push_back_keyed`) also checks the key
//! each thread stores at enqueue and `front_key` reads back.

// The reference model *is* the old std-collections design; the hot-crate
// disallowed-types gate does not apply to it.
#![allow(clippy::disallowed_types)]

use std::collections::{HashMap, VecDeque};

use proptest::prelude::*;
use wave_ghost::arena::{ThreadQueue, ThreadTable};
use wave_ghost::{SloClass, Tid};
use wave_sim::SimTime;

/// SplitMix64 — operand stream derived deterministically from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// The pre-arena design, distilled: per-thread state in a `HashMap`
/// keyed by the raw id, FIFO queues as `VecDeque<u64>`, the keyed
/// queue as a `VecDeque<(key, id)>`. Trusted by inspection.
#[derive(Default)]
struct RefModel {
    /// id → (remaining_ns, arrival_ns, slo).
    threads: HashMap<u64, (u64, u64, u8)>,
    /// id → owning queue index, while queued.
    queued: HashMap<u64, usize>,
    /// FIFO queues (indices 0..FIFOS).
    fifos: Vec<VecDeque<u64>>,
    /// The keyed queue: `(key_ns, id)` in arrival order.
    keyed: VecDeque<(u64, u64)>,
}

/// Number of FIFO queues each model carries; the keyed queue is the
/// extra index `FIFOS`.
const FIFOS: usize = 3;

impl RefModel {
    fn new() -> Self {
        RefModel {
            fifos: (0..FIFOS).map(|_| VecDeque::new()).collect(),
            ..Default::default()
        }
    }

    fn insert(&mut self, id: u64, remaining: u64, arrival: u64, slo: u8) {
        self.threads.insert(id, (remaining, arrival, slo));
    }

    fn retire(&mut self, id: u64) -> bool {
        assert!(!self.queued.contains_key(&id), "test drove a queued retire");
        self.threads.remove(&id).is_some()
    }

    fn push_fifo(&mut self, q: usize, id: u64) -> bool {
        if !self.threads.contains_key(&id) || self.queued.contains_key(&id) {
            return false;
        }
        self.fifos[q].push_back(id);
        self.queued.insert(id, q);
        true
    }

    fn push_keyed(&mut self, id: u64, key: u64) -> bool {
        if !self.threads.contains_key(&id) || self.queued.contains_key(&id) {
            return false;
        }
        self.keyed.push_back((key, id));
        self.queued.insert(id, FIFOS);
        true
    }

    fn pop(&mut self, q: usize) -> Option<u64> {
        let id = if q < FIFOS {
            self.fifos[q].pop_front()?
        } else {
            self.keyed.pop_front()?.1
        };
        self.queued.remove(&id);
        Some(id)
    }

    /// The old `retain`-based unlink: a member of queue `q` leaves it;
    /// anything else (stale id, different queue) is a no-op.
    fn unlink(&mut self, q: usize, id: u64) -> bool {
        if self.queued.get(&id) != Some(&q) {
            return false;
        }
        if q < FIFOS {
            self.fifos[q].retain(|&x| x != id);
        } else {
            self.keyed.retain(|&(_, x)| x != id);
        }
        self.queued.remove(&id);
        true
    }
}

/// Both models under test, plus the id pools the op stream draws from.
struct Harness {
    table: ThreadTable,
    queues: Vec<ThreadQueue>,
    refm: RefModel,
    /// Ids currently live (arena + reference agree by construction).
    live: Vec<Tid>,
    /// Ids retired at some point — stale, must stay no-ops forever.
    stale: Vec<Tid>,
}

impl Harness {
    fn new() -> Self {
        Harness {
            table: ThreadTable::new(),
            queues: (0..=FIFOS).map(|_| ThreadQueue::new()).collect(),
            refm: RefModel::new(),
            live: Vec::new(),
            stale: Vec::new(),
        }
    }

    /// Full observable-state comparison: queue order, lengths, live set,
    /// per-thread metadata.
    fn check(&self) {
        for q in 0..FIFOS {
            let got: Vec<u64> = self.queues[q].iter(&self.table).map(|t| t.0).collect();
            let want: Vec<u64> = self.refm.fifos[q].iter().copied().collect();
            assert_eq!(got, want, "fifo {q} diverged");
            assert_eq!(self.queues[q].len(), want.len());
        }
        let got: Vec<u64> = self.queues[FIFOS].iter(&self.table).map(|t| t.0).collect();
        let want: Vec<u64> = self.refm.keyed.iter().map(|&(_, id)| id).collect();
        assert_eq!(got, want, "keyed queue diverged");
        assert_eq!(
            self.queues[FIFOS].front_key(&self.table),
            self.refm.keyed.front().map(|&(k, _)| SimTime::from_ns(k)),
            "keyed queue's front key diverged"
        );
        assert_eq!(self.table.len(), self.refm.threads.len());
        for &tid in &self.live {
            let (rem, arr, slo) = self.refm.threads[&tid.0];
            let slot = self.table.get(tid).expect("live thread lost");
            assert_eq!(slot.remaining, SimTime::from_ns(rem));
            assert_eq!(slot.arrival, SimTime::from_ns(arr));
            assert_eq!(slot.slo, SloClass(slo));
            assert_eq!(
                self.table.meta(tid).map(|m| (m.arrival, m.slo)),
                Some((SimTime::from_ns(arr), SloClass(slo)))
            );
        }
        for &tid in &self.stale {
            assert!(self.table.get(tid).is_none(), "stale tid resolved");
        }
    }

    fn step(&mut self, op: u8, rng: &mut Rng) {
        match op {
            // Admit a thread.
            0 | 1 => {
                let rem = rng.next() % 50_000;
                let arr = rng.next() % 1_000_000;
                let slo = (rng.next() % 3) as u8;
                let tid =
                    self.table
                        .insert(SimTime::from_ns(rem), SimTime::from_ns(arr), SloClass(slo));
                assert!(
                    !self.refm.threads.contains_key(&tid.0),
                    "arena minted a duplicate id"
                );
                self.refm.insert(tid.0, rem, arr, slo);
                self.live.push(tid);
            }
            // Enqueue an unqueued live thread on a FIFO queue.
            2 | 3 => {
                let q = rng.below(FIFOS);
                if let Some(tid) = self.pick_unqueued(rng) {
                    assert!(self.queues[q].push_back(&mut self.table, tid));
                    assert!(self.refm.push_fifo(q, tid.0));
                }
            }
            // Enqueue on the keyed queue.
            4 => {
                let key = rng.next() % 8 * 100;
                if let Some(tid) = self.pick_unqueued(rng) {
                    assert!(self.queues[FIFOS].push_back_keyed(
                        &mut self.table,
                        tid,
                        SimTime::from_ns(key)
                    ));
                    assert!(self.refm.push_keyed(tid.0, key));
                }
            }
            // Pop any queue (a pick, or a steal when the thief drained
            // its own queue first — same operation either way).
            5 | 6 => {
                let q = rng.below(FIFOS + 1);
                let got = self.queues[q].pop_front(&mut self.table);
                let want = self.refm.pop(q);
                assert_eq!(got.map(|t| t.0), want, "pop from queue {q} diverged");
            }
            // Unlink an arbitrary live id from an arbitrary queue — the
            // Dead-message path. Wrong-queue and unqueued cases must be
            // no-ops on both sides.
            7 => {
                let q = rng.below(FIFOS + 1);
                if let Some(&tid) = pick(&self.live, rng) {
                    let got = self.queues[q].remove(&mut self.table, tid);
                    let want = self.refm.unlink(q, tid.0);
                    assert_eq!(got, want, "unlink from queue {q} diverged");
                }
            }
            // Retire an unqueued live thread; its slot may be reused by
            // a later insert (generation bump keeps the old id stale).
            8 => {
                if let Some(tid) = self.pick_unqueued(rng) {
                    assert!(self.table.remove(tid));
                    assert!(self.refm.retire(tid.0));
                    self.live.retain(|&t| t != tid);
                    self.stale.push(tid);
                }
            }
            // Stale ops: every mutation through a retired id is a no-op.
            _ => {
                if let Some(&tid) = pick(&self.stale, rng) {
                    let q = rng.below(FIFOS);
                    assert!(!self.queues[q].push_back(&mut self.table, tid));
                    assert!(!self.queues[q].remove(&mut self.table, tid));
                    assert!(!self.table.remove(tid));
                }
            }
        }
    }

    /// A random live thread that is not in any queue (enqueue and retire
    /// both require this, matching the simulation's discipline).
    fn pick_unqueued(&self, rng: &mut Rng) -> Option<Tid> {
        let start = rng.below(self.live.len().max(1));
        (0..self.live.len())
            .map(|i| self.live[(start + i) % self.live.len()])
            .find(|t| !self.refm.queued.contains_key(&t.0))
    }
}

fn pick<'a, T>(xs: &'a [T], rng: &mut Rng) -> Option<&'a T> {
    if xs.is_empty() {
        None
    } else {
        Some(&xs[rng.below(xs.len())])
    }
}

fn drive(ops: &[u8], seed: u64) {
    let mut h = Harness::new();
    let mut rng = Rng(seed);
    for &op in ops {
        h.step(op, &mut rng);
        h.check();
    }
    // Drain everything: pop order must match to the last element.
    for q in 0..=FIFOS {
        loop {
            let got = h.queues[q].pop_front(&mut h.table);
            let want = h.refm.pop(q);
            assert_eq!(got.map(|t| t.0), want);
            if got.is_none() {
                break;
            }
        }
    }
    assert_eq!(h.table.len(), h.refm.threads.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn arena_matches_map_and_deque_reference(
        ops in prop::collection::vec(0u8..10, 1..250),
        seed in 0u64..u64::MAX,
    ) {
        drive(&ops, seed);
    }

    /// Slot-reuse pressure: retire-heavy streams recycle slots
    /// constantly, so generation bumps are doing all the work.
    #[test]
    fn arena_survives_churn(
        raw in prop::collection::vec(0u8..5, 1..250),
        seed in 0u64..u64::MAX,
    ) {
        // Restrict to admit/enqueue/pop/retire/stale ops.
        let ops: Vec<u8> = raw.iter().map(|&i| [0u8, 2, 5, 8, 9][i as usize]).collect();
        drive(&ops, seed);
    }
}

/// A fixed dense interleaving as a plain regression test (runs even if
/// proptest shrinks are disabled in some environment).
#[test]
fn fixed_interleaving_regression() {
    let ops: Vec<u8> = (0..200).map(|i| (i * 7 % 10) as u8).collect();
    drive(&ops, 0xDEAD_BEEF);
}
