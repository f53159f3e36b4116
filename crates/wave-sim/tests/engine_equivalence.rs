//! Pop-order equivalence: the event engine vs. a reference binary heap.
//!
//! The engine's correctness contract is exact `(time, seq)` execution
//! order up to and including the horizon — two events at the same
//! instant fire in scheduling order. This suite drives the real
//! [`wave_sim::Sim`] (one heap of `{at, seq, event}` entries) and a
//! deliberately naive reference model (a heap of labelled tuples with
//! the same clamp and horizon rules) through identical random
//! interleavings of scheduling and run-to-horizon windows —
//! `set_horizon` + `run`, the way `SchedSim`'s stepper and the fleet
//! lanes drive their hosts — and asserts after every window that the
//! execution logs, the clocks and the executed-event counts are
//! identical.
//!
//! Deltas run from zero (same-instant ties) through nanoseconds to
//! milliseconds, so queues hold near and far events at once. Horizons
//! are drawn from the same deltas, so events land exactly on a horizon.
//! Fired events schedule children, some of them in the past (clamped to
//! now) while their own instant is running.

// The reference model *is* the old std-collections design; the hot-crate
// disallowed-types gate does not apply to it.
#![allow(clippy::disallowed_types)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use wave_sim::{Sim, SimTime};

/// Deltas from exact ties through nanoseconds to ten milliseconds.
const DELTAS: [u64; 12] = [
    0, 0, // double weight on exact ties
    1, 100, 127, 128, 129, 5_000, 65_535, 65_536, 65_537, 10_000_000,
];

/// SplitMix64 finaliser.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Operand stream derived deterministically from one seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = mix(self.0);
        self.0 % bound.max(1)
    }

    fn delta(&mut self) -> u64 {
        // Jitter occasionally hits arbitrary offsets.
        DELTAS[self.below(DELTAS.len() as u64) as usize] + self.below(4)
    }
}

/// The child a fired event `label` schedules at `now`, as `(at, label)`:
/// a quarter of events schedule one, half of those in the past.
fn child(label: u64, now: u64) -> Option<(u64, u64)> {
    let h = mix(label);
    let at = match h % 8 {
        0 => now + DELTAS[(h >> 8) as usize % DELTAS.len()] + (h >> 16) % 4,
        1 => now.saturating_sub((h >> 8) % 300),
        _ => return None,
    };
    Some((at, h))
}

/// Execution log: `(time_ns, label)` per fired event.
#[derive(Default)]
struct Log(Vec<(u64, u64)>);

/// The engine's events: each is a label, logged when it fires.
enum Ev {
    Label(u64),
}

fn fire(m: &mut Log, s: &mut Sim<Ev>, Ev::Label(label): Ev) {
    let now = s.now().as_ns();
    m.0.push((now, label));
    if let Some((at, label)) = child(label, now) {
        s.schedule(SimTime::from_ns(at), Ev::Label(label));
    }
}

/// The engine's contract, distilled: a max-heap of `Reverse<(time, seq,
/// label)>` with the same clamp and horizon rules. Trusted by inspection.
#[derive(Default)]
struct RefModel {
    now: u64,
    seq: u64,
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    log: Vec<(u64, u64)>,
    executed: u64,
}

impl RefModel {
    fn schedule(&mut self, at: u64, label: u64) {
        self.heap.push(Reverse((at.max(self.now), self.seq, label)));
        self.seq += 1;
    }

    /// Mirrors `Sim::run` under `horizon`: events at or before it fire;
    /// the clock stops at the horizon if an event lies beyond it.
    fn run(&mut self, horizon: u64) -> u64 {
        let start = self.executed;
        while let Some(&Reverse((at, _, label))) = self.heap.peek() {
            if at > horizon {
                self.now = horizon;
                break;
            }
            self.heap.pop();
            self.now = at;
            self.log.push((at, label));
            self.executed += 1;
            if let Some((at, label)) = child(label, at) {
                self.schedule(at, label);
            }
        }
        self.executed - start
    }
}

/// The engine under test and the reference, driven in lock-step.
#[derive(Default)]
struct Pair {
    sim: Sim<Ev>,
    log: Log,
    reference: RefModel,
    labels: u64,
}

impl Pair {
    fn schedule(&mut self, at: u64) {
        let label = self.labels;
        self.labels += 1;
        self.sim.schedule(SimTime::from_ns(at), Ev::Label(label));
        self.reference.schedule(at, label);
    }

    /// Runs both engines to `horizon` and checks they agree on
    /// everything observable.
    fn window(&mut self, horizon: u64) {
        self.sim.set_horizon(SimTime::from_ns(horizon));
        let log = &mut self.log;
        let ran = self.sim.run(|s, ev| fire(log, s, ev));
        assert_eq!(
            ran,
            self.reference.run(horizon),
            "window event count diverged"
        );
        assert_eq!(self.sim.executed(), self.reference.executed);
        assert_eq!(self.sim.now().as_ns(), self.reference.now, "clock diverged");
        assert_eq!(self.log.0, self.reference.log, "execution order diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Identical `(time, seq)` execution order, clock, and executed
    /// counts between the engine and the reference heap after every
    /// window of arbitrary schedule/run-to-horizon interleavings.
    #[test]
    fn engine_matches_reference_heap(
        ops in prop::collection::vec(0u8..10, 1..250),
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = Rng(seed);
        let mut pair = Pair::default();
        for op in ops {
            let now = pair.sim.now().as_ns();
            match op {
                // Weight scheduling heaviest: queues should be deep.
                0..=4 => pair.schedule(now + rng.delta()),
                // In the past: clamped to now.
                5 => pair.schedule(now.saturating_sub(rng.delta())),
                // Horizons share the schedule deltas, so events land
                // exactly on them.
                _ => pair.window(now + rng.delta()),
            }
        }
        pair.window(u64::MAX);
        prop_assert!(pair.reference.heap.is_empty());
    }

    /// Same-instant storms: every event at one of two times, split by a
    /// horizon at the first; late events scheduled after that window
    /// clamp onto the first instant and fire before the second.
    #[test]
    fn tie_storm_matches_reference(
        late in prop::collection::vec(prop::bool::ANY, 4..120),
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = Rng(seed);
        let mut pair = Pair::default();
        let t_a = 1_000u64;
        let t_b = 1_000_000u64;
        for phase in [false, true] {
            for _ in late.iter().filter(|&&l| l == phase) {
                pair.schedule(if rng.below(2) == 0 { t_a } else { t_b });
            }
            pair.window(if phase { u64::MAX } else { t_a });
        }
    }
}
