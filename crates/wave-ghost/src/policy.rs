//! The scheduling-policy interface agents run.
//!
//! A policy is pure decision logic: it consumes runnability updates and
//! produces "run thread T next" picks. All communication, staging, and
//! commit machinery lives outside the policy, which is exactly what makes
//! ghOSt policies portable between host userspace and the SmartNIC
//! (§4.1: "the communication patterns are the same as in ghOSt").

use wave_sim::SimTime;

use crate::arena::ThreadTable;
use crate::msg::Tid;

// The SLO class lives with the workload types it annotates.
pub use wave_core::workload::SloClass;

/// Scheduler-relevant metadata about a thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadMeta {
    /// When the underlying request arrived (for queueing-delay-aware
    /// policies).
    pub arrival: SimTime,
    /// SLO class, if the workload carries one.
    pub slo: SloClass,
}

impl ThreadMeta {
    /// Metadata with only an arrival time.
    pub fn at(arrival: SimTime) -> Self {
        ThreadMeta {
            arrival,
            slo: SloClass::DEFAULT,
        }
    }
}

/// A scheduling policy, as run inside a Wave agent.
///
/// Implementations must be deterministic: the experiment harness relies
/// on replayability.
///
/// Run queues are **intrusive**: they are linked through the
/// [`ThreadTable`] arena rows ([`crate::arena::ThreadQueue`]), so every
/// queue-touching method takes the table. The table is shared state the
/// simulation owns; a policy may only link/unlink threads through its
/// own queues and read the rows' scheduling fields.
///
/// Policies must be `Send`: the fleet executor migrates whole hosts —
/// policy instances included — across its worker threads between
/// windows (each host is still only ever touched by one thread at a
/// time).
pub trait SchedPolicy: Send {
    /// Human-readable policy name (for reports).
    fn name(&self) -> &'static str;

    /// A thread became runnable (created, woke, or was preempted).
    fn on_runnable(&mut self, threads: &mut ThreadTable, now: SimTime, tid: Tid, meta: ThreadMeta);

    /// A thread blocked or died; forget it.
    fn on_removed(&mut self, threads: &mut ThreadTable, now: SimTime, tid: Tid);

    /// Picks the next thread to run, removing it from the run queue.
    fn pick_next(&mut self, threads: &mut ThreadTable, now: SimTime) -> Option<Tid>;

    /// Number of runnable-but-unscheduled threads.
    fn queue_depth(&self) -> usize;

    /// Appends the per-SLO-class backlog to `out`, in ascending
    /// class-id order (the convention is that lower class ids carry
    /// tighter SLOs, as in [`MultiQueueShinjuku::paper_default`]).
    /// Single-queue policies report their whole depth under
    /// [`SloClass::DEFAULT`]. This is the allocation-free primitive
    /// the steal hot path drives with a reused scratch buffer;
    /// override it, not [`SchedPolicy::class_depths`].
    ///
    /// [`MultiQueueShinjuku::paper_default`]: crate::policies::MultiQueueShinjuku::paper_default
    fn class_depths_into(&self, out: &mut Vec<(SloClass, usize)>) {
        out.push((SloClass::DEFAULT, self.queue_depth()));
    }

    /// Convenience wrapper over [`SchedPolicy::class_depths_into`]
    /// returning a fresh list (tests, telemetry).
    fn class_depths(&self) -> Vec<(SloClass, usize)> {
        let mut out = Vec::new();
        self.class_depths_into(&mut out);
        out
    }

    /// Picks the next thread of `class`, removing it from the run
    /// queue — the class-aware steal entry point. Policies without
    /// per-class queues ignore the class and behave like
    /// [`SchedPolicy::pick_next`].
    fn pick_class(
        &mut self,
        threads: &mut ThreadTable,
        now: SimTime,
        _class: SloClass,
    ) -> Option<Tid> {
        self.pick_next(threads, now)
    }

    /// The preemption time slice, or `None` for run-to-completion.
    /// Read once when the simulation is built; must be constant.
    fn time_slice(&self) -> Option<SimTime> {
        None
    }

    /// Host-reference CPU cost of one policy invocation (scaled by the
    /// agent's core class). Simple queue policies are cheap; ML policies
    /// are not. Read once when the simulation is built; must be
    /// constant.
    fn compute_cost(&self) -> SimTime {
        SimTime::from_ns(150)
    }

    /// Whether the policy wants to eagerly prestage decisions when the
    /// run queue is deep (§5.4 "the scheduler eagerly prestages decisions
    /// when the run queue length is sufficiently deep"). Read once when
    /// the simulation is built; must be constant.
    fn wants_prestaging(&self) -> bool {
        true
    }
}

/// Class-aware steal victim selection: the sibling shard and SLO class
/// an idle thief should pull from.
///
/// The pre-rebalance steal pulled from the sibling with the deepest
/// *raw* run queue, which lets a throughput-class flood (5 ms SLO, deep
/// by design) permanently outbid a latency-class backlog two slots
/// deep. This selection is per class instead: classes are served in
/// ascending class-id order (tighter SLO first, by the
/// [`SchedPolicy::class_depths`] convention), and only *within* a class
/// does depth pick the victim shard (lowest shard index on ties). For
/// single-class policies this degenerates to exactly the old
/// deepest-sibling rule.
///
/// `scratch` is a caller-owned buffer reused across siblings *and*
/// calls — the steal path runs on every idle pump at load, so it must
/// not allocate.
pub fn steal_victim<'a>(
    policies: impl IntoIterator<Item = &'a dyn SchedPolicy>,
    thief: usize,
    scratch: &mut Vec<(SloClass, usize)>,
) -> Option<(usize, SloClass)> {
    let mut best: Option<(usize, SloClass, usize)> = None;
    let depths = scratch;
    for (j, p) in policies.into_iter().enumerate() {
        if j == thief {
            continue;
        }
        depths.clear();
        p.class_depths_into(depths);
        for &(class, depth) in depths.iter() {
            if depth == 0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((_, bc, bd)) => class < bc || (class == bc && depth > bd),
            };
            if better {
                best = Some((j, class, depth));
            }
        }
    }
    best.map(|(j, class, _)| (j, class))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Admits a fresh 10 µs thread with the given SLO class.
    fn admit(table: &mut ThreadTable, slo: SloClass) -> Tid {
        table.insert(SimTime::from_us(10), SimTime::ZERO, slo)
    }

    #[test]
    fn meta_default_slo() {
        let m = ThreadMeta::at(SimTime::from_us(5));
        assert_eq!(m.slo, SloClass::DEFAULT);
        assert_eq!(m.arrival, SimTime::from_us(5));
    }

    #[test]
    fn steal_victim_single_class_is_deepest_sibling() {
        use crate::policies::FifoPolicy;
        let mut table = ThreadTable::new();
        let mut scratch = Vec::new();
        let mut a = FifoPolicy::new();
        let mut b = FifoPolicy::new();
        for _ in 0..3 {
            let t = admit(&mut table, SloClass::DEFAULT);
            a.on_runnable(&mut table, SimTime::ZERO, t, ThreadMeta::at(SimTime::ZERO));
        }
        for _ in 0..5 {
            let t = admit(&mut table, SloClass::DEFAULT);
            b.on_runnable(&mut table, SimTime::ZERO, t, ThreadMeta::at(SimTime::ZERO));
        }
        let empty = FifoPolicy::new();
        let views: Vec<&dyn SchedPolicy> = vec![&empty, &a, &b];
        // Thief 0: shard 2 is deepest; everything is the default class.
        assert_eq!(
            steal_victim(views.iter().copied(), 0, &mut scratch),
            Some((2, SloClass::DEFAULT))
        );
        // No sibling backlog at all: no victim.
        let e2 = FifoPolicy::new();
        let views: Vec<&dyn SchedPolicy> = vec![&empty, &e2];
        assert_eq!(steal_victim(views.iter().copied(), 0, &mut scratch), None);
    }

    #[test]
    fn steal_victim_latency_class_not_starved_by_throughput_depth() {
        use crate::policies::MultiQueueShinjuku;
        // Victim 1 holds a 100-deep *throughput*-class (class 1) flood;
        // victim 2 holds two *latency*-class (class 0) threads. The old
        // deepest-raw-queue rule would pick shard 1 forever; the
        // class-aware rule must serve the latency backlog first.
        let mut table = ThreadTable::new();
        let mut scratch = Vec::new();
        let mut flood = MultiQueueShinjuku::paper_default();
        for _ in 0..100 {
            let t = admit(&mut table, SloClass(1));
            let meta = table.meta(t).unwrap();
            flood.on_runnable(&mut table, SimTime::ZERO, t, meta);
        }
        let mut latency = MultiQueueShinjuku::paper_default();
        for _ in 0..2 {
            let t = admit(&mut table, SloClass(0));
            let meta = table.meta(t).unwrap();
            latency.on_runnable(&mut table, SimTime::ZERO, t, meta);
        }
        let thief = MultiQueueShinjuku::paper_default();
        let views: Vec<&dyn SchedPolicy> = vec![&thief, &flood, &latency];
        assert_eq!(
            steal_victim(views.iter().copied(), 0, &mut scratch),
            Some((2, SloClass(0)))
        );
        // Within one class, depth still picks the shard: once the
        // latency backlog drains, the flood is next.
        let drained = MultiQueueShinjuku::paper_default();
        let views: Vec<&dyn SchedPolicy> = vec![&thief, &flood, &drained];
        assert_eq!(
            steal_victim(views.iter().copied(), 0, &mut scratch),
            Some((1, SloClass(1)))
        );
    }
}
