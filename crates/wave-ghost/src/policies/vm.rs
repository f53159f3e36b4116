//! The GCE virtual-machine scheduling policy (§7.2.4).

use wave_sim::SimTime;

use crate::arena::{ThreadQueue, ThreadTable};
use crate::msg::Tid;
use crate::policy::{SchedPolicy, ThreadMeta};

/// Tableau-inspired VM scheduling: FIFO round-robin with 7.5 ms slices.
///
/// "vCPUs run for a time quantum ranging from 5-10 ms but can be
/// preempted at 1-ms granularity. This fine-grained control ensures
/// fairness as vCPUs may consume varying amounts of CPU time within
/// their assigned quantum."
///
/// A runnable vCPU joins the tail of one FIFO run queue and runs for at
/// most one slice; a vCPU whose slice expires queues behind every vCPU
/// already waiting, so equal slices share the cores round-robin. Because
/// decisions are needed only every few milliseconds, the paper's
/// offloaded variant disables both prestaging and prefetching — and,
/// crucially, disables host timer ticks (Fig. 5's effect).
#[derive(Debug)]
pub struct VmPolicy {
    /// Runnable vCPUs in arrival order.
    queue: ThreadQueue,
    quantum: SimTime,
}

impl VmPolicy {
    /// Creates the policy with the given quantum.
    ///
    /// # Panics
    ///
    /// Panics if the quantum is zero.
    pub fn new(quantum: SimTime) -> Self {
        assert!(quantum > SimTime::ZERO, "quantum must be positive");
        VmPolicy {
            queue: ThreadQueue::new(),
            quantum,
        }
    }

    /// The paper's configuration: quanta in the 5–10 ms range; we use the
    /// midpoint 7.5 ms as the time slice. A running vCPU is preempted
    /// only when that slice expires, and then queues behind the waiting
    /// vCPUs; nothing preempts it at the paper's 1 ms granularity.
    pub fn paper_default() -> Self {
        Self::new(SimTime::from_us(7_500))
    }
}

impl SchedPolicy for VmPolicy {
    fn name(&self) -> &'static str {
        "vm-tableau"
    }

    fn on_runnable(&mut self, threads: &mut ThreadTable, _now: SimTime, tid: Tid, _m: ThreadMeta) {
        self.queue.push_back(threads, tid);
    }

    fn on_removed(&mut self, threads: &mut ThreadTable, _now: SimTime, tid: Tid) {
        self.queue.remove(threads, tid);
    }

    fn pick_next(&mut self, threads: &mut ThreadTable, _now: SimTime) -> Option<Tid> {
        self.queue.pop_front(threads)
    }

    fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    fn time_slice(&self) -> Option<SimTime> {
        Some(self.quantum)
    }

    fn compute_cost(&self) -> SimTime {
        SimTime::from_ns(300)
    }

    /// ms-scale decisions do not benefit from prestaging (§7.2.4: "as
    /// VMs are scheduled at ms-granularity, neither policy uses
    /// prestaging").
    fn wants_prestaging(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::SloClass;

    fn vcpu(table: &mut ThreadTable) -> Tid {
        table.insert(SimTime::from_ms(100), SimTime::ZERO, SloClass::DEFAULT)
    }

    #[test]
    fn runnable_vcpus_run_in_fifo_order() {
        let mut table = ThreadTable::new();
        let mut p = VmPolicy::paper_default();
        let a = vcpu(&mut table);
        let b = vcpu(&mut table);
        p.on_runnable(&mut table, SimTime::ZERO, a, ThreadMeta::at(SimTime::ZERO));
        p.on_runnable(&mut table, SimTime::ZERO, b, ThreadMeta::at(SimTime::ZERO));
        assert_eq!(p.pick_next(&mut table, SimTime::ZERO), Some(a));
        // `a`'s slice expires: it queues behind `b`.
        p.on_runnable(&mut table, SimTime::ZERO, a, ThreadMeta::at(SimTime::ZERO));
        assert_eq!(p.pick_next(&mut table, SimTime::ZERO), Some(b));
        assert_eq!(p.pick_next(&mut table, SimTime::ZERO), Some(a));
    }

    #[test]
    fn quantum_is_ms_scale() {
        let p = VmPolicy::paper_default();
        let q = p.time_slice().unwrap();
        assert!(q >= SimTime::from_ms(5) && q <= SimTime::from_ms(10));
        assert!(!p.wants_prestaging());
    }

    #[test]
    fn fairness_over_rounds() {
        let mut table = ThreadTable::new();
        let mut p = VmPolicy::paper_default();
        let x = vcpu(&mut table);
        let y = vcpu(&mut table);
        // Two vCPUs alternate: each round runs both.
        for round in 0..10 {
            p.on_runnable(&mut table, SimTime::ZERO, x, ThreadMeta::at(SimTime::ZERO));
            p.on_runnable(&mut table, SimTime::ZERO, y, ThreadMeta::at(SimTime::ZERO));
            let a = p.pick_next(&mut table, SimTime::ZERO).unwrap();
            let b = p.pick_next(&mut table, SimTime::ZERO).unwrap();
            assert_ne!(a, b, "round {round}");
        }
    }

    #[test]
    fn exited_vcpu_is_not_enqueued() {
        let mut table = ThreadTable::new();
        let mut p = VmPolicy::paper_default();
        let a = vcpu(&mut table);
        table.remove(a);
        p.on_runnable(&mut table, SimTime::ZERO, a, ThreadMeta::at(SimTime::ZERO));
        assert_eq!(p.queue_depth(), 0, "stale vCPU must not enqueue");
    }
}
