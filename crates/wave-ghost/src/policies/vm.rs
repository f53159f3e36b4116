//! The GCE virtual-machine scheduling policy (§7.2.4).

use wave_sim::SimTime;

use crate::arena::{ThreadQueue, ThreadTable};
use crate::msg::Tid;
use crate::policy::{SchedPolicy, ThreadMeta};

/// Tableau-inspired VM scheduling: fair sharing with bounded tail
/// latency.
///
/// "vCPUs run for a time quantum ranging from 5-10 ms but can be
/// preempted at 1-ms granularity. This fine-grained control ensures
/// fairness as vCPUs may consume varying amounts of CPU time within
/// their assigned quantum."
///
/// The policy always runs the vCPU with the least accumulated CPU time
/// (a deficit round-robin approximation of Tableau's table-driven plan).
/// The accumulated runtime lives in the vCPU's [`ThreadTable`] arena row
/// (`vruntime`) — the run queue is an intrusive list ordered by a
/// runtime snapshot taken at enqueue, so the account/on_runnable path
/// touches only the row the event is about. Because decisions are
/// needed only every few milliseconds, the paper's offloaded variant
/// disables both prestaging and prefetching — and, crucially, disables
/// host timer ticks (Fig. 5's effect).
#[derive(Debug)]
pub struct VmPolicy {
    /// Runnable vCPUs ordered by accumulated runtime (smallest first;
    /// ties keep insertion order).
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
    /// only when that slice expires, and then queues behind the vCPUs
    /// with less accounted runtime; nothing preempts it at the paper's
    /// 1 ms granularity.
    pub fn paper_default() -> Self {
        Self::new(SimTime::from_us(7_500))
    }

    /// Records `ran` of CPU time for a vCPU (called by the enforcement
    /// layer after a quantum ends). A stale id is a no-op — the vCPU
    /// already exited.
    pub fn account(&mut self, threads: &mut ThreadTable, tid: Tid, ran: SimTime) {
        if let Some(s) = threads.get_mut(tid) {
            s.vruntime += ran;
        }
    }
}

impl SchedPolicy for VmPolicy {
    fn name(&self) -> &'static str {
        "vm-tableau"
    }

    fn on_runnable(&mut self, threads: &mut ThreadTable, _now: SimTime, tid: Tid, _m: ThreadMeta) {
        let Some(rt) = threads.get(tid).map(|s| s.vruntime) else {
            return;
        };
        // Insert ordered by accumulated runtime: least-run first.
        self.queue.insert_by_key(threads, tid, rt);
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
    fn least_runtime_first() {
        let mut table = ThreadTable::new();
        let mut p = VmPolicy::paper_default();
        let a = vcpu(&mut table);
        let b = vcpu(&mut table);
        p.account(&mut table, a, SimTime::from_ms(10));
        p.account(&mut table, b, SimTime::from_ms(2));
        p.on_runnable(&mut table, SimTime::ZERO, a, ThreadMeta::at(SimTime::ZERO));
        p.on_runnable(&mut table, SimTime::ZERO, b, ThreadMeta::at(SimTime::ZERO));
        assert_eq!(
            p.pick_next(&mut table, SimTime::ZERO),
            Some(b),
            "least-run vCPU first"
        );
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
        // Two vCPUs alternate; accumulated runtimes stay balanced.
        for round in 0..10 {
            p.on_runnable(&mut table, SimTime::ZERO, x, ThreadMeta::at(SimTime::ZERO));
            p.on_runnable(&mut table, SimTime::ZERO, y, ThreadMeta::at(SimTime::ZERO));
            let a = p.pick_next(&mut table, SimTime::ZERO).unwrap();
            let b = p.pick_next(&mut table, SimTime::ZERO).unwrap();
            assert_ne!(a, b, "round {round}");
            p.account(&mut table, a, SimTime::from_ms(7));
            p.account(&mut table, b, SimTime::from_ms(7));
        }
    }

    #[test]
    fn exited_vcpu_account_is_noop() {
        let mut table = ThreadTable::new();
        let mut p = VmPolicy::paper_default();
        let a = vcpu(&mut table);
        table.remove(a);
        p.account(&mut table, a, SimTime::from_ms(1));
        p.on_runnable(&mut table, SimTime::ZERO, a, ThreadMeta::at(SimTime::ZERO));
        assert_eq!(p.queue_depth(), 0, "stale vCPU must not enqueue");
    }
}
