//! Thread-lifecycle messages from the host kernel to the agent.
//!
//! ghOSt's kernel scheduling class emits a message for every scheduling-
//! relevant thread event; the agent consumes them to maintain its run
//! queues. Wave keeps exactly this message stream, shipped over the
//! host→NIC message queue.

/// Kernel thread identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tid(pub u64);

/// Host CPU (worker core) identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CpuId(pub u32);

/// What happened to a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedMsgKind {
    /// The thread became runnable (a new request).
    Wakeup,
    /// The thread was preempted by the kernel and remains runnable.
    Preempted,
    /// The thread exited.
    Dead,
}

/// One kernel→agent message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedMsg {
    /// Which thread.
    pub tid: Tid,
    /// What happened.
    pub kind: SchedMsgKind,
    /// The CPU on which the event occurred (`None` for events raised off
    /// the worker cores, e.g. arrivals from the load generator).
    pub cpu: Option<CpuId>,
}

impl SchedMsg {
    /// Convenience constructor.
    pub fn new(tid: Tid, kind: SchedMsgKind, cpu: Option<CpuId>) -> Self {
        SchedMsg { tid, kind, cpu }
    }

    /// Whether this message makes the thread schedulable.
    pub fn makes_runnable(&self) -> bool {
        matches!(self.kind, SchedMsgKind::Wakeup | SchedMsgKind::Preempted)
    }

    /// Whether this message removes the thread from scheduling.
    pub fn removes_thread(&self) -> bool {
        self.kind == SchedMsgKind::Dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runnability_classification() {
        let wake = SchedMsg::new(Tid(1), SchedMsgKind::Wakeup, None);
        assert!(wake.makes_runnable());
        assert!(!wake.removes_thread());
        let dead = SchedMsg::new(Tid(1), SchedMsgKind::Dead, Some(CpuId(3)));
        assert!(dead.removes_thread());
        assert!(!dead.makes_runnable());
        let preempted = SchedMsg::new(Tid(2), SchedMsgKind::Preempted, Some(CpuId(0)));
        assert!(preempted.makes_runnable());
    }
}
