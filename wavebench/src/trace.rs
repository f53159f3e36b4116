//! Outside-in tracing: wrappers that time each layer through its public
//! seam, without touching the simulator's code.
//!
//! Every wrapper forwards to the wrapped value unchanged, so a traced
//! run simulates exactly what an untraced run does; the benchmark checks
//! that by comparing the two runs' fingerprints and work counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use wave_ghost::{SchedPolicy, SloClass, ThreadMeta, ThreadTable, Tid};
use wave_sim::fleet::{Envelope, FleetHost, Outbound, Transit};
use wave_sim::SimTime;

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Calls and host time spent inside one or more policy instances.
///
/// `SchedSim` owns its policies and has no accessor for them, so the
/// decorator reports through this shared meter instead. The counters
/// only accumulate statistics, hence `Relaxed`.
#[derive(Debug, Default)]
pub struct PolicyMeter {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl PolicyMeter {
    /// Policy method calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Host nanoseconds spent inside policy methods so far.
    pub fn nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }

    /// Adds another meter's totals to this one (fleet hosts each get a
    /// meter of their own, so executor threads never share one).
    pub fn absorb(&self, other: &PolicyMeter) {
        self.calls.fetch_add(other.calls(), Ordering::Relaxed);
        self.nanos.fetch_add(other.nanos(), Ordering::Relaxed);
    }

    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.nanos.fetch_add(ns_since(t), Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        r
    }
}

/// A [`SchedPolicy`] decorator that times every call into the wrapped
/// policy, defaulted trait methods included, and otherwise forwards it
/// unchanged.
pub struct TimedPolicy {
    inner: Box<dyn SchedPolicy>,
    meter: Arc<PolicyMeter>,
}

impl TimedPolicy {
    /// Wraps `inner`, reporting into `meter`.
    pub fn boxed(inner: Box<dyn SchedPolicy>, meter: Arc<PolicyMeter>) -> Box<dyn SchedPolicy> {
        Box::new(TimedPolicy { inner, meter })
    }
}

impl SchedPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.meter.time(|| self.inner.name())
    }

    fn on_runnable(&mut self, threads: &mut ThreadTable, now: SimTime, tid: Tid, meta: ThreadMeta) {
        let inner = &mut self.inner;
        self.meter
            .time(|| inner.on_runnable(threads, now, tid, meta))
    }

    fn on_removed(&mut self, threads: &mut ThreadTable, now: SimTime, tid: Tid) {
        let inner = &mut self.inner;
        self.meter.time(|| inner.on_removed(threads, now, tid))
    }

    fn pick_next(&mut self, threads: &mut ThreadTable, now: SimTime) -> Option<Tid> {
        let inner = &mut self.inner;
        self.meter.time(|| inner.pick_next(threads, now))
    }

    fn queue_depth(&self) -> usize {
        self.meter.time(|| self.inner.queue_depth())
    }

    fn class_depths_into(&self, out: &mut Vec<(SloClass, usize)>) {
        self.meter.time(|| self.inner.class_depths_into(out))
    }

    fn class_depths(&self) -> Vec<(SloClass, usize)> {
        self.meter.time(|| self.inner.class_depths())
    }

    fn pick_class(
        &mut self,
        threads: &mut ThreadTable,
        now: SimTime,
        class: SloClass,
    ) -> Option<Tid> {
        let inner = &mut self.inner;
        self.meter.time(|| inner.pick_class(threads, now, class))
    }

    fn time_slice(&self) -> Option<SimTime> {
        self.meter.time(|| self.inner.time_slice())
    }

    fn compute_cost(&self) -> SimTime {
        self.meter.time(|| self.inner.compute_cost())
    }

    fn wants_prestaging(&self) -> bool {
        self.meter.time(|| self.inner.wants_prestaging())
    }
}

/// A fleet node wrapper that times each window's `advance`.
pub struct TimedNode<H> {
    /// The wrapped node.
    pub inner: H,
    /// Host nanoseconds spent in `advance`.
    pub nanos: u64,
}

impl<H> TimedNode<H> {
    /// Wraps `inner` with a zeroed clock.
    pub fn new(inner: H) -> Self {
        TimedNode { inner, nanos: 0 }
    }
}

impl<H: FleetHost> FleetHost for TimedNode<H> {
    type Msg = H::Msg;

    fn advance(
        &mut self,
        horizon: SimTime,
        inbox: &mut Vec<Envelope<H::Msg>>,
        outbox: &mut Vec<Outbound<H::Msg>>,
    ) -> u64 {
        let t = Instant::now();
        let events = self.inner.advance(horizon, inbox, outbox);
        self.nanos += ns_since(t);
        events
    }
}

/// A [`Transit`] wrapper that times every routing call.
pub struct TimedTransit<'a, T> {
    /// The wrapped transit model.
    pub inner: &'a mut T,
    /// Host nanoseconds spent in `deliver_at`.
    pub nanos: u64,
}

impl<M, T: Transit<M>> Transit<M> for TimedTransit<'_, T> {
    fn deliver_at(&mut self, src: u32, send: &Outbound<M>) -> SimTime {
        let t = Instant::now();
        let at = self.inner.deliver_at(src, send);
        self.nanos += ns_since(t);
        at
    }
}
