//! Allocation audit under a counting global allocator: steady-state
//! event scheduling must not hit the global allocator (the engine reuses
//! its event heap's buffer), the scheduler model's agent
//! pump must stay allocation-lean (a reused drain buffer, arena thread
//! table, intrusive run queues), a warmed-up
//! memory-agent iteration allocates only its return values (reused
//! poll and shipment buffers, in-place due filter and scan), and the
//! memory agent's peak live heap stays within a per-batch byte budget.
//!
//! The counting allocator sees every thread in this test binary, so the
//! five audits run in sequence inside ONE `#[test]`; a second test
//! running concurrently would leak its allocations into the counts.
//! Run with `cargo test --release --test alloc_audit -- --nocapture` to
//! see the measured counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use wave::core::OptLevel;
use wave::ghost::policies::FifoPolicy;
use wave::ghost::sim::{Placement, SchedConfig, SchedSim};
use wave::kvstore::{AccessPattern, DbFootprint, FootprintConfig};
use wave::memmgr::{RunnerConfig, ShardedSolRunner, SolConfig};
use wave::sim::cpu::{CoreClass, CpuModel};
use wave::sim::{Sim, SimTime};

/// Counts every global-allocator hit (alloc + realloc) and tracks the
/// live heap bytes and their peak.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s implementation upholds the `GlobalAlloc`
// contract; the counters are statistics and touch no allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `alloc` preconditions pass through as is.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from `System` via this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` came from `System` via this allocator, and
        // the caller guarantees `new_size` is valid for `layout.align()`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grow(more),
                None => shrink(layout.size() - new_size),
            }
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Steady-state engine scheduling allocates (nearly) nothing: after a
/// warm-up rotation sizes the event heap, a sustained rearm-and-fire load
/// must run from recycled memory.
fn audit_engine_steady_state() {
    /// One self-rearming timer.
    struct Tick;
    fn tick(m: &mut u64, s: &mut Sim<Tick>) {
        *m += 1;
        // Mixed horizons: most rearms land 640 ns ahead, every 16th
        // 400 µs ahead, so near and far events share the heap.
        let delta = if m.is_multiple_of(16) { 400_000 } else { 640 };
        s.schedule(s.now() + SimTime::from_ns(delta), Tick);
    }
    let mut sim: Sim<Tick> = Sim::new();
    for i in 0..1024u64 {
        sim.schedule(SimTime::from_ns(i * 10), Tick);
    }
    let mut m = 0u64;
    sim.set_horizon(SimTime::from_ms(4));
    sim.run(|s, Tick| tick(&mut m, s)); // Warm-up: the heap sizes itself.
    let before = allocs();
    sim.set_horizon(SimTime::from_ms(10));
    let executed = sim.run(|s, Tick| tick(&mut m, s));
    let during = allocs() - before;
    assert!(executed > 100_000, "audit underpowered: {executed} events");
    // A constant event population reuses the heap's buffer, so this
    // measures 0; boxing each event would cost at least 1 allocation per
    // event.
    assert!(
        during * 10_000 <= executed,
        "engine steady state hit the allocator: {during} allocations \
         over {executed} events (budget: 1 per 10,000 events)"
    );
    println!("alloc-audit des_engine_steady_state: {during} allocs / {executed} events");
}

/// The scheduler model's hot loop (arrivals, agent pumps, IRQ kicks)
/// stays allocation-lean per simulated event: the pump drains into a
/// reused buffer and schedules each kick directly, no `Vec` per pump.
/// Histograms, queues, that buffer and the event heap still grow while
/// the run warms up (36 allocations over 132,353 events), so the budget
/// is 1 per 1,000 events; a per-pump allocation would blow well past it.
fn audit_sched_sim_pump() {
    let mut sc = SchedConfig::new(16, Placement::Offloaded, OptLevel::full());
    sc.duration = SimTime::from_ms(40);
    sc.warmup = SimTime::from_ms(5);
    sc.workload.set_offered(16.0 * 100_000.0 * 1.2);
    let sim = SchedSim::new(sc, Box::new(FifoPolicy::new()));
    let before = allocs();
    let report = sim.run();
    let during = allocs() - before;
    let events = report.events_executed;
    assert!(events > 50_000, "audit underpowered: {events} events");
    assert!(
        during * 1_000 <= events,
        "agent pump allocating per event: {during} allocations over \
         {events} events (budget: 1 per 1,000 events)"
    );
    println!("alloc-audit sched_sim_pump: {during} allocs / {events} events");
}

/// Steady-state SchedSim is allocation-free per event: differential
/// audit. One short and one long run share every config knob, so their
/// warm-up allocations (thread-table slab growth, histograms, queue
/// rings, scratch buffers reaching high-water marks) are identical and
/// cancel when subtracted. What remains is the per-event steady-state
/// allocation rate over the extra simulated window — with the arena
/// thread table and intrusive run queues it must be (essentially) zero.
fn audit_sched_sim_steady_state() {
    fn run(ms: u64) -> (u64, u64) {
        let mut sc = SchedConfig::new(16, Placement::Offloaded, OptLevel::full());
        sc.duration = SimTime::from_ms(ms);
        sc.warmup = SimTime::from_ms(5);
        sc.workload.set_offered(16.0 * 100_000.0 * 1.2);
        let sim = SchedSim::new(sc, Box::new(FifoPolicy::new()));
        let before = allocs();
        let report = sim.run();
        (allocs() - before, report.events_executed)
    }
    // Both runs are past every capacity high-water mark (the outstanding
    // cap binds ~62 ms in; 100 ms is safely beyond it).
    let (short_allocs, short_events) = run(100);
    let (long_allocs, long_events) = run(400);
    let d_allocs = long_allocs.saturating_sub(short_allocs);
    let d_events = long_events - short_events;
    assert!(d_events > 500_000, "audit underpowered: {d_events} events");
    assert!(
        d_allocs * 10_000 <= d_events,
        "sched sim steady state hit the allocator: {d_allocs} allocations \
         over {d_events} marginal events (budget: 1 per 10,000 events)"
    );
    println!("alloc-audit sched_sim_steady_state: {d_allocs} allocs / {d_events} marginal events");
}

/// A warmed-up memory-agent iteration allocates only what it returns:
/// the host leg streams the due filter into the PTE queue, the agent
/// scans straight off its reused poll buffer, and the ship leg drains
/// the slots into the reused shipment buffer. One shard (K=1) runs on
/// this thread, so no thread spawn lands in the count. What remains is
/// the result vector and the `per_shard` cost vector that
/// `run_iteration` returns: 2 per iteration, against a budget of 3. A
/// per-iteration copy of the due list would cost several more.
fn audit_mem_agent_iteration() {
    let fp = DbFootprint::new(
        FootprintConfig::skewed(0.01, 0.5),
        AccessPattern::Scattered,
        42,
    );
    let mut runner = ShardedSolRunner::new(
        RunnerConfig::paper(CoreClass::NicArm, 16),
        CpuModel::mount_evans(),
        1,
        SolConfig::paper(),
        fp.batches(),
        42,
    );
    let at = |it: u64| SimTime::from_ms(600 * it);
    // Warm-up: every batch is due at t=0, so the buffers reach their
    // high-water marks here.
    for it in 0..4 {
        runner.run_iteration(&fp, at(it));
    }
    const ITERATIONS: u64 = 36;
    let before = allocs();
    let mut scanned = 0;
    for it in 4..4 + ITERATIONS {
        scanned += runner.run_iteration(&fp, at(it)).0.scanned;
    }
    let during = allocs() - before;
    assert!(
        scanned > ITERATIONS * 1_000,
        "audit underpowered: {scanned} scans"
    );
    assert!(
        during <= 3 * ITERATIONS,
        "memory agent allocating per iteration: {during} allocations \
         over {ITERATIONS} iterations (budget: 3 per iteration)"
    );
    println!("alloc-audit mem_agent_iteration: {during} allocs / {ITERATIONS} iterations, {scanned} scans");
}

/// The memory agent's heap grows with the batches it manages, not with
/// the transport: a policy row per batch plus buffers bounded by one
/// iteration's due batches and flips. One shard (K=1) runs on this
/// thread, from just before it is built through 8 iterations, 600 ms
/// apart (all batches are due at t=0). The budget is 96 bytes per
/// batch; a table or timestamp vector sized to the batch space (16 or
/// 8 bytes a batch) on top of the buffers breaks it.
fn audit_mem_agent_heap() {
    let fp = DbFootprint::new(
        FootprintConfig::skewed(0.01, 0.5),
        AccessPattern::Scattered,
        42,
    );
    let batches = fp.batches() as u64;
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let mut runner = ShardedSolRunner::new(
        RunnerConfig::paper(CoreClass::NicArm, 16),
        CpuModel::mount_evans(),
        1,
        SolConfig::paper(),
        fp.batches(),
        42,
    );
    for it in 0..8 {
        runner.run_iteration(&fp, SimTime::from_ms(600 * it));
    }
    let peak = PEAK.load(Ordering::Relaxed) - base;
    let live = LIVE.load(Ordering::Relaxed) - base;
    drop(runner);
    assert!(
        peak <= 96 * batches,
        "memory agent heap peaked at {peak} bytes for {batches} batches \
         ({:.1} per batch, budget: 96)",
        peak as f64 / batches as f64
    );
    println!(
        "alloc-audit mem_agent_heap: peak {:.1} B/batch, live {:.1} B/batch over {batches} batches",
        peak as f64 / batches as f64,
        live as f64 / batches as f64
    );
}

#[test]
fn hot_loops_stay_within_allocation_budgets() {
    audit_engine_steady_state();
    audit_sched_sim_pump();
    audit_sched_sim_steady_state();
    audit_mem_agent_iteration();
    audit_mem_agent_heap();
}
