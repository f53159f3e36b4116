//! Cross-crate integration test: the synthetic production-trace
//! generator of the streaming workload layer, driven end to end through
//! the `wave` façade's scheduler.

use wave::core::workload::{SyntheticConfig, WorkloadSpec};
use wave::core::OptLevel;
use wave::ghost::policies::FifoPolicy;
use wave::ghost::sim::{Placement, SchedConfig, SchedSim};
use wave::sim::SimTime;

#[test]
fn synthetic_trace_is_deterministic_through_the_facade() {
    let mut cfg = SyntheticConfig::diurnal_bursty();
    cfg.base_rate = 80_000.0;
    cfg.diurnal_period = SimTime::from_ms(100);
    let mut c = SchedConfig::new(8, Placement::Offloaded, OptLevel::full());
    c.workload = WorkloadSpec::synthetic(cfg);
    c.duration = SimTime::from_ms(120);
    c.warmup = SimTime::from_ms(20);
    let a = SchedSim::new(c.clone(), Box::new(FifoPolicy::new())).run();
    let b = SchedSim::new(c, Box::new(FifoPolicy::new())).run();
    assert!(a.completed > 1_000, "completed {}", a.completed);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.latency.p99, b.latency.p99);
}
