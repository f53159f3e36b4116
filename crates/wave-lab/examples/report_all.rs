//! Regenerates every paper table and figure in one run (quick configs)
//! and prints the paper-vs-measured reports, plus the §6 agent-scaling
//! sweep the paper only gestures at. The reports go to stdout, which is
//! the same on every run; the elapsed time goes to stderr.
//!
//! Run with: `cargo run --release -p wave-lab --example report_all`

use wave_lab::{
    fig4, fig5, fig6, fleet, mem, mem_scaling, rebalance, scaling, table2, table3, tenancy, traces,
    upi,
};

fn main() {
    let t0 = std::time::Instant::now();
    table2::report().print();
    table3::report().print();
    fig4::report(&fig4::Fig4Config::fifo_quick()).print();
    fig4::ablation_report(&fig4::Fig4Config::fifo_quick()).print();
    fig4::report(&fig4::Fig4Config::shinjuku_quick()).print();
    fig5::report(&fig5::Fig5Config::paper()).print();
    fig6::report(&fig6::Fig6Config::single_queue_quick()).print();
    fig6::report(&fig6::Fig6Config::multi_queue_quick()).print();
    upi::report(&upi::UpiConfig::quick()).print();
    mem::duration_report().print();
    mem::footprint_report(&mem::FootprintExperiment::quick()).print();
    scaling::report(&scaling::ScalingConfig::quick()).print();
    mem_scaling::report(&mem_scaling::MemScalingConfig::quick()).print();
    rebalance::report(&rebalance::RebalanceSweepConfig::quick()).print();
    traces::report(&traces::TracesConfig::quick()).print();
    tenancy::report(&tenancy::TenancyConfig::quick()).print();
    fleet::report(&fleet::FleetSweepConfig::quick()).print();
    eprintln!("\nall experiments regenerated in {:.1?}", t0.elapsed());
}
