//! Smoke tests over the four `examples/` main paths.
//!
//! Each example exposes its body as `pub fn run()`; the files are included
//! here via `#[path]` so the exact code that `cargo run --example` executes
//! is what the test suite drives (their `fn main` entry points are unused in
//! this harness, hence the `dead_code` allow).

#![allow(dead_code)]

use wave::core::OptLevel;
use wave::ghost::Placement;
use wave::lab::table3;

#[path = "../examples/memory_tiering.rs"]
mod memory_tiering;
#[path = "../examples/offloaded_scheduler.rs"]
mod offloaded_scheduler;
#[path = "../examples/quickstart.rs"]
mod quickstart;
#[path = "../examples/rpc_steering.rs"]
mod rpc_steering;

#[test]
fn quickstart_runs() {
    // The quickstart's MSI-X round trip is the agent-and-link part of
    // Table 3's "+host WC/WT PTEs" row, which adds the kernel event,
    // commit and switch legs on top; it must come in under that row.
    let total = quickstart::run();
    let (row, _) = table3::context_switch(Placement::Offloaded, OptLevel::host_pte());
    assert!(total < row, "quickstart {total} vs Table 3 row {row}");
}

#[test]
fn offloaded_scheduler_runs() {
    offloaded_scheduler::run();
}

#[test]
fn memory_tiering_runs() {
    memory_tiering::run();
}

#[test]
fn rpc_steering_runs() {
    rpc_steering::run();
}
