//! RPC steering: why the paper co-locates the RPC stack with the
//! scheduler on the SmartNIC (S7.3).
//!
//! Compares RSS hashing against agent idle-first steering, then runs one
//! load point of each Fig. 6 deployment scenario.
//!
//! Run with: `cargo run --release --example rpc_steering`

use wave::ghost::policies::ShinjukuPolicy;
use wave::ghost::sim::SchedSim;
use wave::rpc::{AgentSteering, Fig6Scenario, RpcHeader, RssSteering, SchedulerKind, Steering};
use wave::sim::SimTime;

/// Runs the example end to end (also exercised by `tests/examples_smoke.rs`).
pub fn run() {
    // Part 1: steering policies in isolation. Four workers, three busy.
    let busy = vec![true, true, false, true];
    let header = RpcHeader {
        id: 1,
        flow: 99,
        payload_len: 64,
        slo: 0,
        method: 0,
    };
    let mut rss = RssSteering::new();
    let mut agent = AgentSteering::new();
    println!("steering an RPC with workers busy={busy:?}:");
    println!(
        "  RSS (hash of flow)  -> core {}",
        rss.steer(&header, &busy)
    );
    println!(
        "  agent (idle-first)  -> core {}\n",
        agent.steer(&header, &busy)
    );

    // Part 2: one load point per deployment scenario.
    println!("bimodal RocksDB RPCs at 100k req/s, single-queue Shinjuku:\n");
    for scenario in [
        Fig6Scenario::OnHostAll,
        Fig6Scenario::OnHostSchedule,
        Fig6Scenario::OffloadAll,
    ] {
        let mut cfg = scenario.sched_config(SchedulerKind::SingleQueue);
        cfg.duration = SimTime::from_ms(300);
        cfg.warmup = SimTime::from_ms(50);
        let rep = SchedSim::new(cfg, Box::new(ShinjukuPolicy::paper_default())).run();
        println!(
            "{:<28} host cores {:>2}   achieved {:>7.0} req/s   p99 {:>9}",
            scenario.label(),
            scenario.host_cores_used(),
            rep.achieved,
            rep.latency.p99.to_string(),
        );
    }
    println!("\nOffload-All serves the same load with 8 fewer host cores (paper: recovers 9 at equal worker count).");
}

fn main() {
    run();
}
