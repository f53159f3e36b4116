//! The benchmark's smoke test: every workload at a tiny size, untraced
//! and traced, must pass its output checks and agree with itself.
//!
//! ```text
//! cargo test --release --manifest-path wavebench/Cargo.toml
//! ```

use super::*;

const WORKLOADS: [&str; 4] = ["sched_trace", "fleet_w1", "fleet_w2", "mem_phased"];

fn smoke(workload: &str, traced: bool) -> Outcome {
    let o = run(workload, 7, Size::Smoke, traced).expect("known workload");
    assert!(o.failures.is_empty(), "{workload}: {:?}", o.failures);
    let t = o.times;
    assert!(
        t.wall_s > 0.0 && t.setup_s > 0.0 && t.cpu_s >= 0.0,
        "{workload}: {o:?}"
    );
    o
}

#[test]
fn traced_runs_equal_untraced_runs() {
    for w in WORKLOADS {
        let plain = smoke(w, false);
        let traced = smoke(w, true);
        assert_eq!(plain.fingerprint, traced.fingerprint, "{w}: fingerprint");
        assert_eq!(plain.counters, traced.counters, "{w}: counters");
        assert!(plain.layers.is_empty(), "{w}: untraced run reported layers");
        assert!(
            !traced.layers.is_empty(),
            "{w}: traced run reported no layers"
        );
        assert!(
            traced.layers.iter().all(|(_, v)| v.is_finite()),
            "{w}: {:?}",
            traced.layers
        );
    }
}

#[test]
fn repeated_runs_agree_and_seeds_differ() {
    for w in WORKLOADS {
        let a = smoke(w, false);
        let b = smoke(w, false);
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "{w}: same seed, other outputs"
        );
        let other = run(w, 8, Size::Smoke, false).expect("known workload");
        assert_ne!(
            a.fingerprint, other.fingerprint,
            "{w}: the seed changed nothing"
        );
    }
}

#[test]
fn fleet_worker_count_is_invisible() {
    let w1 = smoke("fleet_w1", false);
    let w2 = smoke("fleet_w2", true);
    assert_eq!(w1.fingerprint, w2.fingerprint);
    assert_eq!(w1.counters, w2.counters);
}

#[test]
fn fleet_assembly_matches_fleet_config_run() {
    let w1 = smoke("fleet_w1", false);
    let reference = fleet::config(7, Size::Smoke, 1).run();
    assert_eq!(w1.fingerprint, reference.fingerprint());
}

#[test]
fn json_is_one_line_with_every_field() {
    let o = smoke("sched_trace", true);
    let line = to_json(&o, 1.5);
    assert!(!line.contains('\n'));
    for key in [
        "\"setup_s\"",
        "\"wall_s\"",
        "\"cpu_s\"",
        "\"peak_rss_mb\": 1.5",
        "\"fingerprint\"",
        "\"ghost.events\"",
        "\"policy.calls\"",
        "\"failures\": []",
    ] {
        assert!(line.contains(key), "{key} missing from {line}");
    }
}
