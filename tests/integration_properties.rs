//! Property-based tests over the core mechanisms.

use proptest::prelude::*;
use wave::core::txn::{GenerationTable, TxnOutcome};
use wave::pcie::{Interconnect, PteType, SocPteMode};
use wave::queue::{Transport, WaveQueue};
use wave::sim::stats::Histogram;
use wave::sim::SimTime;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The queue never loses, duplicates, or reorders entries, under
    /// arbitrary interleavings of pushes, flushes, credit syncs, and
    /// polls, on either PTE mapping.
    #[test]
    fn queue_is_fifo_and_lossless(
        ops in prop::collection::vec(0u8..4, 1..200),
        wc in prop::bool::ANY,
    ) {
        let mut ic = Interconnect::pcie();
        let host_pte = if wc { PteType::WriteCombining } else { PteType::Uncacheable };
        let mut q = WaveQueue::<u64>::new(
            &mut ic, Transport::Mmio,
            32, 4, host_pte, SocPteMode::WriteBack,
        );
        let mut t = SimTime::ZERO;
        let mut next_push = 0u64;
        let mut next_expect = 0u64;
        for op in ops {
            t += SimTime::from_us(5);
            match op {
                0 => {
                    if q.push(t, &mut ic, next_push).is_ok() {
                        next_push += 1;
                    }
                }
                1 => { q.flush(t, &mut ic); }
                2 => { q.sync_credits(t, &mut ic); }
                _ => {
                    for item in q.poll_nic(t, &mut ic, 64).items {
                        prop_assert_eq!(item, next_expect, "FIFO order violated");
                        next_expect += 1;
                    }
                }
            }
        }
        // Drain everything left.
        q.flush(t, &mut ic);
        t += SimTime::from_ms(1);
        for item in q.poll_nic(t, &mut ic, 1024).items {
            prop_assert_eq!(item, next_expect);
            next_expect += 1;
        }
        prop_assert_eq!(next_expect, next_push, "entries lost");
    }

    /// Transactions: a commit succeeds iff no interleaved state change
    /// touched the resource (atomicity of the generation check).
    #[test]
    fn txn_commit_atomicity(bumps in 0u8..5, removed in prop::bool::ANY) {
        let mut table = GenerationTable::new();
        table.insert(1);
        let observed = table.snapshot(1).unwrap();
        for _ in 0..bumps {
            table.bump(1);
        }
        if removed {
            table.remove(1);
        }
        let outcome = table.validate(observed);
        match (bumps, removed) {
            (0, false) => prop_assert_eq!(outcome, TxnOutcome::Committed),
            (_, true) => prop_assert_eq!(outcome, TxnOutcome::TargetGone),
            (n, false) => prop_assert_eq!(
                outcome,
                TxnOutcome::StaleGeneration { observed: 0, current: n as u64 }
            ),
        }
    }

    /// Histogram quantiles stay within ~4% relative error and are
    /// monotone in q.
    #[test]
    fn histogram_quantiles_bounded(mut values in prop::collection::vec(1u64..1_000_000, 100..2_000)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let exact = values[((q * values.len() as f64).ceil() as usize - 1).min(values.len() - 1)];
            let got = h.quantile(q);
            let err = (got as f64 - exact as f64).abs() / exact as f64;
            prop_assert!(err < 0.05, "q={} got={} exact={} err={}", q, got, exact, err);
        }
        prop_assert!(h.quantile(0.5) <= h.quantile(0.9));
        prop_assert!(h.quantile(0.9) <= h.quantile(0.99));
    }

    /// Stale write-through reads never observe data from the future and
    /// clflush restores freshness.
    #[test]
    fn wt_snapshot_monotonicity(write_gaps in prop::collection::vec(1u64..10_000, 1..50)) {
        let mut ic = Interconnect::pcie();
        let region = ic.mmio.map_region(PteType::WriteThrough, 4);
        let addr = wave::pcie::LineAddr::new(region, 0);
        let mut t = SimTime::from_us(1);
        let first = ic.mmio.read(t, addr);
        let mut snapshot = first.snapshot_at;
        for gap in write_gaps {
            t += SimTime::from_ns(gap);
            ic.mmio.note_device_write(addr, t);
            let hit = ic.mmio.read(t + SimTime::from_ns(10), addr);
            // Cached hit: snapshot must not move forward on its own.
            prop_assert!(hit.snapshot_at <= snapshot.max(hit.snapshot_at));
            prop_assert_eq!(hit.snapshot_at, snapshot, "stale hit must keep old snapshot");
            // Flush: the next read observes the write.
            ic.mmio.clflush(t + SimTime::from_ns(20), addr);
            let fresh = ic.mmio.read(t + SimTime::from_ns(30), addr);
            prop_assert!(fresh.snapshot_at >= t, "refetch must be fresh");
            snapshot = fresh.snapshot_at;
        }
    }
}
