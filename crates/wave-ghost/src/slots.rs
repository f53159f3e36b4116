//! Per-core decision slots (the paper's Fig. 2 per-core decision queues).
//!
//! The slot mechanics — staging, staleness, prefetch, the software
//! coherence protocol — live in the reusable
//! [`wave_core::runtime::SlotTable`]; this module defines the scheduling
//! decision a scheduler agent's table carries. See the runtime module docs for the full
//! protocol; in short: the agent stages **one decision per core** so the
//! host can pick it up without a PCIe round trip (§5.4), and every
//! staleness hazard (stage racing a prefetch snapshot, stale cached
//! lines hiding fresh decisions) is modeled.
//!
//! Worker core `c` maps to [`SlotId`](wave_core::runtime::SlotId)`(c)`
//! in every agent's table: sharded deployments (see [`crate::sim`]) give
//! each agent its own table over all cores, indexed by core id.

use wave_core::txn::{ResourceRef, TxnId};

use crate::msg::Tid;

/// A staged scheduling decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotDecision {
    /// Transaction id (for outcome reporting).
    pub txn: TxnId,
    /// The thread to run.
    pub tid: Tid,
    /// Generation-checked reference to that thread.
    pub target: ResourceRef,
}

#[cfg(test)]
mod tests {
    use super::*;
    use wave_core::runtime::{SlotId, SlotTable};
    use wave_core::txn::ResourceRef;
    use wave_pcie::{Interconnect, PteType, SocPteMode};
    use wave_sim::SimTime;

    fn slots(ic: &mut Interconnect, pte: PteType) -> SlotTable<SlotDecision> {
        SlotTable::new(ic, 4, 6, pte, SocPteMode::WriteBack)
    }

    fn decision(tid: u64) -> SlotDecision {
        SlotDecision {
            txn: TxnId(tid),
            tid: Tid(tid),
            target: ResourceRef {
                resource: tid,
                generation: 0,
            },
        }
    }

    #[test]
    fn stage_then_consume_uncached() {
        let mut ic = Interconnect::pcie();
        let mut s = slots(&mut ic, PteType::Uncacheable);
        s.stage(SimTime::ZERO, &mut ic, SlotId(0), decision(7));
        let (cost, got) = s.host_consume(SimTime::from_us(2), &mut ic, SlotId(0));
        assert_eq!(got.unwrap().tid, Tid(7));
        // 6 uncached word reads + consumed-flag write.
        assert!(cost >= SimTime::from_ns(6 * 750 + 50), "cost {cost}");
        assert!(!s.is_staged(SlotId(0)));
    }

    #[test]
    fn prefetch_then_consume_is_cheap_and_fresh() {
        let mut ic = Interconnect::pcie();
        let mut s = slots(&mut ic, PteType::WriteThrough);
        s.stage(SimTime::ZERO, &mut ic, SlotId(1), decision(9));
        // Host prefetches at 2 us; fill completes by 2.75 us.
        s.host_prefetch(SimTime::from_us(2), &mut ic, SlotId(1));
        let (cost, got) = s.host_consume(SimTime::from_us(4), &mut ic, SlotId(1));
        assert_eq!(got.unwrap().tid, Tid(9));
        assert!(cost < SimTime::from_ns(120), "prefetched consume {cost}");
    }

    #[test]
    fn stale_cache_hides_decision_until_invalidate() {
        let mut ic = Interconnect::pcie();
        let mut s = slots(&mut ic, PteType::WriteThrough);
        // Host caches the empty slot.
        let (_c, none) = s.host_consume(SimTime::ZERO, &mut ic, SlotId(2));
        assert!(none.is_none());
        // Agent stages afterwards.
        s.stage(SimTime::from_us(1), &mut ic, SlotId(2), decision(5));
        // Host re-reads: stale snapshot hides it.
        let (_c, hidden) = s.host_consume(SimTime::from_us(2), &mut ic, SlotId(2));
        assert!(hidden.is_none(), "stale line must hide the decision");
        // MSI-X handler protocol: clflush, then read.
        s.host_invalidate(SimTime::from_us(3), &mut ic, SlotId(2));
        let (_c, got) = s.host_consume(SimTime::from_us(4), &mut ic, SlotId(2));
        assert_eq!(got.unwrap().tid, Tid(5));
        let (hits, misses) = s.hit_miss();
        assert_eq!((hits, misses), (1, 2));
    }

    #[test]
    fn race_prefetch_before_stage_misses() {
        let mut ic = Interconnect::pcie();
        let mut s = slots(&mut ic, PteType::WriteThrough);
        // Prefetch snapshot taken before the stage: decision invisible.
        s.host_prefetch(SimTime::ZERO, &mut ic, SlotId(0));
        s.stage(SimTime::from_ns(500), &mut ic, SlotId(0), decision(3));
        let (_c, got) = s.host_consume(SimTime::from_us(1), &mut ic, SlotId(0));
        assert!(got.is_none(), "prestage raced the prefetch; host must miss");
        assert!(
            s.is_staged(SlotId(0)),
            "decision stays staged for the MSI-X path"
        );
    }

    #[test]
    fn revoke_clears_slot() {
        let mut ic = Interconnect::pcie();
        let mut s = slots(&mut ic, PteType::Uncacheable);
        s.stage(SimTime::ZERO, &mut ic, SlotId(3), decision(8));
        assert!(s.is_staged(SlotId(3)));
        s.revoke(SimTime::from_us(1), &mut ic, SlotId(3));
        let (_c, got) = s.host_consume(SimTime::from_us(2), &mut ic, SlotId(3));
        assert!(got.is_none());
    }

    #[test]
    fn consume_after_consume_is_empty() {
        let mut ic = Interconnect::pcie();
        let mut s = slots(&mut ic, PteType::WriteThrough);
        s.stage(SimTime::ZERO, &mut ic, SlotId(0), decision(1));
        s.host_invalidate(SimTime::from_us(1), &mut ic, SlotId(0));
        let (_c, got) = s.host_consume(SimTime::from_us(2), &mut ic, SlotId(0));
        assert!(got.is_some());
        let (_c, again) = s.host_consume(SimTime::from_us(3), &mut ic, SlotId(0));
        assert!(again.is_none());
    }
}
