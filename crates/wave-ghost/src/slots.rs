//! Per-core decision slots (the paper's Fig. 2 per-core decision queues).
//!
//! The slot mechanics — staging, staleness, prefetch, the software
//! coherence protocol — live in the reusable
//! [`wave_core::runtime::SlotTable`]. A scheduler agent's table carries
//! one staged decision per core, and that decision is a generation-
//! stamped [`Tid`](crate::Tid): "run this thread", at the generation the
//! agent saw. The host commits it only if the id still resolves in its
//! [`ThreadTable`](crate::ThreadTable) (Table 1 `SET_TXNS_OUTCOMES`). See the
//! runtime module docs for the full protocol; in short: the agent stages
//! **one decision per core** so the host can pick it up without a PCIe
//! round trip (§5.4), and every staleness hazard (stage racing a
//! prefetch snapshot, stale cached lines hiding fresh decisions) is
//! modeled.
//!
//! Worker core `c` maps to [`SlotId`](wave_core::runtime::SlotId)`(c)`
//! in every agent's table: sharded deployments (see [`crate::sim`]) give
//! each agent its own table over all cores, indexed by core id.

#[cfg(test)]
mod tests {
    use crate::Tid;
    use wave_core::runtime::{SlotId, SlotTable};
    use wave_pcie::{Interconnect, PteType, SocPteMode};
    use wave_sim::SimTime;

    fn slots(ic: &mut Interconnect, pte: PteType) -> SlotTable<Tid> {
        SlotTable::new(ic, 4, 6, pte, SocPteMode::WriteBack)
    }

    #[test]
    fn stage_then_consume_uncached() {
        let mut ic = Interconnect::pcie();
        let mut s = slots(&mut ic, PteType::Uncacheable);
        s.stage(SimTime::ZERO, &mut ic, SlotId(0), Tid(7));
        let (cost, got) = s.host_consume(SimTime::from_us(2), &mut ic, SlotId(0));
        assert_eq!(got.unwrap(), Tid(7));
        // 6 uncached word reads + consumed-flag write.
        assert!(cost >= SimTime::from_ns(6 * 750 + 50), "cost {cost}");
        assert!(!s.is_staged(SlotId(0)));
    }

    #[test]
    fn prefetch_then_consume_is_cheap_and_fresh() {
        let mut ic = Interconnect::pcie();
        let mut s = slots(&mut ic, PteType::WriteThrough);
        s.stage(SimTime::ZERO, &mut ic, SlotId(1), Tid(9));
        // Host prefetches at 2 us; fill completes by 2.75 us.
        s.host_prefetch(SimTime::from_us(2), &mut ic, SlotId(1));
        let (cost, got) = s.host_consume(SimTime::from_us(4), &mut ic, SlotId(1));
        assert_eq!(got.unwrap(), Tid(9));
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
        s.stage(SimTime::from_us(1), &mut ic, SlotId(2), Tid(5));
        // Host re-reads: stale snapshot hides it.
        let (_c, hidden) = s.host_consume(SimTime::from_us(2), &mut ic, SlotId(2));
        assert!(hidden.is_none(), "stale line must hide the decision");
        // MSI-X handler protocol: clflush, then read.
        s.host_invalidate(SimTime::from_us(3), &mut ic, SlotId(2));
        let (_c, got) = s.host_consume(SimTime::from_us(4), &mut ic, SlotId(2));
        assert_eq!(got.unwrap(), Tid(5));
        let (hits, misses) = s.hit_miss();
        assert_eq!((hits, misses), (1, 2));
    }

    #[test]
    fn race_prefetch_before_stage_misses() {
        let mut ic = Interconnect::pcie();
        let mut s = slots(&mut ic, PteType::WriteThrough);
        // Prefetch snapshot taken before the stage: decision invisible.
        s.host_prefetch(SimTime::ZERO, &mut ic, SlotId(0));
        s.stage(SimTime::from_ns(500), &mut ic, SlotId(0), Tid(3));
        let (_c, got) = s.host_consume(SimTime::from_us(1), &mut ic, SlotId(0));
        assert!(got.is_none(), "prestage raced the prefetch; host must miss");
        assert!(
            s.is_staged(SlotId(0)),
            "decision stays staged for the MSI-X path"
        );
    }

    #[test]
    fn consume_after_consume_is_empty() {
        let mut ic = Interconnect::pcie();
        let mut s = slots(&mut ic, PteType::WriteThrough);
        s.stage(SimTime::ZERO, &mut ic, SlotId(0), Tid(1));
        s.host_invalidate(SimTime::from_us(1), &mut ic, SlotId(0));
        let (_c, got) = s.host_consume(SimTime::from_us(2), &mut ic, SlotId(0));
        assert!(got.is_some());
        let (_c, again) = s.host_consume(SimTime::from_us(3), &mut ic, SlotId(0));
        assert!(again.is_none());
    }
}
