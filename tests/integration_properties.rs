//! Property-based tests over the core mechanisms.

use std::collections::VecDeque;

use proptest::prelude::*;
use wave::pcie::config::Side;
use wave::pcie::{DmaDirection, Interconnect, LineAddr, PteType, RegionId, SocPteMode};
use wave::queue::{PushOutcome, Transport, WaveQueue};
use wave::sim::stats::Histogram;
use wave::sim::SimTime;

/// Reference model of `WaveQueue`'s timing: every entry carries its own
/// visibility instant (`SimTime::MAX` while buffered host-side), and a
/// flush or poll walks entries one by one. It issues the same
/// interconnect calls as the queue, on its own interconnect.
struct RefQueue {
    transport: Transport,
    capacity: u64,
    entry_words: u64,
    lines_per_entry: u64,
    region: RegionId,
    wire_bytes: Option<u64>,
    entries: VecDeque<(u64, SimTime)>,
    tail: u64,
    head: u64,
    credits: u64,
    published_head: u64,
    pops_since_publish: u64,
}

const NIC_PTE: SocPteMode = SocPteMode::WriteBack;

impl RefQueue {
    fn new(
        ic: &mut Interconnect,
        transport: Transport,
        capacity: u64,
        entry_words: u64,
        host_pte: PteType,
    ) -> Self {
        let lines_per_entry = entry_words.div_ceil(ic.cfg.words_per_line());
        let region = ic.mmio.map_region(host_pte, capacity * lines_per_entry + 1);
        RefQueue {
            transport,
            capacity,
            entry_words,
            lines_per_entry,
            region,
            wire_bytes: None,
            entries: VecDeque::new(),
            tail: 0,
            head: 0,
            credits: capacity,
            published_head: 0,
            pops_since_publish: 0,
        }
    }

    fn next_line(&self) -> LineAddr {
        LineAddr::new(
            self.region,
            (self.tail % self.capacity) * self.lines_per_entry,
        )
    }

    fn push(&mut self, now: SimTime, ic: &mut Interconnect, v: u64) -> Option<PushOutcome> {
        if self.credits == 0 {
            return None;
        }
        self.credits -= 1;
        let out = match self.transport {
            Transport::Mmio => {
                let w = ic.mmio.write(now, self.next_line(), self.entry_words);
                PushOutcome {
                    cpu: w.cpu,
                    visible_at: w.visible_at,
                }
            }
            Transport::Dma => PushOutcome {
                cpu: SimTime::from_ns(2 * self.entry_words),
                visible_at: None,
            },
        };
        self.tail += 1;
        self.entries
            .push_back((v, out.visible_at.unwrap_or(SimTime::MAX)));
        Some(out)
    }

    fn flush(&mut self, now: SimTime, ic: &mut Interconnect) -> SimTime {
        let (cpu, at) = match self.transport {
            Transport::Mmio => {
                let f = ic.mmio.sfence(now);
                (f.cpu, f.visible_at.unwrap())
            }
            Transport::Dma => {
                let pending = self.entries.iter().filter(|e| e.1 == SimTime::MAX).count() as u64;
                if pending == 0 {
                    return SimTime::ZERO;
                }
                let bytes = match self.wire_bytes {
                    Some(w) => (pending * w).max(64),
                    None => pending * self.entry_words * 8,
                };
                let t = ic
                    .dma
                    .transfer(now, bytes, DmaDirection::HostToNic, Side::Host);
                (t.initiator_cpu, t.complete_at)
            }
        };
        for e in &mut self.entries {
            if e.1 == SimTime::MAX {
                e.1 = at;
            }
        }
        cpu
    }

    fn sync_credits(&mut self, now: SimTime, ic: &mut Interconnect) -> SimTime {
        let head_line = LineAddr::new(self.region, self.capacity * self.lines_per_entry);
        let cpu = ic.mmio.read(now, head_line).cpu;
        self.credits = self
            .capacity
            .saturating_sub(self.tail - self.published_head);
        cpu
    }

    fn poll(&mut self, now: SimTime, ic: &mut Interconnect, max: usize) -> (SimTime, Vec<u64>) {
        let mut cpu = ic.soc.access(NIC_PTE, 1);
        let mut out = Vec::new();
        while out.len() < max {
            match self.entries.front() {
                Some(&(v, at)) if at <= now => {
                    self.entries.pop_front();
                    cpu += ic.soc.access(NIC_PTE, self.entry_words);
                    self.head += 1;
                    self.pops_since_publish += 1;
                    if self.pops_since_publish >= (self.capacity / 4).max(1) {
                        self.pops_since_publish = 0;
                        self.published_head = self.head;
                        cpu += ic.soc.access(NIC_PTE, 1);
                    }
                    out.push(v);
                }
                _ => break,
            }
        }
        (cpu, out)
    }

    fn next_visible_at(&self) -> Option<SimTime> {
        self.entries.front().map(|e| e.1)
    }
}

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
        let mut polled = Vec::new();
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
                    polled.clear();
                    q.poll_nic_into(t, &mut ic, 64, &mut polled);
                    for &item in &polled {
                        prop_assert_eq!(item, next_expect, "FIFO order violated");
                        next_expect += 1;
                    }
                }
            }
        }
        // Drain everything left.
        q.flush(t, &mut ic);
        t += SimTime::from_ms(1);
        polled.clear();
        q.poll_nic_into(t, &mut ic, 1024, &mut polled);
        for &item in &polled {
            prop_assert_eq!(item, next_expect);
            next_expect += 1;
        }
        prop_assert_eq!(next_expect, next_push, "entries lost");
    }

    /// The queue's run-length visibility matches a per-entry reference
    /// in lock step: same push outcomes, flush and sync costs, polled
    /// items, poll costs and next-visible instant after every operation,
    /// over DMA (raw or compressed) and over MMIO with UC or WC. On WC
    /// an op may first store into the line the next push lands in, so
    /// that push fills the line and auto-drains while earlier pushes
    /// still wait for the fence.
    #[test]
    fn queue_runs_match_per_entry_visibility(
        ops in prop::collection::vec(0u32..4_000, 1..300),
        mode in 0u8..4,
    ) {
        let (transport, host_pte, wire) = match mode {
            0 => (Transport::Dma, PteType::WriteCombining, None),
            1 => (Transport::Dma, PteType::WriteCombining, Some(8)),
            2 => (Transport::Mmio, PteType::Uncacheable, None),
            _ => (Transport::Mmio, PteType::WriteCombining, None),
        };
        let wc = mode == 3;
        let (cap, words) = (16, 4);
        let mut ic = Interconnect::pcie();
        let mut q = WaveQueue::<u64>::new(&mut ic, transport, cap, words, host_pte, NIC_PTE);
        q.set_wire_bytes_per_entry(wire);
        let mut ref_ic = Interconnect::pcie();
        let mut r = RefQueue::new(&mut ref_ic, transport, cap, words, host_pte);
        r.wire_bytes = wire;
        let mut t = SimTime::ZERO;
        let mut next = 0u64;
        for (step, op) in ops.into_iter().enumerate() {
            t += SimTime::from_ns(u64::from(op % 7) * 300);
            match op / 7 % 5 {
                0 | 1 => {
                    if wc && op % 3 == 0 {
                        // Another store into the next push's line (each
                        // queue is region 0 of its own interconnect).
                        let partial = u64::from(op % 4) + 4;
                        ic.mmio.write(t, r.next_line(), partial);
                        ref_ic.mmio.write(t, r.next_line(), partial);
                    }
                    let got = q.push(t, &mut ic, next).ok();
                    let want = r.push(t, &mut ref_ic, next);
                    prop_assert_eq!(got, want, "push at step {}", step);
                    next += 1;
                }
                2 => prop_assert_eq!(q.flush(t, &mut ic), r.flush(t, &mut ref_ic), "flush at step {}", step),
                3 => prop_assert_eq!(
                    q.sync_credits(t, &mut ic),
                    r.sync_credits(t, &mut ref_ic),
                    "sync at step {}", step
                ),
                _ => {
                    let max = (op % 11) as usize;
                    let mut got = Vec::new();
                    let got_cpu = q.poll_nic_into(t, &mut ic, max, &mut got);
                    let (cpu, items) = r.poll(t, &mut ref_ic, max);
                    prop_assert_eq!(got, items, "polled at step {}", step);
                    prop_assert_eq!(got_cpu, cpu, "poll cpu at step {}", step);
                }
            }
            prop_assert_eq!(q.next_visible_at(), r.next_visible_at(), "next visible at step {}", step);
            prop_assert_eq!(q.len(), r.entries.len());
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
