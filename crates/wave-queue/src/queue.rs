//! The host→SmartNIC queue implementation.

use std::collections::VecDeque;

use wave_pcie::config::Side;
use wave_pcie::{DmaDirection, Interconnect, LineAddr, PteType, RegionId, SocPteMode};
use wave_sim::SimTime;

/// Backing transport for a queue (the paper's `SET_QUEUE_TYPE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// The queue lives in SmartNIC DRAM; the host accesses it through
    /// MMIO with the region's PTE type. Low latency, low throughput.
    Mmio,
    /// Entries are staged locally and shipped in batches by the DMA
    /// engine; the producer pays only the doorbell. High throughput,
    /// higher latency.
    Dma,
}

/// Why a push failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The producer has no credits: the ring looks full until the next
    /// head synchronization shows the consumer has drained entries.
    Full,
}

/// A rejected push, handing the payload back so the producer can retry
/// after synchronizing credits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejected<T> {
    /// Why the push failed.
    pub error: PushError,
    /// The payload, returned to the caller.
    pub payload: T,
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Full => write!(f, "queue full (producer out of credits)"),
        }
    }
}

impl std::error::Error for PushError {}

/// Result of a push.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PushOutcome {
    /// CPU time spent by the producer.
    pub cpu: SimTime,
    /// When the entry becomes visible to the consumer, if already
    /// determined. `None` means the entry still sits in a local buffer
    /// (WC buffer or DMA staging) and needs [`WaveQueue::flush`].
    pub visible_at: Option<SimTime>,
}

/// Result of a poll.
#[derive(Debug, Clone)]
pub struct PollOutcome<T> {
    /// CPU time spent by the consumer (including any blocking MMIO
    /// reads).
    pub cpu: SimTime,
    /// Entries drained, in FIFO order.
    pub items: Vec<T>,
}

/// Telemetry counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Entries pushed.
    pub pushed: u64,
    /// Entries polled out.
    pub polled: u64,
    /// Failed pushes (queue full).
    pub full_rejections: u64,
    /// Producer head-pointer synchronizations (the lazy credit refresh).
    pub head_syncs: u64,
    /// Explicit flushes.
    pub flushes: u64,
}

/// A run of consecutive entries that become visible at the same
/// instant: `(entries, visible_at)`, where `visible_at` is when the
/// entry data is present in SmartNIC memory, or [`SimTime::MAX`] while
/// still buffered host-side.
type Run = (u64, SimTime);

/// An order-preserving, loss-less queue from the host (producer) to the
/// SmartNIC (consumer).
///
/// See the [crate documentation](crate) for the design; see
/// [`WaveQueue::poll_nic_into`] for the consumer-side cost semantics.
#[derive(Debug)]
pub struct WaveQueue<T> {
    transport: Transport,
    capacity: u64,
    entry_words: u64,
    lines_per_entry: u64,
    /// MMIO region backing this queue (always mapped, even for DMA
    /// queues, which use it for the published head pointer).
    region: RegionId,
    /// SoC-side mapping used by NIC accesses to this queue's memory.
    nic_pte: SocPteMode,
    /// In-flight payloads, oldest first.
    entries: VecDeque<T>,
    /// Their visibility, run-length encoded: the counts sum to
    /// `entries.len()`. One flush makes every buffered entry visible at
    /// one instant, so a DMA batch is one run however long it is.
    runs: VecDeque<Run>,
    /// Next absolute index to produce.
    tail: u64,
    /// Next absolute index to consume.
    head: u64,
    /// Producer-visible credits (lazy view of free slots).
    credits: u64,
    /// Consumer head as last published to the producer side.
    published_head: u64,
    /// Publish the head every this many pops.
    head_publish_interval: u64,
    /// Pops since last publish.
    pops_since_publish: u64,
    /// Wire bytes each entry occupies in a DMA batch, when the stream is
    /// compressed in flight (e.g. the memory manager's delta-compressed
    /// PTE stream, §4.2). `None` means raw entries (`entry_words × 8`).
    wire_bytes_per_entry: Option<u64>,
    stats: QueueStats,
}

impl<T> WaveQueue<T> {
    /// Creates a queue and maps its backing region.
    ///
    /// `host_pte` controls how the *host* maps the queue's SmartNIC
    /// memory (ignored for DMA transports, which stage locally);
    /// `nic_pte` controls the SoC-side mapping (the Table 3 "WB PTEs on
    /// SmartNIC" lever).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `entry_words == 0`.
    pub fn new(
        ic: &mut Interconnect,
        transport: Transport,
        capacity: u64,
        entry_words: u64,
        host_pte: PteType,
        nic_pte: SocPteMode,
    ) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(entry_words > 0, "entries must be at least one word");
        let words_per_line = ic.cfg.words_per_line();
        let lines_per_entry = entry_words.div_ceil(words_per_line);
        // One extra line for the published head pointer.
        let region = ic.mmio.map_region(host_pte, capacity * lines_per_entry + 1);
        WaveQueue {
            transport,
            capacity,
            entry_words,
            lines_per_entry,
            region,
            nic_pte,
            entries: VecDeque::new(),
            runs: VecDeque::new(),
            tail: 0,
            head: 0,
            credits: capacity,
            published_head: 0,
            head_publish_interval: (capacity / 4).max(1),
            pops_since_publish: 0,
            wire_bytes_per_entry: None,
            stats: QueueStats::default(),
        }
    }

    /// Declares that entries are compressed to `bytes` each on the wire
    /// when shipped by DMA (the delta-compression of §4.2's PTE stream).
    /// A compressed batch still pays a 64-byte minimum payload per
    /// [`WaveQueue::flush`]. Ignored for MMIO transports.
    pub fn set_wire_bytes_per_entry(&mut self, bytes: Option<u64>) {
        self.wire_bytes_per_entry = bytes;
    }

    /// Entries currently in flight or waiting (producer view).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are in flight or waiting.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Telemetry counters.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Earliest time at which the next pending entry becomes visible to
    /// the consumer, or `None` if the queue is empty. Returns
    /// [`SimTime::MAX`] semantics for entries still buffered
    /// producer-side (they need a [`WaveQueue::flush`]).
    pub fn next_visible_at(&self) -> Option<SimTime> {
        self.runs.front().map(|&(_, at)| at)
    }

    /// Line address of the slot for absolute index `i`.
    fn entry_line(&self, i: u64) -> LineAddr {
        LineAddr::new(self.region, (i % self.capacity) * self.lines_per_entry)
    }

    /// Line address of the published head pointer.
    fn head_line(&self) -> LineAddr {
        LineAddr::new(self.region, self.capacity * self.lines_per_entry)
    }

    /// Pushes one entry. Cheap for the producer; the entry may require a
    /// [`WaveQueue::flush`] to become visible (WC buffering / DMA
    /// staging).
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] if the producer is out of credits — the
    /// payload is handed back in the [`Rejected`] so callers can call
    /// [`WaveQueue::sync_credits`] and retry, or treat it as
    /// backpressure.
    pub fn push(
        &mut self,
        now: SimTime,
        ic: &mut Interconnect,
        payload: T,
    ) -> Result<PushOutcome, Rejected<T>> {
        if self.credits == 0 {
            self.stats.full_rejections += 1;
            return Err(Rejected {
                error: PushError::Full,
                payload,
            });
        }
        self.credits -= 1;
        let index = self.tail;
        self.tail += 1;
        self.stats.pushed += 1;

        let outcome = match self.transport {
            Transport::Mmio => {
                let line = self.entry_line(index);
                let w = ic.mmio.write(now, line, self.entry_words);
                PushOutcome {
                    cpu: w.cpu,
                    visible_at: w.visible_at,
                }
            }
            Transport::Dma => {
                // Stage locally: a couple of ns per word.
                PushOutcome {
                    cpu: SimTime::from_ns(2 * self.entry_words),
                    visible_at: None,
                }
            }
        };

        self.entries.push_back(payload);
        let visible_at = outcome.visible_at.unwrap_or(SimTime::MAX);
        match self.runs.back_mut() {
            Some((n, at)) if *at == visible_at => *n += 1,
            _ => self.runs.push_back((1, visible_at)),
        }
        Ok(outcome)
    }

    /// Gives every buffered entry the visibility instant `at`.
    fn release_buffered(&mut self, at: SimTime) {
        for run in &mut self.runs {
            if run.1 == SimTime::MAX {
                run.1 = at;
            }
        }
    }

    /// Makes all buffered entries visible: `sfence` for MMIO/WC queues,
    /// a DMA batch for DMA queues. Returns the producer CPU cost.
    pub fn flush(&mut self, now: SimTime, ic: &mut Interconnect) -> SimTime {
        self.stats.flushes += 1;
        match self.transport {
            Transport::Mmio => {
                let f = ic.mmio.sfence(now);
                self.release_buffered(f.visible_at.expect("sfence always drains"));
                f.cpu
            }
            Transport::Dma => {
                let pending: u64 = self
                    .runs
                    .iter()
                    .filter(|&&(_, at)| at == SimTime::MAX)
                    .map(|&(n, _)| n)
                    .sum();
                if pending == 0 {
                    return SimTime::ZERO;
                }
                let bytes = match self.wire_bytes_per_entry {
                    Some(w) => (pending * w).max(64),
                    None => pending * self.entry_words * 8,
                };
                let t = ic
                    .dma
                    .transfer(now, bytes, DmaDirection::HostToNic, Side::Host);
                self.release_buffered(t.complete_at);
                t.initiator_cpu
            }
        }
    }

    /// Refreshes producer credits by reading the consumer's published
    /// head in NIC DRAM (the lazy head synchronization, one MMIO read).
    /// Returns the producer CPU cost.
    pub fn sync_credits(&mut self, now: SimTime, ic: &mut Interconnect) -> SimTime {
        self.stats.head_syncs += 1;
        let cpu = ic.mmio.read(now, self.head_line()).cpu;
        let in_flight = self.tail - self.published_head;
        self.credits = self.capacity.saturating_sub(in_flight);
        cpu
    }

    fn record_pop(&mut self, ic: &mut Interconnect) -> SimTime {
        self.head += 1;
        self.pops_since_publish += 1;
        self.stats.polled += 1;
        if self.pops_since_publish >= self.head_publish_interval {
            self.pops_since_publish = 0;
            self.published_head = self.head;
            // Publishing the head costs the NIC one local word write.
            ic.soc.access(self.nic_pte, 1)
        } else {
            SimTime::ZERO
        }
    }

    /// NIC-side poll (`POLL_MESSAGES`).
    ///
    /// Drains up to `max` entries that are visible at `now`. The cost is
    /// one flag probe when empty, plus per-entry reads.
    pub fn poll_nic(&mut self, now: SimTime, ic: &mut Interconnect, max: usize) -> PollOutcome<T> {
        let mut items = Vec::new();
        let cpu = self.poll_nic_into(now, ic, max, &mut items);
        PollOutcome { cpu, items }
    }

    /// [`WaveQueue::poll_nic`], draining into a caller-owned buffer (the
    /// agent pump runs this on every duty cycle, so the per-poll `Vec`
    /// must be reusable scratch). Appends at most `max` entries to
    /// `out` and returns the consumer CPU time.
    pub fn poll_nic_into(
        &mut self,
        now: SimTime,
        ic: &mut Interconnect,
        max: usize,
        out: &mut Vec<T>,
    ) -> SimTime {
        let mut cpu = SimTime::ZERO;
        let start = out.len();
        // Probe the head flag.
        cpu += ic.soc.access(self.nic_pte, 1);
        // Visibility is evaluated at the poll's start: a poll observes a
        // consistent snapshot of the ring, one run at a time.
        while let Some(&(n, at)) = self.runs.front() {
            let room = (max - (out.len() - start)) as u64;
            if at > now || room == 0 {
                break;
            }
            let take = n.min(room);
            out.extend(self.entries.drain(..take as usize));
            for _ in 0..take {
                cpu += ic.soc.access(self.nic_pte, self.entry_words);
                cpu += self.record_pop(ic);
            }
            if take == n {
                self.runs.pop_front();
            } else {
                self.runs[0].0 -= take;
            }
        }
        cpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wave_pcie::Interconnect;

    fn message_queue(ic: &mut Interconnect, host_pte: PteType) -> WaveQueue<u32> {
        WaveQueue::new(ic, Transport::Mmio, 64, 8, host_pte, SocPteMode::WriteBack)
    }

    #[test]
    fn host_to_nic_fifo_delivery() {
        let mut ic = Interconnect::pcie();
        let mut q = message_queue(&mut ic, PteType::Uncacheable);
        for v in 0..5u32 {
            q.push(SimTime::ZERO, &mut ic, v).unwrap();
        }
        // Entries visible after the one-way transit; poll late enough.
        let out = q.poll_nic(SimTime::from_us(5), &mut ic, 16);
        assert_eq!(out.items, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn nic_poll_respects_visibility_time() {
        let mut ic = Interconnect::pcie();
        let mut q = message_queue(&mut ic, PteType::Uncacheable);
        let push = q.push(SimTime::ZERO, &mut ic, 7u32).unwrap();
        let visible = push.visible_at.expect("UC write is posted");
        // Polling before visibility sees nothing.
        let early = q.poll_nic(SimTime::ZERO, &mut ic, 16);
        assert!(early.items.is_empty());
        let late = q.poll_nic(visible, &mut ic, 16);
        assert_eq!(late.items, vec![7]);
    }

    #[test]
    fn wc_messages_hidden_until_fence() {
        let mut ic = Interconnect::pcie();
        let q = message_queue(&mut ic, PteType::WriteCombining);
        // 4 words < a line: stays in the WC buffer.
        let mut q4 = WaveQueue::<u32>::new(
            &mut ic,
            Transport::Mmio,
            64,
            4,
            PteType::WriteCombining,
            SocPteMode::WriteBack,
        );
        let push = q4.push(SimTime::ZERO, &mut ic, 9).unwrap();
        assert_eq!(push.visible_at, None);
        let early = q4.poll_nic(SimTime::from_ms(1), &mut ic, 16);
        assert!(early.items.is_empty(), "unfenced WC data must be invisible");
        let cpu = q4.flush(SimTime::from_ms(1), &mut ic);
        assert!(cpu > SimTime::ZERO);
        let late = q4.poll_nic(SimTime::from_ms(2), &mut ic, 16);
        assert_eq!(late.items, vec![9]);
        drop(q);
    }

    #[test]
    fn wc_push_cheaper_than_uc_push() {
        let mut ic = Interconnect::pcie();
        let mut uc = message_queue(&mut ic, PteType::Uncacheable);
        let mut wc = message_queue(&mut ic, PteType::WriteCombining);
        let c_uc = uc.push(SimTime::ZERO, &mut ic, 1).unwrap().cpu;
        let c_wc = wc.push(SimTime::ZERO, &mut ic, 1).unwrap().cpu;
        assert!(c_wc < c_uc, "{c_wc} !< {c_uc}");
    }

    #[test]
    fn dma_queue_batches_and_delivers_at_completion() {
        let mut ic = Interconnect::pcie();
        let mut q = WaveQueue::<u64>::new(
            &mut ic,
            Transport::Dma,
            1024,
            8,
            PteType::Uncacheable,
            SocPteMode::WriteBack,
        );
        for v in 0..100u64 {
            let out = q.push(SimTime::ZERO, &mut ic, v).unwrap();
            assert_eq!(out.visible_at, None, "DMA entries stage locally");
        }
        let cpu = q.flush(SimTime::ZERO, &mut ic);
        // The producer pays only the doorbell.
        assert!(cpu < SimTime::from_us(1));
        let complete = ic.dma.busy_until();
        let early = q.poll_nic(complete - SimTime::from_ns(10), &mut ic, 256);
        assert!(early.items.is_empty());
        let late = q.poll_nic(complete, &mut ic, 256);
        assert_eq!(late.items.len(), 100);
        assert_eq!(late.items[0], 0);
        assert_eq!(late.items[99], 99);
    }

    #[test]
    fn wire_compression_shrinks_dma_batches() {
        let mk = |ic: &mut Interconnect, wire: Option<u64>| {
            let mut q = WaveQueue::<u64>::new(
                ic,
                Transport::Dma,
                1024,
                8,
                PteType::Uncacheable,
                SocPteMode::WriteBack,
            );
            q.set_wire_bytes_per_entry(wire);
            q
        };
        // 100 compressed entries move fewer bytes than 100 raw ones.
        let mut ic_raw = Interconnect::pcie();
        let mut raw = mk(&mut ic_raw, None);
        let mut ic_cmp = Interconnect::pcie();
        let mut cmp = mk(&mut ic_cmp, Some(8));
        for v in 0..100u64 {
            raw.push(SimTime::ZERO, &mut ic_raw, v).unwrap();
            cmp.push(SimTime::ZERO, &mut ic_cmp, v).unwrap();
        }
        raw.flush(SimTime::ZERO, &mut ic_raw);
        cmp.flush(SimTime::ZERO, &mut ic_cmp);
        assert_eq!(ic_raw.dma.bytes_moved(), 100 * 8 * 8);
        assert_eq!(ic_cmp.dma.bytes_moved(), 100 * 8);
        assert!(ic_cmp.dma.busy_until() < ic_raw.dma.busy_until());
        // All entries still arrive intact.
        let got = cmp.poll_nic(ic_cmp.dma.busy_until(), &mut ic_cmp, 256);
        assert_eq!(got.items.len(), 100);
        // A single compressed entry pays the 64-byte minimum payload.
        let mut ic_min = Interconnect::pcie();
        let mut min = mk(&mut ic_min, Some(8));
        min.push(SimTime::ZERO, &mut ic_min, 1).unwrap();
        min.flush(SimTime::ZERO, &mut ic_min);
        assert_eq!(ic_min.dma.bytes_moved(), 64);
    }

    #[test]
    fn full_queue_rejects_then_recovers_after_sync() {
        let mut ic = Interconnect::pcie();
        let mut q = WaveQueue::<u32>::new(
            &mut ic,
            Transport::Mmio,
            4,
            8,
            PteType::Uncacheable,
            SocPteMode::WriteBack,
        );
        for v in 0..4 {
            q.push(SimTime::ZERO, &mut ic, v).unwrap();
        }
        assert_eq!(
            q.push(SimTime::ZERO, &mut ic, 9).unwrap_err().error,
            PushError::Full
        );
        assert_eq!(q.stats().full_rejections, 1);
        // Consumer drains everything; head publishes every capacity/4=1
        // pops.
        let out = q.poll_nic(SimTime::from_us(10), &mut ic, 16);
        assert_eq!(out.items.len(), 4);
        // Producer still thinks it's full until it syncs credits.
        assert_eq!(
            q.push(SimTime::from_us(11), &mut ic, 9).unwrap_err().error,
            PushError::Full
        );
        let sync_cpu = q.sync_credits(SimTime::from_us(11), &mut ic);
        assert!(
            sync_cpu >= SimTime::from_ns(750),
            "head sync is an MMIO read"
        );
        q.push(SimTime::from_us(12), &mut ic, 9).unwrap();
    }

    #[test]
    fn ring_wraparound_preserves_order() {
        let mut ic = Interconnect::pcie();
        let mut q = WaveQueue::<u32>::new(
            &mut ic,
            Transport::Mmio,
            4,
            8,
            PteType::Uncacheable,
            SocPteMode::WriteBack,
        );
        let mut next_push = 0u32;
        let mut next_expect = 0u32;
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            q.sync_credits(t, &mut ic);
            while q.push(t, &mut ic, next_push).is_ok() {
                next_push += 1;
            }
            t += SimTime::from_us(10);
            let out = q.poll_nic(t, &mut ic, 16);
            for item in out.items {
                assert_eq!(item, next_expect);
                next_expect += 1;
            }
            t += SimTime::from_us(10);
        }
        assert!(next_expect >= 30, "wrapped several times: {next_expect}");
    }

    #[test]
    fn stats_track_traffic() {
        let mut ic = Interconnect::pcie();
        let mut q = message_queue(&mut ic, PteType::Uncacheable);
        q.push(SimTime::ZERO, &mut ic, 1).unwrap();
        q.push(SimTime::ZERO, &mut ic, 2).unwrap();
        let _ = q.poll_nic(SimTime::from_us(5), &mut ic, 16);
        let s = q.stats();
        assert_eq!(s.pushed, 2);
        assert_eq!(s.polled, 2);
    }
}
