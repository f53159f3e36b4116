//! Host-side MMIO with PTE typing, caching, and software coherence.
//!
//! This module is the mechanical heart of the reproduction. The paper's
//! §5.3 optimizations all live here:
//!
//! * **Write-combining stores** (§5.3.1): stores to a WC-mapped region
//!   accumulate per cache line in the CPU's write-combining buffer. They
//!   become visible in SmartNIC DRAM when the line fills (auto-drain) or
//!   when the producer executes [`HostMmio::sfence`]. Until then the NIC
//!   cannot see them — a real reordering window the queue layer must (and
//!   does) handle with its valid-flag protocol. The buffer is modelled as
//!   what it holds: a short list of the lines with pending words, so a
//!   fence costs the lines written since the last one, not the memory
//!   mapped.
//! * **Write-through cached loads** (§5.3.2): the first load of a
//!   WT-mapped line costs a full 750 ns PCIe round trip and installs a
//!   64-byte *snapshot*; subsequent loads hit for ~2 ns but return data
//!   as of the snapshot time. PCIe has no coherence, so when the NIC
//!   overwrites the line the snapshot silently goes stale; Wave's
//!   software coherence protocol (`clflush` on MSI-X receipt) evicts the
//!   snapshot so the next load refetches. We model staleness exactly:
//!   readers observe a region's state *as of their snapshot time*.
//! * **Prefetch** (§5.4): a non-blocking fill; the line becomes ready
//!   `mmio_read_ns` later, and a subsequent load either hits (free) or
//!   blocks only for the remaining fill time.
//! * **Coherent mode** (§7.3.3): with a UPI/CXL-style interconnect the
//!   same API provides hardware coherence — device writes invalidate host
//!   snapshots automatically and `clflush` becomes a no-op.
//!
//! Mapping a region costs nothing per line. A region may span far more
//! lines than are ever touched (a DMA queue's ring, whose entry lines
//! the host never writes: the memory agent's PTE stream maps twice its
//! batch space), so per-line state holds only what has been touched: it
//! grows up to the highest line a fill or device write has reached, and
//! a line past that is uncached and never written.

use crate::config::PcieConfig;
use crate::pte::PteType;
use wave_sim::SimTime;

/// Identifier of a mapped MMIO region (one per Wave queue, typically).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

/// A cache-line address inside a mapped region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineAddr {
    /// The containing region.
    pub region: RegionId,
    /// Line index within the region.
    pub line: u64,
}

impl LineAddr {
    /// Convenience constructor.
    pub fn new(region: RegionId, line: u64) -> Self {
        LineAddr { region, line }
    }
}

/// Outcome of a host load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadOutcome {
    /// CPU time the load blocks the host core.
    pub cpu: SimTime,
    /// The freshness of the data the load returns: the reader observes
    /// device memory *as of this instant*. A stale WT hit returns a
    /// snapshot taken long ago; an uncached read returns (essentially)
    /// current data.
    pub snapshot_at: SimTime,
    /// Whether the load hit a CPU cache (for telemetry/tests).
    pub hit: bool,
}

/// Outcome of a host store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteOutcome {
    /// CPU time the store(s) cost the host core.
    pub cpu: SimTime,
    /// When the data becomes visible in SmartNIC DRAM. `None` means the
    /// store is still sitting in the write-combining buffer and needs an
    /// [`HostMmio::sfence`] (or line fill) to become visible.
    pub visible_at: Option<SimTime>,
}

#[derive(Debug, Clone, Copy)]
struct CacheLine {
    /// When the fill completes (future for an in-flight prefetch).
    ready_at: SimTime,
    /// Freshness of the snapshot held in the line.
    snapshot_at: SimTime,
}

/// Per-line state, directly indexed by line number: the line index *is*
/// the address, no hashing on the per-access path. Both vectors start
/// empty and grow to `line + 1` on the first store that creates state
/// (a fill, a prefetch, a device write); an index past the end reads as
/// "uncached, never written". They grow separately, so a region the
/// device writes but the host never caches holds one timestamp per line
/// and no cache entries.
/// Pending write-combining words are not region state: they live in the
/// CPU's buffer ([`HostMmio`]'s pending-line list).
#[derive(Debug)]
struct Region {
    pte: PteType,
    lines: u64,
    /// Cached snapshot per line (`None` = not cached).
    cache: Vec<Option<CacheLine>>,
    /// Latest device-side write per line, [`SimTime::ZERO`] if never
    /// written (no snapshot predates time zero, so it never reads as
    /// stale) — drives hardware-coherence invalidation in UPI mode and
    /// staleness assertions in tests.
    device_writes: Vec<SimTime>,
}

impl Region {
    /// Bounds-checks `line` and returns its index.
    fn index(&self, line: u64) -> usize {
        assert!(line < self.lines, "line {line} out of bounds");
        line as usize
    }

    fn cached(&self, idx: usize) -> Option<CacheLine> {
        self.cache.get(idx).copied().flatten()
    }

    fn written_at(&self, idx: usize) -> SimTime {
        self.device_writes
            .get(idx)
            .copied()
            .unwrap_or(SimTime::ZERO)
    }

    /// Drops `idx`'s cached snapshot, if any.
    fn evict(&mut self, idx: usize) {
        if let Some(line) = self.cache.get_mut(idx) {
            *line = None;
        }
    }

    /// `idx`'s cache entry, growing the vector to reach it.
    fn cache_entry(&mut self, idx: usize) -> &mut Option<CacheLine> {
        if idx >= self.cache.len() {
            self.cache.resize(idx + 1, None);
        }
        &mut self.cache[idx]
    }
}

/// Telemetry counters for the MMIO model.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MmioStats {
    /// Loads that paid the full PCIe round trip.
    pub read_misses: u64,
    /// Loads served from a cached snapshot.
    pub read_hits: u64,
    /// Loads that blocked on an in-flight prefetch.
    pub read_fill_waits: u64,
    /// 64-bit stores issued.
    pub writes: u64,
    /// Explicit `sfence` drains.
    pub fences: u64,
    /// Lines auto-drained because the WC buffer filled.
    pub wc_autodrains: u64,
    /// `clflush` invocations.
    pub flushes: u64,
    /// Prefetches issued.
    pub prefetches: u64,
}

/// Host-side MMIO state machine.
///
/// # Examples
///
/// ```
/// use wave_pcie::{HostMmio, LineAddr, PcieConfig, PteType};
/// use wave_sim::SimTime;
///
/// let mut mmio = HostMmio::new(PcieConfig::pcie());
/// let region = mmio.map_region(PteType::WriteThrough, 16);
/// let addr = LineAddr::new(region, 0);
///
/// // First read misses (750 ns)...
/// let first = mmio.read(SimTime::ZERO, addr);
/// assert_eq!(first.cpu, SimTime::from_ns(750));
/// // ...subsequent reads of the same line hit.
/// let second = mmio.read(SimTime::from_us(1), addr);
/// assert!(second.hit);
/// ```
#[derive(Debug)]
pub struct HostMmio {
    cfg: PcieConfig,
    regions: Vec<Region>,
    /// The CPU's write-combining buffer: each line with pending WC
    /// stores and how many words it holds. A line leaves when it fills
    /// (auto-drain) or on [`HostMmio::sfence`]; between fences it holds
    /// a handful of lines at most.
    wc: Vec<(LineAddr, u64)>,
    stats: MmioStats,
}

impl HostMmio {
    /// Creates an MMIO model with no mapped regions.
    pub fn new(cfg: PcieConfig) -> Self {
        HostMmio {
            cfg,
            regions: Vec::new(),
            wc: Vec::new(),
            stats: MmioStats::default(),
        }
    }

    /// Maps a region of SmartNIC memory with the given PTE type.
    ///
    /// # Panics
    ///
    /// Panics if `pte` is [`PteType::WriteBack`] on a non-coherent
    /// interconnect (hardware forbids it) or if `lines == 0`.
    pub fn map_region(&mut self, pte: PteType, lines: u64) -> RegionId {
        assert!(lines > 0, "cannot map an empty region");
        assert!(
            !pte.requires_coherence() || self.cfg.is_coherent(),
            "write-back host mappings of device memory require a coherent interconnect"
        );
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(Region {
            pte,
            lines,
            cache: Vec::new(),
            device_writes: Vec::new(),
        });
        id
    }

    /// Telemetry counters.
    pub fn stats(&self) -> MmioStats {
        self.stats
    }

    fn region_mut(&mut self, region: RegionId) -> &mut Region {
        &mut self.regions[region.0 as usize]
    }

    /// Records that the SmartNIC wrote `addr` at time `at`.
    ///
    /// On PCIe this only feeds staleness bookkeeping (host snapshots are
    /// *not* invalidated — that is exactly the §5.3.2 hazard). On a
    /// coherent interconnect it invalidates the host's cached line, like
    /// hardware would.
    pub fn note_device_write(&mut self, addr: LineAddr, at: SimTime) {
        let coherent = self.cfg.is_coherent();
        let r = self.region_mut(addr.region);
        let idx = r.index(addr.line);
        if idx >= r.device_writes.len() {
            r.device_writes.resize(idx + 1, SimTime::ZERO);
        }
        r.device_writes[idx] = r.device_writes[idx].max(at);
        if coherent {
            r.evict(idx);
        }
    }

    /// Host load of one 64-bit word in `addr`'s line.
    ///
    /// # Panics
    ///
    /// Panics if the line index is out of bounds for the region.
    pub fn read(&mut self, now: SimTime, addr: LineAddr) -> ReadOutcome {
        let read_ns = self.cfg.mmio_read_ns;
        let hit_ns = self.cfg.wt_hit_ns;
        let one_way = self.cfg.one_way_ns;
        enum Kind {
            Miss,
            Hit,
            FillWait,
        }
        let coherent = self.cfg.is_coherent();
        let (outcome, kind) = {
            let r = self.region_mut(addr.region);
            let idx = r.index(addr.line);
            // Hardware coherence: a device store that has landed since
            // our snapshot invalidates the cached copy, even if the line
            // was filled while the store was still in flight.
            if coherent {
                let w = r.written_at(idx);
                if r.cached(idx)
                    .is_some_and(|line| w > line.snapshot_at && w <= now)
                {
                    r.evict(idx);
                }
            }
            match r.pte {
                PteType::Uncacheable | PteType::WriteCombining => (
                    // WC does not cache loads either; both pay the round
                    // trip.
                    ReadOutcome {
                        cpu: SimTime::from_ns(read_ns),
                        snapshot_at: now + SimTime::from_ns(one_way),
                        hit: false,
                    },
                    Kind::Miss,
                ),
                PteType::WriteThrough | PteType::WriteBack => {
                    if let Some(line) = r.cached(idx) {
                        if line.ready_at <= now {
                            // Plain hit: may be stale; reader sees the
                            // old snapshot.
                            (
                                ReadOutcome {
                                    cpu: SimTime::from_ns(hit_ns),
                                    snapshot_at: line.snapshot_at,
                                    hit: true,
                                },
                                Kind::Hit,
                            )
                        } else {
                            // In-flight fill (prefetch racing the read):
                            // block for the remainder.
                            (
                                ReadOutcome {
                                    cpu: line.ready_at.saturating_sub(now)
                                        + SimTime::from_ns(hit_ns),
                                    snapshot_at: line.snapshot_at,
                                    hit: false,
                                },
                                Kind::FillWait,
                            )
                        }
                    } else {
                        // Miss: full round trip; install a snapshot.
                        let snapshot_at = now + SimTime::from_ns(one_way);
                        *r.cache_entry(idx) = Some(CacheLine {
                            ready_at: now + SimTime::from_ns(read_ns),
                            snapshot_at,
                        });
                        (
                            ReadOutcome {
                                cpu: SimTime::from_ns(read_ns),
                                snapshot_at,
                                hit: false,
                            },
                            Kind::Miss,
                        )
                    }
                }
            }
        };
        match kind {
            Kind::Miss => self.stats.read_misses += 1,
            Kind::Hit => self.stats.read_hits += 1,
            Kind::FillWait => self.stats.read_fill_waits += 1,
        }
        outcome
    }

    /// Host store of `words` 64-bit words into `addr`'s line.
    ///
    /// For UC/WT mappings the store is posted directly (visible after the
    /// one-way transit). For WC mappings it lands in the write-combining
    /// buffer and the outcome's `visible_at` is `None` unless this store
    /// filled the line (auto-drain).
    ///
    /// # Panics
    ///
    /// Panics if the line index is out of bounds for the region.
    pub fn write(&mut self, now: SimTime, addr: LineAddr, words: u64) -> WriteOutcome {
        let uc_ns = self.cfg.mmio_write_uc_ns;
        let wc_ns = self.cfg.mmio_write_wc_ns;
        let one_way = self.cfg.one_way_ns;
        let words_per_line = self.cfg.words_per_line();
        self.stats.writes += words;
        let r = self.region_mut(addr.region);
        let idx = r.index(addr.line);
        match r.pte {
            PteType::Uncacheable | PteType::WriteThrough | PteType::WriteBack => {
                let cpu = SimTime::from_ns(uc_ns * words);
                // Write-through also refreshes the local snapshot if the
                // line is cached (stores go to cache and memory).
                if let Some(Some(line)) = r.cache.get_mut(idx) {
                    line.snapshot_at = line.snapshot_at.max(now);
                }
                WriteOutcome {
                    cpu,
                    visible_at: Some(now + cpu + SimTime::from_ns(one_way)),
                }
            }
            PteType::WriteCombining => {
                let cpu = SimTime::from_ns(wc_ns * words);
                let slot = self
                    .wc
                    .iter()
                    .position(|&(a, _)| a == addr)
                    .unwrap_or_else(|| {
                        self.wc.push((addr, 0));
                        self.wc.len() - 1
                    });
                self.wc[slot].1 += words;
                // A filled line auto-drains and leaves the buffer.
                let filled = self.wc[slot].1 >= words_per_line;
                if filled {
                    self.wc.swap_remove(slot);
                    self.stats.wc_autodrains += 1;
                }
                WriteOutcome {
                    cpu,
                    visible_at: filled.then(|| now + cpu + SimTime::from_ns(one_way)),
                }
            }
        }
    }

    /// Drains the write-combining buffer (`sfence`). All buffered stores
    /// across all WC regions become visible at the returned
    /// `visible_at`.
    pub fn sfence(&mut self, now: SimTime) -> WriteOutcome {
        self.stats.fences += 1;
        let cpu = SimTime::from_ns(self.cfg.wc_flush_ns);
        self.wc.clear();
        WriteOutcome {
            cpu,
            visible_at: Some(now + cpu + SimTime::from_ns(self.cfg.one_way_ns)),
        }
    }

    /// Evicts `addr`'s line from the host cache (`clflush`) — the
    /// software-coherence step Wave performs when an MSI-X announces
    /// fresh decisions (§5.3.2). No-op (and free) on coherent
    /// interconnects.
    pub fn clflush(&mut self, _now: SimTime, addr: LineAddr) -> SimTime {
        if self.cfg.is_coherent() {
            return SimTime::ZERO;
        }
        self.stats.flushes += 1;
        let r = self.region_mut(addr.region);
        let idx = r.index(addr.line);
        r.evict(idx);
        SimTime::from_ns(self.cfg.clflush_ns)
    }

    /// Issues a non-blocking prefetch of `addr`'s line (§5.4). If the
    /// line is already cached (even stale!) this is a no-op, exactly like
    /// a hardware prefetch hitting in cache — flush first to refetch.
    /// Returns the (tiny) CPU cost of issuing.
    pub fn prefetch(&mut self, now: SimTime, addr: LineAddr) -> SimTime {
        let read_ns = self.cfg.mmio_read_ns;
        let one_way = self.cfg.one_way_ns;
        let pte = self.regions[addr.region.0 as usize].pte;
        if !pte.caches_loads() {
            // Prefetching an uncacheable line has no effect.
            return SimTime::ZERO;
        }
        self.stats.prefetches += 1;
        let r = self.region_mut(addr.region);
        let idx = r.index(addr.line);
        r.cache_entry(idx).get_or_insert(CacheLine {
            ready_at: now + SimTime::from_ns(read_ns),
            snapshot_at: now + SimTime::from_ns(one_way),
        });
        SimTime::from_ns(self.cfg.prefetch_issue_ns)
    }

    /// Whether the host's view of `addr` is stale, i.e. the device wrote
    /// the line after the host's cached snapshot was taken. Used by tests
    /// to prove the coherence hazard is real.
    pub fn is_stale(&self, addr: LineAddr) -> bool {
        let r = &self.regions[addr.region.0 as usize];
        let idx = addr.line as usize;
        r.cached(idx)
            .is_some_and(|line| r.written_at(idx) > line.snapshot_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mmio(pte: PteType) -> (HostMmio, LineAddr) {
        let mut m = HostMmio::new(PcieConfig::pcie());
        let r = m.map_region(pte, 64);
        (m, LineAddr::new(r, 0))
    }

    #[test]
    fn uncacheable_read_is_750ns_every_time() {
        let (mut m, a) = mmio(PteType::Uncacheable);
        for i in 0..3 {
            let out = m.read(SimTime::from_us(i), a);
            assert_eq!(out.cpu, SimTime::from_ns(750));
            assert!(!out.hit);
        }
        assert_eq!(m.stats().read_misses, 3);
    }

    #[test]
    fn wt_second_read_hits() {
        let (mut m, a) = mmio(PteType::WriteThrough);
        let miss = m.read(SimTime::ZERO, a);
        assert_eq!(miss.cpu, SimTime::from_ns(750));
        let hit = m.read(SimTime::from_us(2), a);
        assert_eq!(hit.cpu, SimTime::from_ns(2));
        assert!(hit.hit);
        assert_eq!(m.stats().read_hits, 1);
    }

    #[test]
    fn wt_hit_returns_stale_snapshot() {
        let (mut m, a) = mmio(PteType::WriteThrough);
        let first = m.read(SimTime::ZERO, a);
        // Device writes after our snapshot...
        m.note_device_write(a, SimTime::from_us(5));
        // ...and the cached hit does NOT see it.
        let hit = m.read(SimTime::from_us(10), a);
        assert_eq!(hit.snapshot_at, first.snapshot_at);
        assert!(m.is_stale(a));
    }

    #[test]
    fn clflush_restores_freshness() {
        let (mut m, a) = mmio(PteType::WriteThrough);
        let _ = m.read(SimTime::ZERO, a);
        m.note_device_write(a, SimTime::from_us(5));
        assert!(m.is_stale(a));
        let cost = m.clflush(SimTime::from_us(6), a);
        assert_eq!(cost, SimTime::from_ns(20));
        let fresh = m.read(SimTime::from_us(10), a);
        assert_eq!(fresh.cpu, SimTime::from_ns(750));
        assert!(fresh.snapshot_at > SimTime::from_us(5));
        assert!(!m.is_stale(a));
    }

    #[test]
    fn prefetch_makes_later_read_free() {
        let (mut m, a) = mmio(PteType::WriteThrough);
        let cost = m.prefetch(SimTime::ZERO, a);
        assert_eq!(cost, SimTime::from_ns(2));
        // 1 us later (> 750 ns fill), the read hits.
        let read = m.read(SimTime::from_us(1), a);
        assert_eq!(read.cpu, SimTime::from_ns(2));
        assert!(read.hit);
    }

    #[test]
    fn read_blocks_on_inflight_prefetch() {
        let (mut m, a) = mmio(PteType::WriteThrough);
        m.prefetch(SimTime::ZERO, a);
        // Read at 300 ns: fill completes at 750, so we block ~450 ns.
        let read = m.read(SimTime::from_ns(300), a);
        assert_eq!(read.cpu, SimTime::from_ns(450 + 2));
        assert!(!read.hit);
        assert_eq!(m.stats().read_fill_waits, 1);
    }

    #[test]
    fn prefetch_on_cached_stale_line_is_noop() {
        let (mut m, a) = mmio(PteType::WriteThrough);
        let first = m.read(SimTime::ZERO, a);
        m.note_device_write(a, SimTime::from_us(1));
        m.prefetch(SimTime::from_us(2), a);
        let hit = m.read(SimTime::from_us(3), a);
        // Still the stale snapshot: prefetch cannot refresh a cached line.
        assert_eq!(hit.snapshot_at, first.snapshot_at);
        assert!(m.is_stale(a));
    }

    #[test]
    fn uc_write_visible_after_one_way() {
        let (mut m, a) = mmio(PteType::Uncacheable);
        let w = m.write(SimTime::ZERO, a, 1);
        assert_eq!(w.cpu, SimTime::from_ns(50));
        assert_eq!(w.visible_at, Some(SimTime::from_ns(50 + 350)));
    }

    #[test]
    fn wc_write_buffers_until_fence() {
        let (mut m, a) = mmio(PteType::WriteCombining);
        let w = m.write(SimTime::ZERO, a, 4);
        assert_eq!(w.cpu, SimTime::from_ns(40));
        assert_eq!(w.visible_at, None, "buffered in WC buffer");
        let f = m.sfence(SimTime::from_ns(40));
        assert_eq!(f.cpu, SimTime::from_ns(50));
        assert_eq!(f.visible_at, Some(SimTime::from_ns(40 + 50 + 350)));
    }

    #[test]
    fn wc_line_fill_autodrains() {
        let (mut m, a) = mmio(PteType::WriteCombining);
        let w = m.write(SimTime::ZERO, a, 8); // full 64-byte line
        assert!(w.visible_at.is_some());
        assert_eq!(m.stats().wc_autodrains, 1);
    }

    #[test]
    fn sfence_drains_partial_lines_in_every_region() {
        let mut m = HostMmio::new(PcieConfig::pcie());
        let a = LineAddr::new(m.map_region(PteType::WriteCombining, 8), 3);
        let b = LineAddr::new(m.map_region(PteType::WriteCombining, 8), 5);
        assert_eq!(m.write(SimTime::ZERO, a, 4).visible_at, None);
        assert_eq!(m.write(SimTime::ZERO, b, 4).visible_at, None);
        let _ = m.sfence(SimTime::ZERO);
        // Both lines start empty again: without the drain, these 4 words
        // would fill each line (4 + 4) and auto-drain it.
        for addr in [a, b] {
            assert_eq!(m.write(SimTime::from_us(1), addr, 4).visible_at, None);
        }
        assert_eq!(m.stats().wc_autodrains, 0);
    }

    #[test]
    fn autodrained_line_leaves_the_buffer() {
        let (mut m, a) = mmio(PteType::WriteCombining);
        let _ = m.write(SimTime::ZERO, a, 5);
        assert!(m.write(SimTime::ZERO, a, 3).visible_at.is_some());
        assert_eq!(m.stats().wc_autodrains, 1);
        // The line drained as it filled, so it starts empty again.
        assert_eq!(m.write(SimTime::ZERO, a, 4).visible_at, None);
    }

    #[test]
    fn empty_sfence_still_costs_a_fence() {
        let (mut m, _) = mmio(PteType::WriteCombining);
        let f = m.sfence(SimTime::ZERO);
        assert_eq!(f.cpu, SimTime::from_ns(PcieConfig::pcie().wc_flush_ns));
        assert_eq!(m.stats().fences, 1);
    }

    #[test]
    fn wc_writes_cheaper_than_uc() {
        let (mut m_wc, a_wc) = mmio(PteType::WriteCombining);
        let (mut m_uc, a_uc) = mmio(PteType::Uncacheable);
        let wc_total = m_wc.write(SimTime::ZERO, a_wc, 4).cpu + m_wc.sfence(SimTime::ZERO).cpu;
        let uc_total = m_uc.write(SimTime::ZERO, a_uc, 4).cpu;
        assert!(wc_total < uc_total, "{wc_total} !< {uc_total}");
    }

    #[test]
    #[should_panic(expected = "coherent interconnect")]
    fn wb_mapping_rejected_on_pcie() {
        let mut m = HostMmio::new(PcieConfig::pcie());
        let _ = m.map_region(PteType::WriteBack, 1);
    }

    #[test]
    fn coherent_mode_invalidates_on_device_write() {
        let mut m = HostMmio::new(PcieConfig::coherent_upi());
        let r = m.map_region(PteType::WriteBack, 8);
        let a = LineAddr::new(r, 0);
        let _ = m.read(SimTime::ZERO, a);
        let hit = m.read(SimTime::from_us(1), a);
        assert!(hit.hit);
        m.note_device_write(a, SimTime::from_us(2));
        // Hardware coherence: next read misses and sees fresh data.
        let fresh = m.read(SimTime::from_us(3), a);
        assert!(!fresh.hit);
        assert!(fresh.snapshot_at > SimTime::from_us(2));
        assert!(!m.is_stale(a));
    }

    #[test]
    fn coherent_clflush_is_free() {
        let mut m = HostMmio::new(PcieConfig::coherent_upi());
        let r = m.map_region(PteType::WriteBack, 8);
        assert_eq!(m.clflush(SimTime::ZERO, LineAddr::new(r, 0)), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_rejects_out_of_bounds() {
        let (mut m, a) = mmio(PteType::Uncacheable);
        let _ = m.read(SimTime::ZERO, LineAddr::new(a.region, 64));
    }

    #[test]
    fn per_line_state_covers_only_touched_lines() {
        let mut m = HostMmio::new(PcieConfig::pcie());
        let r = m.map_region(PteType::WriteThrough, 1_000_000);
        let a = LineAddr::new(r, 3);
        let _ = m.read(SimTime::ZERO, a);
        m.note_device_write(a, SimTime::from_us(1));
        let _ = m.clflush(SimTime::from_us(2), LineAddr::new(r, 999_999));
        assert!(!m.is_stale(LineAddr::new(r, 999_999)));
        let region = &m.regions[r.0 as usize];
        assert!(
            region.cache.len() <= 4,
            "{} cache entries",
            region.cache.len()
        );
        assert!(
            region.device_writes.len() <= 4,
            "{} device-write entries",
            region.device_writes.len()
        );
    }

    #[test]
    fn wt_store_refreshes_local_snapshot() {
        let (mut m, a) = mmio(PteType::WriteThrough);
        let _ = m.read(SimTime::ZERO, a);
        let _ = m.write(SimTime::from_us(2), a, 1);
        let hit = m.read(SimTime::from_us(3), a);
        assert!(hit.hit);
        assert!(hit.snapshot_at >= SimTime::from_us(2));
    }
}
