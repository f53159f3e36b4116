//! MMIO model equivalence: [`HostMmio`] vs. the dense-array reference
//! design.
//!
//! `HostMmio` used to keep every piece of per-line state in arrays sized
//! to the mapped region: a pending-word counter per line that `sfence`
//! zeroed, a cache entry and a device-write time. It now keeps only the
//! lines that hold pending words, the way the CPU's WC buffer does, and
//! grows the cache and device-write state up to the highest line touched.
//! The correctness contract is exact behavioural equivalence: the same
//! [`WriteOutcome`] for every store (in particular the same auto-drain
//! decisions), the same [`ReadOutcome`] for every load, the same costs
//! for fences, flushes and prefetches, the same staleness, and the same
//! final [`MmioStats`].
//!
//! The suite drives the real model and a deliberately naive reference
//! (the old dense design, trusted by inspection) through identical
//! operation streams. Three region sets run:
//!
//! * small UC, WC and WT regions on PCIe, so writes keep landing on fresh
//!   lines, on lines with pending words and on lines that just
//!   auto-drained;
//! * the same on a coherent interconnect with a write-back region, where
//!   device writes invalidate host snapshots;
//! * a 4,096-line WT region beside the small ones, whose first touches
//!   land at high line indices in random order.
//!
//! The last two also note device writes out of time order and read a
//! line at the instant an in-flight device write lands.

use proptest::prelude::*;
use wave_pcie::mmio::MmioStats;
use wave_pcie::{HostMmio, LineAddr, PcieConfig, PteType, ReadOutcome, RegionId, WriteOutcome};
use wave_sim::SimTime;

/// SplitMix64 — operand stream derived deterministically from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A region set both models map, in order. The first two are always
/// the WC regions (one tiny), where stores are steered.
type Regions = [(PteType, u64); 4];

/// PCIe: two WC regions, a UC region and a WT region.
const REGIONS: Regions = [
    (PteType::WriteCombining, 6),
    (PteType::WriteCombining, 2),
    (PteType::Uncacheable, 4),
    (PteType::WriteThrough, 4),
];

/// Coherent interconnect: the WT region becomes write-back.
const COHERENT_REGIONS: Regions = [
    (PteType::WriteCombining, 6),
    (PteType::WriteCombining, 2),
    (PteType::Uncacheable, 4),
    (PteType::WriteBack, 4),
];

/// PCIe with a large WT region.
const LARGE_REGIONS: Regions = [
    (PteType::WriteCombining, 6),
    (PteType::WriteCombining, 2),
    (PteType::Uncacheable, 4),
    (PteType::WriteThrough, 4_096),
];

/// A cached snapshot: `(ready_at, snapshot_at)`.
type RefLine = (SimTime, SimTime);

struct RefRegion {
    pte: PteType,
    cache: Vec<Option<RefLine>>,
    /// Words pending in the write-combining buffer per line (0 = none).
    wc: Vec<u64>,
    device_writes: Vec<Option<SimTime>>,
}

/// The pre-change design, distilled: every piece of per-line state,
/// including the WC counters, in dense per-region arrays sized at map
/// time, and an `sfence` that zeroes every counter. On a coherent link a
/// device write evicts the host's copy, a read drops a copy that a
/// landed device write has made stale, and `clflush` is free.
struct RefMmio {
    cfg: PcieConfig,
    regions: Vec<RefRegion>,
    stats: MmioStats,
}

impl RefMmio {
    fn new(cfg: PcieConfig) -> Self {
        RefMmio {
            cfg,
            regions: Vec::new(),
            stats: MmioStats::default(),
        }
    }

    fn map_region(&mut self, pte: PteType, lines: u64) {
        let n = lines as usize;
        self.regions.push(RefRegion {
            pte,
            cache: vec![None; n],
            wc: vec![0; n],
            device_writes: vec![None; n],
        });
    }

    fn note_device_write(&mut self, addr: LineAddr, at: SimTime) {
        let coherent = self.cfg.is_coherent();
        let r = &mut self.regions[addr.region.0 as usize];
        let w = &mut r.device_writes[addr.line as usize];
        *w = Some(w.map_or(at, |old| old.max(at)));
        if coherent {
            r.cache[addr.line as usize] = None;
        }
    }

    fn read(&mut self, now: SimTime, addr: LineAddr) -> ReadOutcome {
        let read = SimTime::from_ns(self.cfg.mmio_read_ns);
        let hit = SimTime::from_ns(self.cfg.wt_hit_ns);
        let one_way = SimTime::from_ns(self.cfg.one_way_ns);
        let coherent = self.cfg.is_coherent();
        let r = &mut self.regions[addr.region.0 as usize];
        let line = &mut r.cache[addr.line as usize];
        if let (true, Some((_, snapshot_at)), Some(w)) =
            (coherent, *line, r.device_writes[addr.line as usize])
        {
            if w > snapshot_at && w <= now {
                *line = None;
            }
        }
        if !r.pte.caches_loads() {
            self.stats.read_misses += 1;
            return ReadOutcome {
                cpu: read,
                snapshot_at: now + one_way,
                hit: false,
            };
        }
        match *line {
            Some((ready_at, snapshot_at)) if ready_at <= now => {
                self.stats.read_hits += 1;
                ReadOutcome {
                    cpu: hit,
                    snapshot_at,
                    hit: true,
                }
            }
            Some((ready_at, snapshot_at)) => {
                self.stats.read_fill_waits += 1;
                ReadOutcome {
                    cpu: ready_at.saturating_sub(now) + hit,
                    snapshot_at,
                    hit: false,
                }
            }
            None => {
                self.stats.read_misses += 1;
                *line = Some((now + read, now + one_way));
                ReadOutcome {
                    cpu: read,
                    snapshot_at: now + one_way,
                    hit: false,
                }
            }
        }
    }

    fn write(&mut self, now: SimTime, addr: LineAddr, words: u64) -> WriteOutcome {
        let one_way = SimTime::from_ns(self.cfg.one_way_ns);
        let words_per_line = self.cfg.words_per_line();
        self.stats.writes += words;
        let r = &mut self.regions[addr.region.0 as usize];
        let idx = addr.line as usize;
        if r.pte != PteType::WriteCombining {
            let cpu = SimTime::from_ns(self.cfg.mmio_write_uc_ns * words);
            if let Some((_, snapshot_at)) = &mut r.cache[idx] {
                *snapshot_at = (*snapshot_at).max(now);
            }
            return WriteOutcome {
                cpu,
                visible_at: Some(now + cpu + one_way),
            };
        }
        let cpu = SimTime::from_ns(self.cfg.mmio_write_wc_ns * words);
        r.wc[idx] += words;
        if r.wc[idx] >= words_per_line {
            r.wc[idx] = 0;
            self.stats.wc_autodrains += 1;
            WriteOutcome {
                cpu,
                visible_at: Some(now + cpu + one_way),
            }
        } else {
            WriteOutcome {
                cpu,
                visible_at: None,
            }
        }
    }

    fn sfence(&mut self, now: SimTime) -> WriteOutcome {
        self.stats.fences += 1;
        let cpu = SimTime::from_ns(self.cfg.wc_flush_ns);
        for r in &mut self.regions {
            r.wc.fill(0);
        }
        WriteOutcome {
            cpu,
            visible_at: Some(now + cpu + SimTime::from_ns(self.cfg.one_way_ns)),
        }
    }

    fn clflush(&mut self, addr: LineAddr) -> SimTime {
        if self.cfg.is_coherent() {
            return SimTime::ZERO;
        }
        self.stats.flushes += 1;
        self.regions[addr.region.0 as usize].cache[addr.line as usize] = None;
        SimTime::from_ns(self.cfg.clflush_ns)
    }

    fn prefetch(&mut self, now: SimTime, addr: LineAddr) -> SimTime {
        let r = &mut self.regions[addr.region.0 as usize];
        if !r.pte.caches_loads() {
            return SimTime::ZERO;
        }
        self.stats.prefetches += 1;
        r.cache[addr.line as usize].get_or_insert((
            now + SimTime::from_ns(self.cfg.mmio_read_ns),
            now + SimTime::from_ns(self.cfg.one_way_ns),
        ));
        SimTime::from_ns(self.cfg.prefetch_issue_ns)
    }

    fn is_stale(&self, addr: LineAddr) -> bool {
        let r = &self.regions[addr.region.0 as usize];
        match (
            r.cache[addr.line as usize],
            r.device_writes[addr.line as usize],
        ) {
            (Some((_, snapshot_at)), Some(w)) => w > snapshot_at,
            _ => false,
        }
    }
}

/// Runs one operation stream through both models and compares every
/// outcome, then the final counters.
fn drive(ops: &[u8], seed: u64) {
    drive_on(PcieConfig::pcie(), &REGIONS, ops, seed);
}

/// [`drive`] over a given interconnect and region set. In a region of
/// more than 64 lines half the accesses go to 8 lines picked from its
/// top quarter, so lines are revisited (hits, stale snapshots, refills)
/// and the first touches land high; the rest are uniform.
fn drive_on(cfg: PcieConfig, regions: &Regions, ops: &[u8], seed: u64) {
    let mut real = HostMmio::new(cfg.clone());
    let mut refm = RefMmio::new(cfg);
    for &(pte, lines) in regions {
        real.map_region(pte, lines);
        refm.map_region(pte, lines);
    }
    let mut rng = Rng(seed);
    let hot: Vec<Vec<u64>> = regions
        .iter()
        .map(|&(_, lines)| (0..8).map(|_| lines - 1 - rng.below(lines / 4)).collect())
        .collect();
    let mut now = SimTime::ZERO;
    for (i, &op) in ops.iter().enumerate() {
        now += SimTime::from_ns(rng.below(1_500));
        // Writes favour the WC regions, where the buffer lives.
        let region = match op {
            0 | 1 => rng.below(2),
            _ => rng.below(regions.len() as u64),
        } as usize;
        let lines = regions[region].1;
        let line = if lines > 64 && rng.below(2) == 0 {
            hot[region][rng.below(8) as usize]
        } else {
            rng.below(lines)
        };
        let addr = LineAddr::new(RegionId(region as u32), line);
        match op {
            0 | 1 => {
                let words = 1 + rng.below(8);
                assert_eq!(
                    real.write(now, addr, words),
                    refm.write(now, addr, words),
                    "op {i}: write {addr:?} x{words}"
                );
            }
            2 => assert_eq!(real.sfence(now), refm.sfence(now), "op {i}: sfence"),
            3 => assert_eq!(
                real.read(now, addr),
                refm.read(now, addr),
                "op {i}: read {addr:?}"
            ),
            4 => assert_eq!(
                real.clflush(now, addr),
                refm.clflush(addr),
                "op {i}: clflush {addr:?}"
            ),
            5 => assert_eq!(
                real.prefetch(now, addr),
                refm.prefetch(now, addr),
                "op {i}: prefetch {addr:?}"
            ),
            6 => {
                real.note_device_write(addr, now);
                refm.note_device_write(addr, now);
                assert_eq!(
                    real.is_stale(addr),
                    refm.is_stale(addr),
                    "op {i}: device write {addr:?}"
                );
            }
            // Device writes noted out of time order, the later one still
            // in flight when the host refills the line, then a read at
            // the instant it lands.
            _ => {
                let lands = now + SimTime::from_ns(1_000);
                for at in [lands, now] {
                    real.note_device_write(addr, at);
                    refm.note_device_write(addr, at);
                }
                assert_eq!(real.read(now, addr), refm.read(now, addr), "op {i}");
                assert_eq!(real.is_stale(addr), refm.is_stale(addr), "op {i}");
                now = lands;
                assert_eq!(real.read(now, addr), refm.read(now, addr), "op {i}");
            }
        }
    }
    assert_eq!(real.stats(), refm.stats);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn wc_buffer_matches_dense_reference(
        ops in prop::collection::vec(0u8..7, 1..400),
        seed in 0u64..u64::MAX,
    ) {
        drive(&ops, seed);
    }

    /// Store-heavy streams with rare fences: lines fill up and
    /// auto-drain between fences, so the buffer grows and shrinks.
    #[test]
    fn wc_buffer_matches_under_store_pressure(
        raw in prop::collection::vec(0u8..12, 1..400),
        seed in 0u64..u64::MAX,
    ) {
        let ops: Vec<u8> = raw.iter().map(|&o| if o == 11 { 2 } else { o % 2 }).collect();
        drive(&ops, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hardware coherence over a write-back region: device writes evict
    /// host copies and `clflush` is free.
    #[test]
    fn coherent_link_matches_dense_reference(
        ops in prop::collection::vec(0u8..8, 1..400),
        seed in 0u64..u64::MAX,
    ) {
        drive_on(PcieConfig::coherent_upi(), &COHERENT_REGIONS, &ops, seed);
    }

    /// A 4,096-line region whose per-line state grows from its first,
    /// high, randomly ordered touches.
    #[test]
    fn large_region_matches_dense_reference(
        ops in prop::collection::vec(0u8..8, 1..400),
        seed in 0u64..u64::MAX,
    ) {
        drive_on(PcieConfig::pcie(), &LARGE_REGIONS, &ops, seed);
    }
}

/// A fixed dense interleaving as a plain regression test.
#[test]
fn fixed_interleaving_regression() {
    let ops: Vec<u8> = (0..300).map(|i| (i * 5 % 7) as u8).collect();
    drive(&ops, 0xDEAD_BEEF);
}
