//! The database's memory footprint model for the SOL experiment (§7.4).
//!
//! The paper's RocksDB instance holds 10 billion key-value pairs in
//! ~100 GiB of DRAM, grouped by SOL into 256 KiB batches (64 × 4 KiB
//! pages). Only a skewed subset is hot: after three epochs SOL demotes
//! cold batches and the resident set shrinks from ~102 GiB to ~21.3 GiB
//! (−79%).
//!
//! [`DbFootprint`] models pages and batches *symbolically* (no 100 GiB
//! allocation): each batch has a true hotness derived from a skewed
//! access pattern; "running the workload" sets access bits
//! probabilistically per scan window, which is exactly the signal SOL's
//! Thompson sampler consumes.

use rand::rngs::SmallRng;
use rand::Rng;
use wave_core::workload::MemPhase;
use wave_sim::SimTime;

/// Footprint configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FootprintConfig {
    /// Total resident bytes at startup (~102 GiB in the paper).
    pub total_bytes: u64,
    /// Page size (4 KiB).
    pub page_bytes: u64,
    /// Pages per SOL batch (64 ⇒ 256 KiB batches).
    pub pages_per_batch: u64,
    /// Fraction of batches that are genuinely hot (the paper's workload
    /// leaves ~21% resident after convergence).
    pub hot_fraction: f64,
    /// Probability a *hot* batch is touched within a 300 ms scan window.
    pub hot_touch_prob: f64,
    /// Probability a *cold* batch is touched within a window (noise).
    pub cold_touch_prob: f64,
    /// Fraction of batches (the front of the address space) whose
    /// access pattern is *ambivalent*: touched with near-coin-flip
    /// probability each window, so SOL never gains confidence in them
    /// and keeps them on the fastest scan rung. The knob that makes
    /// scan *work* non-uniform across a partitioned batch space (0.0 in
    /// the paper's workload).
    pub flappy_fraction: f64,
    /// Touch probability of the ambivalent batches.
    pub flappy_touch_prob: f64,
}

impl FootprintConfig {
    /// The paper's configuration, scaled by `scale` (1.0 = full
    /// 102 GiB; tests use ~1e-3).
    pub fn paper(scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0,1]");
        FootprintConfig {
            total_bytes: (102.0 * (1u64 << 30) as f64 * scale) as u64,
            page_bytes: 4096,
            pages_per_batch: 64,
            hot_fraction: 0.209, // converges to ~21.3/102
            hot_touch_prob: 0.85,
            cold_touch_prob: 0.02,
            flappy_fraction: 0.0,
            flappy_touch_prob: 0.5,
        }
    }

    /// The paper's configuration with the front `flappy` fraction of
    /// the space made ambivalent — the skewed-scan-load workload the
    /// rebalance experiments drive.
    pub fn skewed(scale: f64, flappy: f64) -> Self {
        assert!((0.0..=1.0).contains(&flappy), "flappy fraction in [0,1]");
        FootprintConfig {
            flappy_fraction: flappy,
            ..Self::paper(scale)
        }
    }

    /// Batches in the ambivalent front region.
    pub fn flappy_batches(&self) -> usize {
        (self.batches() as f64 * self.flappy_fraction).round() as usize
    }

    /// Number of batches in the address space.
    pub fn batches(&self) -> usize {
        (self.total_bytes / (self.page_bytes * self.pages_per_batch)) as usize
    }
}

/// How batch hotness is assigned across the address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Hot batches are clustered at the front of the space (index
    /// files, hot SSTs).
    Clustered,
    /// Hot batches are spread pseudo-randomly.
    Scattered,
}

/// The symbolic page/batch model of the database's resident memory.
#[derive(Debug)]
pub struct DbFootprint {
    cfg: FootprintConfig,
    hot: Vec<bool>,
    resident: Vec<bool>,
    /// First batch of the ambivalent window (wraps around the space).
    /// Zero at construction; [`DbFootprint::apply_phase`] moves it.
    flappy_start: usize,
    /// Batches in the ambivalent window (precomputed from
    /// `cfg.flappy_batches()` — `sample_access` is the hot loop).
    flappy_len: usize,
    /// Construction seed and layout, kept so phase changes can re-derive
    /// the hot set deterministically (`seed ^ phase.reseed`).
    seed: u64,
    pattern: AccessPattern,
}

/// Assigns `hot_count` hot batches over `n` according to `pattern`.
fn assign_hot(n: usize, hot_count: usize, pattern: AccessPattern, seed: u64) -> Vec<bool> {
    let mut hot = vec![false; n];
    match pattern {
        AccessPattern::Clustered => {
            for h in hot.iter_mut().take(hot_count) {
                *h = true;
            }
        }
        AccessPattern::Scattered => {
            let mut rng = wave_sim::rng(seed);
            let mut assigned = 0;
            while assigned < hot_count.min(n) {
                let i = rng.random_range(0..n);
                if !hot[i] {
                    hot[i] = true;
                    assigned += 1;
                }
            }
        }
    }
    hot
}

impl DbFootprint {
    /// Builds the footprint with the given hotness layout.
    pub fn new(cfg: FootprintConfig, pattern: AccessPattern, seed: u64) -> Self {
        let n = cfg.batches();
        assert!(n > 0, "address space too small for one batch");
        let hot_count = (n as f64 * cfg.hot_fraction).round() as usize;
        DbFootprint {
            flappy_start: 0,
            flappy_len: cfg.flappy_batches(),
            cfg,
            hot: assign_hot(n, hot_count, pattern, seed),
            resident: vec![true; n],
            seed,
            pattern,
        }
    }

    /// Applies a workload phase change: re-derives the hot set with the
    /// phase's `hot_fraction` (seeded `seed ^ reseed`, so each phase
    /// flips a deterministic but distinct subset) and moves the
    /// ambivalent window to `flappy_offset` around the space. Residency
    /// is untouched — promotions and demotions remain SOL's job; the
    /// phase changes the ground truth it must re-learn.
    pub fn apply_phase(&mut self, phase: &MemPhase) {
        let n = self.hot.len();
        self.cfg.hot_fraction = phase.hot_fraction;
        self.cfg.flappy_fraction = phase.flappy_fraction;
        let hot_count = (n as f64 * phase.hot_fraction).round() as usize;
        self.hot = assign_hot(n, hot_count, self.pattern, self.seed ^ phase.reseed);
        self.flappy_len = self.cfg.flappy_batches();
        self.flappy_start = ((n as f64 * phase.flappy_offset).round() as usize) % n;
    }

    /// Number of batches.
    pub fn batches(&self) -> usize {
        self.hot.len()
    }

    /// Whether batch `i` is genuinely hot (oracle view, for accuracy
    /// metrics).
    pub fn is_hot(&self, i: usize) -> bool {
        self.hot[i]
    }

    /// Whether batch `i` is currently in the fast tier.
    pub fn is_resident(&self, i: usize) -> bool {
        self.resident[i]
    }

    /// Whether batch `i` falls inside the ambivalent window (which may
    /// wrap around the end of the space after a phase moved it).
    pub fn is_flappy(&self, i: usize) -> bool {
        let n = self.hot.len();
        (i + n - self.flappy_start) % n < self.flappy_len
    }

    /// Simulates the workload touching memory during one scan window:
    /// returns whether batch `i`'s access bits would be found set.
    pub fn sample_access(&self, i: usize, rng: &mut SmallRng) -> bool {
        let p = if self.is_flappy(i) {
            self.cfg.flappy_touch_prob
        } else if self.hot[i] {
            self.cfg.hot_touch_prob
        } else {
            self.cfg.cold_touch_prob
        };
        rng.random::<f64>() < p
    }

    /// Moves batch `i` to the slow tier (demotion).
    pub fn demote(&mut self, i: usize) {
        self.resident[i] = false;
    }

    /// Moves batch `i` back to the fast tier (promotion).
    pub fn promote(&mut self, i: usize) {
        self.resident[i] = true;
    }

    /// Fast-tier fraction of the original footprint.
    pub fn resident_fraction(&self) -> f64 {
        self.resident.iter().filter(|&&r| r).count() as f64 / self.resident.len() as f64
    }

    /// Extra latency a GET pays when it touches a demoted hot batch
    /// (swap-in from the slow tier). Used for the §7.4.2 "effect on
    /// RocksDB" tail check.
    pub fn fault_penalty(&self) -> SimTime {
        SimTime::from_us(20)
    }

    /// The configuration.
    pub fn config(&self) -> FootprintConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FootprintConfig {
        FootprintConfig::paper(0.001)
    }

    #[test]
    fn paper_scale_batch_count() {
        let full = FootprintConfig::paper(1.0);
        // 102 GiB / 256 KiB = 417,792 batches.
        assert_eq!(full.batches(), 417_792);
    }

    #[test]
    fn hot_fraction_assigned() {
        let f = DbFootprint::new(cfg(), AccessPattern::Scattered, 1);
        let hot = (0..f.batches()).filter(|&i| f.is_hot(i)).count();
        let frac = hot as f64 / f.batches() as f64;
        assert!((frac - 0.209).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn all_resident_at_startup() {
        let f = DbFootprint::new(cfg(), AccessPattern::Clustered, 1);
        assert!((f.resident_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn demotion_shrinks_footprint() {
        let mut f = DbFootprint::new(cfg(), AccessPattern::Clustered, 1);
        let before = f.resident_fraction();
        for i in 0..f.batches() {
            if !f.is_hot(i) {
                f.demote(i);
            }
        }
        let after = f.resident_fraction();
        assert!(
            after < before / 3.0,
            "cold demotion must cut ~79%: {after} vs {before}"
        );
        let frac = after / before;
        assert!((frac - 0.209).abs() < 0.03, "frac {frac}");
    }

    #[test]
    fn flappy_front_is_ambivalent() {
        let cfg = FootprintConfig::skewed(0.001, 0.5);
        let f = DbFootprint::new(cfg, AccessPattern::Scattered, 2);
        let split = cfg.flappy_batches();
        assert!(split > 0 && split < f.batches());
        let mut rng = wave_sim::rng(9);
        let (mut front, mut n) = (0u64, 0u64);
        for _ in 0..200 {
            for i in 0..split {
                n += 1;
                front += f.sample_access(i, &mut rng) as u64;
            }
        }
        let rate = front as f64 / n as f64;
        // Near coin-flip: neither the hot (0.85) nor cold (0.02) rate.
        assert!((rate - 0.5).abs() < 0.05, "front rate {rate}");
        // Default workload has no flappy region at all.
        assert_eq!(FootprintConfig::paper(0.001).flappy_batches(), 0);
    }

    #[test]
    fn phase_moves_the_flappy_window_and_redraws_the_hot_set() {
        use wave_sim::SimTime;
        let cfg = FootprintConfig::skewed(0.001, 0.25);
        let mut f = DbFootprint::new(cfg, AccessPattern::Scattered, 7);
        let n = f.batches();
        let before: Vec<bool> = (0..n).map(|i| f.is_hot(i)).collect();
        assert!(f.is_flappy(0) && !f.is_flappy(n / 2));

        let phase = wave_core::workload::MemPhase {
            at: SimTime::ZERO,
            hot_fraction: cfg.hot_fraction,
            flappy_fraction: 0.25,
            flappy_offset: 0.5,
            reseed: 1,
        };
        f.apply_phase(&phase);
        // The window moved to [0.5n, 0.75n)...
        assert!(!f.is_flappy(0) && f.is_flappy(n * 6 / 10));
        // ...the hot set was re-drawn (same fraction, different subset)...
        let after: Vec<bool> = (0..n).map(|i| f.is_hot(i)).collect();
        assert_ne!(before, after, "reseed must flip a subset");
        let frac = after.iter().filter(|&&h| h).count() as f64 / n as f64;
        assert!((frac - cfg.hot_fraction).abs() < 0.02, "frac {frac}");
        // ...and residency is untouched (SOL must re-learn, not be reset).
        assert!((f.resident_fraction() - 1.0).abs() < 1e-12);

        // Deterministic: same phase on a fresh twin lands identically.
        let mut g = DbFootprint::new(cfg, AccessPattern::Scattered, 7);
        g.apply_phase(&phase);
        let twin: Vec<bool> = (0..n).map(|i| g.is_hot(i)).collect();
        assert_eq!(after, twin);
    }

    #[test]
    fn flappy_window_wraps_around_the_space() {
        use wave_sim::SimTime;
        let cfg = FootprintConfig::skewed(0.001, 0.2);
        let mut f = DbFootprint::new(cfg, AccessPattern::Clustered, 1);
        let n = f.batches();
        f.apply_phase(&wave_core::workload::MemPhase {
            at: SimTime::ZERO,
            hot_fraction: cfg.hot_fraction,
            flappy_fraction: 0.2,
            flappy_offset: 0.9,
            reseed: 2,
        });
        // Window [0.9n, 1.1n) wraps: tail and head flappy, middle not.
        assert!(f.is_flappy(n - 1) && f.is_flappy(0));
        assert!(!f.is_flappy(n / 2));
    }

    #[test]
    fn hot_batches_touch_more() {
        let f = DbFootprint::new(cfg(), AccessPattern::Scattered, 2);
        let mut rng = wave_sim::rng(3);
        let (mut hot_touches, mut hot_n, mut cold_touches, mut cold_n) = (0, 0, 0, 0);
        for _ in 0..50 {
            for i in 0..f.batches() {
                let touched = f.sample_access(i, &mut rng);
                if f.is_hot(i) {
                    hot_n += 1;
                    hot_touches += touched as u64;
                } else {
                    cold_n += 1;
                    cold_touches += touched as u64;
                }
            }
        }
        let hot_rate = hot_touches as f64 / hot_n as f64;
        let cold_rate = cold_touches as f64 / cold_n as f64;
        assert!(hot_rate > 0.8, "hot {hot_rate}");
        assert!(cold_rate < 0.05, "cold {cold_rate}");
    }
}
