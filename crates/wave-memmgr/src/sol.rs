//! The SOL policy: Thompson-sampling memory tiering (§4.2).
//!
//! Per page batch, SOL maintains a Beta(α, β) posterior over "this batch
//! is hot". Each scan observes the batch's access bits (α += touched,
//! β += untouched), draws θ ~ Beta(α, β), and classifies the batch hot if
//! θ exceeds the threshold. Confident batches are scanned less often —
//! the frequency ladder runs 600 ms, 1.2 s, 2.4 s, … 9.6 s (§7.4.1) —
//! because every scan costs a TLB flush plus policy compute. Once per
//! 38.4 s epoch (4× the slowest scan), cold batches are demoted to the
//! slow tier and hot ones promoted back.

use rand::rngs::SmallRng;
use wave_kvstore::DbFootprint;
use wave_sim::dist::Beta;
use wave_sim::SimTime;

/// SOL configuration (paper values by default).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolConfig {
    /// Fastest scan period (600 ms in §7.4.1).
    pub base_period: SimTime,
    /// Number of period doublings (600 ms … 9.6 s = 5 rungs).
    pub period_rungs: u32,
    /// Epoch length (4× the slowest period = 38.4 s).
    pub epoch: SimTime,
    /// Posterior-draw threshold above which a batch is hot.
    pub hot_threshold: f64,
    /// Observations before a batch may slow its scan rate.
    pub confidence_scans: u32,
}

impl SolConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        SolConfig {
            base_period: SimTime::from_ms(600),
            period_rungs: 5,
            epoch: SimTime::from_ms(38_400),
            hot_threshold: 0.5,
            confidence_scans: 3,
        }
    }

    /// Slowest scan period (9.6 s for the paper config).
    pub fn slowest_period(&self) -> SimTime {
        self.base_period * (1 << (self.period_rungs - 1))
    }
}

impl Default for SolConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[derive(Debug, Clone, Copy)]
struct BatchState {
    alpha: f64,
    beta: f64,
    rung: u32,
    next_scan: SimTime,
    scans: u32,
    classified_hot: bool,
}

/// Aggregate statistics for one policy iteration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolStats {
    /// Batches whose access bits were scanned this iteration.
    pub scanned: u64,
    /// Batches currently classified hot.
    pub hot: u64,
    /// Batches currently classified cold.
    pub cold: u64,
    /// Batches demoted at the last epoch boundary.
    pub demoted: u64,
    /// Batches promoted at the last epoch boundary.
    pub promoted: u64,
}

/// The SOL agent policy state.
///
/// A policy may manage the whole batch space (the single-agent
/// deployment), a contiguous slice of it ([`SolPolicy::with_base`]),
/// or — once dynamic rebalancing has moved batches between shards — an
/// arbitrary **non-contiguous set** of global batch ids
/// ([`SolPolicy::with_batches`]). All batch indices crossing the API —
/// due lists, scan lists, flips, migrations — are **global**; the
/// sorted id list is an internal translation onto the local state
/// vector ([`SolPolicy::local_index`]).
#[derive(Debug)]
pub struct SolPolicy {
    cfg: SolConfig,
    batches: Vec<BatchState>,
    /// Global batch id of each local index, strictly ascending.
    ids: Vec<usize>,
    last_epoch: SimTime,
    /// Classification flips observed by the most recent iteration —
    /// the migration decisions the agent stages back to the host.
    flips: Vec<(usize, bool)>,
}

/// The uninformative prior every batch starts from (and re-pulls after
/// a restart or a rebalance handoff).
fn fresh_batch() -> BatchState {
    BatchState {
        alpha: 1.0,
        beta: 1.0,
        rung: 0,
        next_scan: SimTime::ZERO,
        scans: 0,
        classified_hot: true, // optimistic: everything starts resident
    }
}

impl SolPolicy {
    /// Creates the policy over `n` batches with an uninformative prior.
    pub fn new(cfg: SolConfig, n: usize) -> Self {
        Self::with_base(cfg, n, 0)
    }

    /// Creates the policy over the global batch slice
    /// `[base, base + n)` — one shard's share of a statically
    /// partitioned address space.
    pub fn with_base(cfg: SolConfig, n: usize, base: usize) -> Self {
        Self::with_batches(cfg, (base..base + n).collect())
    }

    /// Creates the policy over an explicit set of global batch ids —
    /// one shard's (possibly non-contiguous) share of a dynamically
    /// rebalanced address space.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is empty or not strictly ascending.
    pub fn with_batches(cfg: SolConfig, ids: Vec<usize>) -> Self {
        assert!(!ids.is_empty(), "need at least one batch");
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "batch ids must be strictly ascending"
        );
        SolPolicy {
            cfg,
            batches: vec![fresh_batch(); ids.len()],
            ids,
            last_epoch: SimTime::ZERO,
            flips: Vec::new(),
        }
    }

    /// Number of batches under management.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// Global index of the first (lowest) managed batch.
    pub fn base(&self) -> usize {
        self.ids[0]
    }

    /// Whether the policy manages no batches (never true).
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// The managed global batch ids, ascending.
    pub fn batch_ids(&self) -> &[usize] {
        &self.ids
    }

    /// The local state index of a (global) batch id: its row in this
    /// policy's state vector. Decision slots do not use it — they are
    /// indexed by the global id.
    ///
    /// # Panics
    ///
    /// Panics if the batch is not managed by this policy.
    pub fn local_index(&self, global: usize) -> usize {
        self.ids
            .binary_search(&global)
            .unwrap_or_else(|_| panic!("batch {global} is not managed by this policy"))
    }

    /// Posterior mean for a (global) batch index (test/telemetry).
    pub fn posterior_mean(&self, i: usize) -> f64 {
        let b = &self.batches[self.local_index(i)];
        b.alpha / (b.alpha + b.beta)
    }

    /// Which (global) batches are due for a scan at `now`.
    pub fn due_batches(&self, now: SimTime) -> Vec<usize> {
        self.batches
            .iter()
            .zip(&self.ids)
            .filter(|(b, _)| b.next_scan <= now)
            .map(|(_, &id)| id)
            .collect()
    }

    /// Host-replayed handoff, recipient side: adopts the given global
    /// batches with a fresh uninformative prior — the same "re-pull
    /// from host truth" recipe as a post-crash restart. Every adopted
    /// batch is due at the next scan, and its first scan re-derives its
    /// classification from the page tables rather than from any
    /// shipped donor state.
    ///
    /// # Panics
    ///
    /// Panics if a batch is already managed here or appears twice in
    /// `adopted`.
    pub fn adopt_batches(&mut self, adopted: &[usize]) {
        if adopted.is_empty() {
            return;
        }
        let mut add = adopted.to_vec();
        add.sort_unstable();
        assert!(
            add.windows(2).all(|w| w[0] < w[1]),
            "duplicate batch in adoption"
        );
        // One sorted-merge pass (O(n + k), not k O(n) inserts).
        let old_ids = std::mem::take(&mut self.ids);
        let old_batches = std::mem::take(&mut self.batches);
        self.ids = Vec::with_capacity(old_ids.len() + add.len());
        self.batches = Vec::with_capacity(old_ids.len() + add.len());
        let mut old = old_ids.into_iter().zip(old_batches).peekable();
        let mut new = add.into_iter().peekable();
        loop {
            match (old.peek(), new.peek()) {
                (Some(&(o, _)), Some(&n)) if o == n => {
                    panic!("adopting batch {n} this policy already manages")
                }
                (Some(&(o, _)), Some(&n)) if o < n => {
                    let (id, b) = old.next().expect("peeked");
                    self.ids.push(id);
                    self.batches.push(b);
                }
                (_, Some(_)) => {
                    self.ids.push(new.next().expect("peeked"));
                    self.batches.push(fresh_batch());
                }
                (Some(_), None) => {
                    let (id, b) = old.next().expect("peeked");
                    self.ids.push(id);
                    self.batches.push(b);
                }
                (None, None) => break,
            }
        }
    }

    /// Host-replayed handoff, donor side: forgets the given global
    /// batches. Their posteriors are deliberately dropped, not shipped —
    /// policy state is never checkpointed across owners (§6 "keep
    /// fault recovery simple").
    ///
    /// # Panics
    ///
    /// Panics if a batch is not managed here, or if the release would
    /// leave the policy empty.
    pub fn release_batches(&mut self, released: &[usize]) {
        if released.is_empty() {
            return;
        }
        let mut drop = released.to_vec();
        drop.sort_unstable();
        for &g in &drop {
            let _ = self.local_index(g); // membership check (panics if absent)
        }
        // One stable compaction pass (O(n log k), not k O(n) removes).
        let mut w = 0;
        for r in 0..self.ids.len() {
            if drop.binary_search(&self.ids[r]).is_err() {
                self.ids.swap(w, r);
                self.batches.swap(w, r);
                w += 1;
            }
        }
        self.ids.truncate(w);
        self.batches.truncate(w);
        assert!(!self.batches.is_empty(), "released the whole slice");
    }

    /// Runs one policy iteration at `now` against the workload's access
    /// pattern: scan due batches, update posteriors, Thompson-classify,
    /// and adapt scan frequencies. Returns iteration statistics.
    pub fn iterate(
        &mut self,
        now: SimTime,
        workload: &DbFootprint,
        rng: &mut SmallRng,
    ) -> SolStats {
        let due = self.due_batches(now);
        self.iterate_batches(now, &due, workload, rng)
    }

    /// Like [`SolPolicy::iterate`], but scans an explicit (global) batch
    /// list — the agent-side entry point, fed by the PTE deltas polled
    /// off the runtime's DMA ingest leg rather than recomputed locally.
    pub fn iterate_batches(
        &mut self,
        now: SimTime,
        due: &[usize],
        workload: &DbFootprint,
        rng: &mut SmallRng,
    ) -> SolStats {
        self.flips.clear();
        let mut stats = SolStats {
            scanned: due.len() as u64,
            ..SolStats::default()
        };
        for &i in due {
            let touched = workload.sample_access(i, rng);
            let local = self.local_index(i);
            let b = &mut self.batches[local];
            if touched {
                b.alpha += 1.0;
            } else {
                b.beta += 1.0;
            }
            b.scans += 1;
            let theta = Beta::new(b.alpha, b.beta).sample(rng);
            let was_hot = b.classified_hot;
            b.classified_hot = theta > self.cfg.hot_threshold;
            if b.classified_hot != was_hot {
                self.flips.push((i, b.classified_hot));
            }
            // Frequency adaptation: confident batches scan slower;
            // uncertain ones stay fast (the overhead-reduction loop the
            // paper describes).
            let mean = b.alpha / (b.alpha + b.beta);
            let confident = b.scans >= self.cfg.confidence_scans && (mean - 0.5).abs() > 0.25;
            if confident {
                b.rung = (b.rung + 1).min(self.cfg.period_rungs - 1);
            } else {
                b.rung = b.rung.saturating_sub(1);
            }
            let period = self.cfg.base_period * (1u64 << b.rung);
            b.next_scan = now + period;
        }
        for b in &self.batches {
            if b.classified_hot {
                stats.hot += 1;
            } else {
                stats.cold += 1;
            }
        }
        stats
    }

    /// Classification flips from the most recent iteration, in scan
    /// order: `(global_batch, now_hot)`. These are what the agent stages
    /// into its decision slots and ships back to the host (§4.2).
    pub fn flips(&self) -> &[(usize, bool)] {
        &self.flips
    }

    /// Whether an epoch boundary has passed since the last migration.
    pub fn epoch_due(&self, now: SimTime) -> bool {
        now.saturating_sub(self.last_epoch) >= self.cfg.epoch
    }

    /// Applies epoch migration: demotes cold batches, promotes hot ones.
    /// Returns `(demoted, promoted)` batch counts.
    pub fn epoch_migrate(&mut self, now: SimTime, footprint: &mut DbFootprint) -> (u64, u64) {
        self.last_epoch = now;
        let mut demoted = 0;
        let mut promoted = 0;
        for (b, &g) in self.batches.iter().zip(&self.ids) {
            if b.classified_hot && !footprint.is_resident(g) {
                footprint.promote(g);
                promoted += 1;
            } else if !b.classified_hot && footprint.is_resident(g) {
                footprint.demote(g);
                demoted += 1;
            }
        }
        (demoted, promoted)
    }

    /// Mean scan-ladder rung across batches (0 = fastest).
    pub fn mean_rung(&self) -> f64 {
        self.batches.iter().map(|b| b.rung as f64).sum::<f64>() / self.batches.len() as f64
    }

    /// Classification accuracy against the workload oracle (tests).
    pub fn accuracy(&self, workload: &DbFootprint) -> f64 {
        let correct = self
            .batches
            .iter()
            .zip(&self.ids)
            .filter(|(b, &g)| b.classified_hot == workload.is_hot(g))
            .count();
        correct as f64 / self.batches.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wave_kvstore::{AccessPattern, FootprintConfig};

    fn small_world() -> (DbFootprint, SolPolicy, SmallRng) {
        let cfg = FootprintConfig::paper(0.002); // ~835 batches
        let fp = DbFootprint::new(cfg, AccessPattern::Scattered, 7);
        let policy = SolPolicy::new(SolConfig::paper(), fp.batches());
        (fp, policy, wave_sim::rng(11))
    }

    /// Drives scan iterations every base period for `epochs` epochs.
    fn run_epochs(
        fp: &mut DbFootprint,
        policy: &mut SolPolicy,
        rng: &mut SmallRng,
        epochs: u32,
    ) -> SolStats {
        let cfg = SolConfig::paper();
        let mut now = SimTime::ZERO;
        let mut last = SolStats::default();
        for _ in 0..epochs {
            let end = now + cfg.epoch;
            while now < end {
                last = policy.iterate(now, fp, rng);
                now += cfg.base_period;
            }
            let (d, p) = policy.epoch_migrate(now, fp);
            last.demoted = d;
            last.promoted = p;
        }
        last
    }

    #[test]
    fn classification_converges_to_hot_fraction() {
        let (mut fp, mut policy, mut rng) = small_world();
        run_epochs(&mut fp, &mut policy, &mut rng, 3);
        let acc = policy.accuracy(&fp);
        assert!(acc > 0.93, "accuracy {acc}");
    }

    #[test]
    fn footprint_drops_79_percent_after_three_epochs() {
        // The §7.4.2 headline: ~102 GiB -> ~21.3 GiB (-79%).
        let (mut fp, mut policy, mut rng) = small_world();
        run_epochs(&mut fp, &mut policy, &mut rng, 3);
        let frac = fp.resident_fraction();
        assert!(
            (frac - 0.21).abs() < 0.05,
            "resident fraction {frac} (paper: 0.209)"
        );
    }

    #[test]
    fn scan_frequency_adapts_down() {
        let (mut fp, mut policy, mut rng) = small_world();
        let initial = policy.mean_rung();
        run_epochs(&mut fp, &mut policy, &mut rng, 2);
        // After convergence most batches should sit on slow rungs; the
        // mean rung must climb well past the starting point.
        let converged = policy.mean_rung();
        assert_eq!(initial, 0.0);
        assert!(
            converged > 2.5,
            "mean rung {converged} — ladder should slow confident batches"
        );
    }

    #[test]
    fn epoch_boundary_detection() {
        let (_fp, mut policy, _rng) = small_world();
        assert!(!policy.epoch_due(SimTime::from_ms(100)));
        assert!(policy.epoch_due(SimTime::from_ms(38_400)));
        let cfgfp = FootprintConfig::paper(0.002);
        let mut fp = DbFootprint::new(cfgfp, AccessPattern::Clustered, 1);
        policy.epoch_migrate(SimTime::from_ms(38_400), &mut fp);
        assert!(!policy.epoch_due(SimTime::from_ms(38_500)));
    }

    #[test]
    fn iterate_batches_matches_iterate_and_reports_flips() {
        // Two policies, same seed: one driven by the internal due list,
        // one by the explicit batch list — identical evolution.
        let (fp, mut a, mut rng_a) = small_world();
        let (_, mut b, mut rng_b) = small_world();
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            let sa = a.iterate(now, &fp, &mut rng_a);
            let due = b.due_batches(now);
            let sb = b.iterate_batches(now, &due, &fp, &mut rng_b);
            assert_eq!(sa, sb);
            assert_eq!(a.flips(), b.flips());
            now += SimTime::from_ms(600);
        }
        // First iteration from a fresh start must flip some optimistic
        // hot classifications to cold.
        let (fp, mut c, mut rng) = small_world();
        c.iterate(SimTime::ZERO, &fp, &mut rng);
        assert!(!c.flips().is_empty());
        assert!(c.flips().iter().all(|&(_, hot)| !hot), "hot -> cold only");
    }

    #[test]
    fn base_offset_policy_speaks_global_indices() {
        let cfg = FootprintConfig::paper(0.002);
        let mut fp = DbFootprint::new(cfg, AccessPattern::Scattered, 7);
        let n = fp.batches();
        let (base, len) = (n / 2, n - n / 2);
        let mut shard = SolPolicy::with_base(SolConfig::paper(), len, base);
        assert_eq!(shard.base(), base);
        assert_eq!(shard.len(), len);

        // Everything is due at t=0, reported in global coordinates.
        let due = shard.due_batches(SimTime::ZERO);
        assert_eq!(due.first(), Some(&base));
        assert_eq!(due.last(), Some(&(n - 1)));

        // The shard scans its global slice and flips global indices.
        let mut rng = wave_sim::rng(11);
        let stats = shard.iterate_batches(SimTime::ZERO, &due, &fp, &mut rng);
        assert_eq!(stats.scanned as usize, len);
        assert!(!shard.flips().is_empty());
        assert!(shard.flips().iter().all(|&(b, _)| (base..n).contains(&b)));

        // Epoch migration only ever touches the shard's own slice.
        shard.epoch_migrate(SolConfig::paper().epoch, &mut fp);
        for i in 0..base {
            assert!(fp.is_resident(i), "batch {i} outside the slice moved");
        }
    }

    #[test]
    fn non_contiguous_slice_speaks_global_indices() {
        let cfg = FootprintConfig::paper(0.002);
        let fp = DbFootprint::new(cfg, AccessPattern::Scattered, 7);
        // Every third batch, starting at 1: non-contiguous by design.
        let ids: Vec<usize> = (0..fp.batches()).filter(|i| i % 3 == 1).collect();
        let mut shard = SolPolicy::with_batches(SolConfig::paper(), ids.clone());
        assert_eq!(shard.len(), ids.len());
        assert_eq!(shard.base(), 1);
        assert_eq!(shard.local_index(ids[5]), 5);

        let due = shard.due_batches(SimTime::ZERO);
        assert_eq!(due, ids, "everything due at t=0, global ids");
        let mut rng = wave_sim::rng(11);
        let stats = shard.iterate_batches(SimTime::ZERO, &due, &fp, &mut rng);
        assert_eq!(stats.scanned as usize, ids.len());
        assert!(shard.flips().iter().all(|&(b, _)| b % 3 == 1));
    }

    #[test]
    fn adopt_and_release_are_the_replay_handoff() {
        let cfg = FootprintConfig::paper(0.002);
        let fp = DbFootprint::new(cfg, AccessPattern::Scattered, 7);
        let n = fp.batches();
        let mut donor = SolPolicy::with_base(SolConfig::paper(), n / 2, 0);
        let mut recipient = SolPolicy::with_base(SolConfig::paper(), n - n / 2, n / 2);
        // Converge the donor a bit so its batches sit on slow rungs.
        let mut rng = wave_sim::rng(3);
        let mut now = SimTime::ZERO;
        for _ in 0..6 {
            donor.iterate(now, &fp, &mut rng);
            now += SimTime::from_ms(600);
        }
        assert!(donor.mean_rung() > 0.5, "donor converged");

        // Hand the donor's last 10 batches to the recipient.
        let moved: Vec<usize> = (n / 2 - 10..n / 2).collect();
        donor.release_batches(&moved);
        recipient.adopt_batches(&moved);
        assert_eq!(donor.len(), n / 2 - 10);
        assert_eq!(recipient.len(), n - n / 2 + 10);
        assert_eq!(recipient.base(), n / 2 - 10);

        // Host-replay semantics: every adopted batch re-pulled a fresh
        // prior, so it is due immediately and its posterior is flat.
        let due = recipient.due_batches(now);
        for &g in &moved {
            assert!(due.contains(&g), "adopted batch {g} not due");
            assert!((recipient.posterior_mean(g) - 0.5).abs() < 1e-12);
        }
        // Donor no longer reports them due (or at all).
        assert!(donor.due_batches(now).iter().all(|&g| g < n / 2 - 10));
    }

    #[test]
    fn posterior_moves_with_evidence() {
        let cfg = FootprintConfig::paper(0.002);
        let fp = DbFootprint::new(cfg, AccessPattern::Clustered, 3);
        let mut policy = SolPolicy::new(SolConfig::paper(), fp.batches());
        let mut rng = wave_sim::rng(5);
        // Clustered: batch 0 is hot, the last is cold.
        let last = fp.batches() - 1;
        for step in 0..40u64 {
            let now = SimTime::from_ms(600 * (step + 1) * 16); // all due
            policy.iterate(now, &fp, &mut rng);
        }
        assert!(
            policy.posterior_mean(0) > 0.7,
            "{}",
            policy.posterior_mean(0)
        );
        assert!(
            policy.posterior_mean(last) < 0.3,
            "{}",
            policy.posterior_mean(last)
        );
    }
}
