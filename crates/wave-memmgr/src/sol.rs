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
//!
//! The agent runs on SmartNIC cores whose DRAM every other agent on the
//! card shares, so a managed batch costs one 24-byte row plus a 4-byte
//! id: α and β as `u32` counts, the next scan instant, the ladder rung
//! and the classification. The scan count is derived (α + β − 2), not
//! stored. The full 417,792-batch space fits in 11.7 MB.

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
}

impl Default for SolConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// One managed batch's row: 24 bytes.
///
/// The posterior is kept as integer counts: `alpha` is one plus the
/// scans that saw the batch touched, `beta` one plus those that did not.
/// Both are small exact integers, so `f64::from` at the Beta draw and
/// the mean yields exactly the `f64` a running float sum would. The
/// scan count is derived, not stored: it is `alpha + beta - 2`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BatchState {
    next_scan: SimTime,
    alpha: u32,
    beta: u32,
    rung: u32,
    classified_hot: bool,
}

const _: () = assert!(std::mem::size_of::<BatchState>() == 24);

impl BatchState {
    /// Scans observed since the prior was pulled.
    fn scans(&self) -> u32 {
        self.alpha + self.beta - 2
    }

    /// Posterior mean α / (α + β).
    fn mean(&self) -> f64 {
        let (a, b) = (f64::from(self.alpha), f64::from(self.beta));
        a / (a + b)
    }
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
/// sorted id list is an internal translation onto the local rows
/// ([`SolPolicy::local_index`]). Ids are `u32`, like the batch field of
/// the PTE deltas and migration decisions the agent exchanges, so a
/// managed batch costs its 24-byte row plus a 4-byte id.
#[derive(Debug)]
pub struct SolPolicy {
    cfg: SolConfig,
    batches: Vec<BatchState>,
    /// Global batch id of each local row, strictly ascending.
    ids: Vec<u32>,
    /// Batches currently classified hot: flips, adoptions and releases
    /// keep it exact, so an iteration never recounts the slice.
    hot: u64,
    last_epoch: SimTime,
    /// Classification flips observed by the most recent iteration —
    /// the migration decisions the agent stages back to the host.
    flips: Vec<(u32, bool)>,
}

/// The uninformative prior every batch starts from (and re-pulls after
/// a restart or a rebalance handoff).
fn fresh_batch() -> BatchState {
    BatchState {
        next_scan: SimTime::ZERO,
        alpha: 1,
        beta: 1,
        rung: 0,
        classified_hot: true, // optimistic: everything starts resident
    }
}

/// A global batch id as the policy stores it.
fn batch_id(global: usize) -> u32 {
    u32::try_from(global).unwrap_or_else(|_| panic!("batch {global} exceeds the u32 id space"))
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
        Self::with_batches(cfg, (batch_id(base)..batch_id(base + n)).collect())
    }

    /// Creates the policy over an explicit set of global batch ids —
    /// one shard's (possibly non-contiguous) share of a dynamically
    /// rebalanced address space.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is empty or not strictly ascending.
    pub fn with_batches(cfg: SolConfig, ids: Vec<u32>) -> Self {
        assert!(!ids.is_empty(), "need at least one batch");
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "batch ids must be strictly ascending"
        );
        SolPolicy {
            cfg,
            batches: vec![fresh_batch(); ids.len()],
            hot: ids.len() as u64,
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
        self.ids[0] as usize
    }

    /// Whether the policy manages no batches (never true).
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// The local row of a (global) batch id. Staged decisions do not
    /// use it — their slot id is the global id.
    ///
    /// # Panics
    ///
    /// Panics if the batch is not managed by this policy.
    pub fn local_index(&self, global: u32) -> usize {
        self.ids
            .binary_search(&global)
            .unwrap_or_else(|_| panic!("batch {global} is not managed by this policy"))
    }

    /// [`SolPolicy::local_index`] for a walk over an ascending due list:
    /// gallops forward from the row `*cursor` found last, then binary
    /// searches the bracketed run, and leaves `*cursor` on the result.
    /// A batch below the cursor (a list that is not ascending) falls
    /// back to the full binary search.
    fn seek(&self, cursor: &mut usize, global: u32) -> usize {
        let ids = &self.ids;
        let row = if ids[*cursor] <= global {
            let (mut lo, mut step) = (*cursor, 1);
            while lo + step < ids.len() && ids[lo + step] <= global {
                lo += step;
                step *= 2;
            }
            let hi = (lo + step).min(ids.len());
            ids[lo..hi]
                .binary_search(&global)
                .map_or_else(|_| self.local_index(global), |r| lo + r)
        } else {
            self.local_index(global)
        };
        *cursor = row;
        row
    }

    /// The (global) batches due for a scan at `now`, ascending — the
    /// policy's one due filter. The agent's host leg streams it straight
    /// into its sends.
    pub fn due(&self, now: SimTime) -> impl Iterator<Item = u32> + '_ {
        self.batches
            .iter()
            .zip(&self.ids)
            .filter(move |(b, _)| b.next_scan <= now)
            .map(|(_, &id)| id)
    }

    /// [`SolPolicy::due`], collected.
    pub fn due_batches(&self, now: SimTime) -> Vec<u32> {
        self.due(now).collect()
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
        let mut add: Vec<u32> = adopted.iter().map(|&g| batch_id(g)).collect();
        add.sort_unstable();
        assert!(
            add.windows(2).all(|w| w[0] < w[1]),
            "duplicate batch in adoption"
        );
        // Every adopted batch starts optimistic (hot).
        self.hot += add.len() as u64;
        // Reserve exactly (a bare `resize` may double the capacity), then
        // merge in place from the back: each old row moves at most once
        // and no second copy of either vector is built.
        let (mut r, mut w) = (self.ids.len(), self.ids.len() + add.len());
        self.ids.reserve_exact(add.len());
        self.batches.reserve_exact(add.len());
        self.ids.resize(w, 0);
        self.batches.resize(w, fresh_batch());
        for &g in add.iter().rev() {
            while r > 0 && self.ids[r - 1] > g {
                r -= 1;
                w -= 1;
                self.ids[w] = self.ids[r];
                self.batches[w] = self.batches[r];
            }
            assert!(
                r == 0 || self.ids[r - 1] != g,
                "adopting batch {g} this policy already manages"
            );
            w -= 1;
            self.ids[w] = g;
            self.batches[w] = fresh_batch();
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
        let mut drop: Vec<u32> = released.iter().map(|&g| batch_id(g)).collect();
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
            } else if self.batches[r].classified_hot {
                self.hot -= 1;
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
        self.iterate_batches(now, due, workload, rng)
    }

    /// Like [`SolPolicy::iterate`], but scans an explicit sequence of
    /// (global) batch ids — the agent-side entry point, fed by the PTE
    /// deltas polled off the runtime's DMA ingest leg rather than
    /// recomputed locally. The sequence may repeat a batch or come in
    /// any order; an ascending one (what the host ships) is walked with
    /// a forward cursor.
    pub fn iterate_batches(
        &mut self,
        now: SimTime,
        due: impl IntoIterator<Item = u32>,
        workload: &DbFootprint,
        rng: &mut SmallRng,
    ) -> SolStats {
        self.flips.clear();
        let mut scanned = 0;
        let mut cursor = 0;
        for i in due {
            scanned += 1;
            let touched = workload.sample_access(i as usize, rng);
            let local = self.seek(&mut cursor, i);
            let b = &mut self.batches[local];
            if touched {
                b.alpha += 1;
            } else {
                b.beta += 1;
            }
            let theta = Beta::new(f64::from(b.alpha), f64::from(b.beta)).sample(rng);
            let was_hot = b.classified_hot;
            b.classified_hot = theta > self.cfg.hot_threshold;
            if b.classified_hot != was_hot {
                self.flips.push((i, b.classified_hot));
                if b.classified_hot {
                    self.hot += 1;
                } else {
                    self.hot -= 1;
                }
            }
            // Frequency adaptation: confident batches scan slower;
            // uncertain ones stay fast (the overhead-reduction loop the
            // paper describes).
            let confident = b.scans() >= self.cfg.confidence_scans && (b.mean() - 0.5).abs() > 0.25;
            if confident {
                b.rung = (b.rung + 1).min(self.cfg.period_rungs - 1);
            } else {
                b.rung = b.rung.saturating_sub(1);
            }
            let period = self.cfg.base_period * (1u64 << b.rung);
            b.next_scan = now + period;
        }
        SolStats {
            scanned,
            hot: self.hot,
            cold: self.batches.len() as u64 - self.hot,
            ..SolStats::default()
        }
    }

    /// Classification flips from the most recent iteration, in scan
    /// order: `(global_batch, now_hot)`. These are what the agent stages
    /// into its decision outbox and ships back to the host (§4.2).
    pub fn flips(&self) -> &[(u32, bool)] {
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
            let g = g as usize;
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
            .filter(|(b, &g)| b.classified_hot == workload.is_hot(g as usize))
            .count();
        correct as f64 / self.batches.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;
    use wave_kvstore::{AccessPattern, FootprintConfig};

    /// Posterior mean α / (α + β) of a (global) batch id.
    fn posterior_mean(policy: &SolPolicy, global: u32) -> f64 {
        policy.batches[policy.local_index(global)].mean()
    }

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
            let sb = b.iterate_batches(now, b.due_batches(now), &fp, &mut rng_b);
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
        assert_eq!(due.first(), Some(&(base as u32)));
        assert_eq!(due.last(), Some(&(n as u32 - 1)));

        // The shard scans its global slice and flips global indices.
        let mut rng = wave_sim::rng(11);
        let stats = shard.iterate_batches(SimTime::ZERO, due.iter().copied(), &fp, &mut rng);
        assert_eq!(stats.scanned as usize, len);
        assert!(!shard.flips().is_empty());
        assert!(shard
            .flips()
            .iter()
            .all(|&(b, _)| (base..n).contains(&(b as usize))));

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
        let ids: Vec<u32> = (0..fp.batches() as u32).filter(|i| i % 3 == 1).collect();
        let mut shard = SolPolicy::with_batches(SolConfig::paper(), ids.clone());
        assert_eq!(shard.len(), ids.len());
        assert_eq!(shard.base(), 1);
        assert_eq!(shard.local_index(ids[5]), 5);

        let due = shard.due_batches(SimTime::ZERO);
        assert_eq!(due, ids, "everything due at t=0, global ids");
        let mut rng = wave_sim::rng(11);
        let stats = shard.iterate_batches(SimTime::ZERO, due, &fp, &mut rng);
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
            let g = g as u32;
            assert!(due.contains(&g), "adopted batch {g} not due");
            assert!((posterior_mean(&recipient, g) - 0.5).abs() < 1e-12);
        }
        // Donor no longer reports them due (or at all).
        assert!(donor.due(now).all(|g| (g as usize) < n / 2 - 10));
    }

    #[test]
    fn adoption_merges_below_between_and_above_with_fresh_priors() {
        let fp = DbFootprint::new(FootprintConfig::paper(0.002), AccessPattern::Scattered, 7);
        let managed = [10u32, 20, 30];
        let mut policy = SolPolicy::with_batches(SolConfig::paper(), managed.to_vec());
        let mut rng = wave_sim::rng(5);
        // Move the managed rows off the prior so a misplaced row shows.
        for step in 0..4 {
            policy.iterate_batches(SimTime::from_ms(600 * step), managed, &fp, &mut rng);
        }
        let before = policy.batches.clone();
        assert!(before
            .iter()
            .all(|b| b.scans() == 4 && b.next_scan > SimTime::from_ms(1_800)));

        // One call: below the lowest, between each pair, above the top,
        // in no particular order.
        policy.adopt_batches(&[35, 5, 25, 15, 0]);
        assert_eq!(policy.ids, [0, 5, 10, 15, 20, 25, 30, 35]);
        for (&g, b) in policy.ids.iter().zip(&policy.batches) {
            match managed.iter().position(|&m| m == g) {
                Some(k) => assert_eq!(*b, before[k], "batch {g} kept its row"),
                None => assert_eq!(*b, fresh_batch(), "batch {g} adopted fresh"),
            }
        }
        let hot = policy.batches.iter().filter(|b| b.classified_hot).count();
        assert_eq!(policy.hot, hot as u64);
        // Only the adopted batches are due before the managed rows' next
        // scans.
        assert_eq!(
            policy.due_batches(SimTime::from_ms(1_800)),
            [0, 5, 15, 25, 35]
        );
    }

    #[test]
    #[should_panic(expected = "adopting batch 20 this policy already manages")]
    fn adopting_a_managed_batch_panics() {
        let mut policy = SolPolicy::with_batches(SolConfig::paper(), vec![10, 20, 30]);
        policy.adopt_batches(&[25, 20]);
    }

    /// A row in the representation the policy used before its rows were
    /// compacted: `f64` posterior sums and an explicit scan counter.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct RefBatch {
        alpha: f64,
        beta: f64,
        rung: u32,
        next_scan: SimTime,
        scans: u32,
        classified_hot: bool,
    }

    impl RefBatch {
        fn fresh() -> Self {
            RefBatch {
                alpha: 1.0,
                beta: 1.0,
                rung: 0,
                next_scan: SimTime::ZERO,
                scans: 0,
                classified_hot: true,
            }
        }

        /// A compact row widened to the reference representation.
        fn of(b: &BatchState) -> Self {
            RefBatch {
                alpha: f64::from(b.alpha),
                beta: f64::from(b.beta),
                rung: b.rung,
                next_scan: b.next_scan,
                scans: b.scans(),
                classified_hot: b.classified_hot,
            }
        }
    }

    /// The pre-cursor policy, distilled, in the old representation:
    /// `usize` ids, `f64` posteriors, a counted scan total, a binary
    /// search per due batch, a full hot/cold recount per iteration, and
    /// per-id inserts and removes for adoption and release.
    struct RefSol {
        cfg: SolConfig,
        ids: Vec<usize>,
        batches: Vec<RefBatch>,
        flips: Vec<(usize, bool)>,
    }

    impl RefSol {
        fn iterate_batches(
            &mut self,
            now: SimTime,
            due: &[u32],
            workload: &DbFootprint,
            rng: &mut SmallRng,
        ) -> SolStats {
            self.flips.clear();
            for &i in due {
                let i = i as usize;
                let touched = workload.sample_access(i, rng);
                let b = &mut self.batches[self.ids.binary_search(&i).expect("managed")];
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
                let mean = b.alpha / (b.alpha + b.beta);
                if b.scans >= self.cfg.confidence_scans && (mean - 0.5).abs() > 0.25 {
                    b.rung = (b.rung + 1).min(self.cfg.period_rungs - 1);
                } else {
                    b.rung = b.rung.saturating_sub(1);
                }
                b.next_scan = now + self.cfg.base_period * (1u64 << b.rung);
            }
            let hot = self.batches.iter().filter(|b| b.classified_hot).count() as u64;
            SolStats {
                scanned: due.len() as u64,
                hot,
                cold: self.batches.len() as u64 - hot,
                ..SolStats::default()
            }
        }

        fn adopt(&mut self, adopted: &[usize]) {
            for &g in adopted {
                let at = self.ids.binary_search(&g).expect_err("not yet managed");
                self.ids.insert(at, g);
                self.batches.insert(at, RefBatch::fresh());
            }
        }

        fn release(&mut self, released: &[usize]) {
            for &g in released {
                if let Ok(at) = self.ids.binary_search(&g) {
                    self.ids.remove(at);
                    self.batches.remove(at);
                }
            }
        }
    }

    #[test]
    fn cursor_walk_and_running_hot_count_match_the_reference() {
        let fp = DbFootprint::new(FootprintConfig::paper(0.002), AccessPattern::Scattered, 7);
        let n = fp.batches();
        let cfg = SolConfig::paper();
        for seed in 0..6u64 {
            let mut x = 0x9e37_79b9_7f4a_7c15 ^ (seed + 1);
            let mut draw = move |below: usize| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % below as u64) as usize
            };
            let ids: Vec<usize> = (0..n).filter(|_| draw(3) != 0).collect();
            let mut real = SolPolicy::with_batches(cfg, ids.iter().map(|&g| g as u32).collect());
            let mut refp = RefSol {
                cfg,
                batches: vec![RefBatch::fresh(); ids.len()],
                ids,
                flips: Vec::new(),
            };
            let (mut rng_real, mut rng_ref) = (wave_sim::rng(seed), wave_sim::rng(seed));
            let mut now = SimTime::ZERO;
            for step in 0..250 {
                let managed = refp.ids.clone();
                match draw(10) {
                    0 => {
                        let mut add: Vec<usize> = (0..n)
                            .filter(|g| !managed.contains(g) && draw(40) == 0)
                            .collect();
                        add.reverse();
                        real.adopt_batches(&add);
                        refp.adopt(&add);
                    }
                    1 if managed.len() > 1 => {
                        let mut drop: Vec<usize> = managed[1..]
                            .iter()
                            .copied()
                            .filter(|_| draw(30) == 0)
                            .collect();
                        if let Some(&g) = drop.first() {
                            drop.push(g); // a repeated id releases once
                        }
                        real.release_batches(&drop);
                        refp.release(&drop);
                    }
                    _ => {
                        let mut due = match draw(4) {
                            // What the host ships: ascending, each once.
                            0 => real.due_batches(now),
                            // Ascending with repeats.
                            1 => real
                                .due(now)
                                .flat_map(|g| vec![g; 1 + (draw(4) == 0) as usize])
                                .collect(),
                            // Any order, repeats anywhere.
                            2 => (0..draw(200))
                                .map(|_| managed[draw(managed.len())] as u32)
                                .collect(),
                            _ => Vec::new(),
                        };
                        if draw(3) == 0 {
                            due.reverse();
                        }
                        let a = real.iterate_batches(now, due.iter().copied(), &fp, &mut rng_real);
                        let b = refp.iterate_batches(now, &due, &fp, &mut rng_ref);
                        assert_eq!(a, b, "seed {seed} step {step}: stats");
                        now += cfg.base_period * (1 + draw(3) as u64);
                    }
                }
                let flips: Vec<(usize, bool)> =
                    real.flips().iter().map(|&(g, h)| (g as usize, h)).collect();
                assert_eq!(flips, refp.flips, "seed {seed} step {step}");
                let ids: Vec<usize> = real.ids.iter().map(|&g| g as usize).collect();
                assert_eq!(ids, refp.ids, "seed {seed} step {step}: ids");
                let rows: Vec<RefBatch> = real.batches.iter().map(RefBatch::of).collect();
                assert_eq!(rows, refp.batches, "seed {seed} step {step}");
                let hot = real.batches.iter().filter(|b| b.classified_hot).count();
                assert_eq!(real.hot, hot as u64, "seed {seed} step {step}: hot");
                assert_eq!(
                    rng_real.clone().next_u64(),
                    rng_ref.clone().next_u64(),
                    "seed {seed} step {step}: RNG state"
                );
            }
        }
    }

    #[test]
    fn posterior_moves_with_evidence() {
        let cfg = FootprintConfig::paper(0.002);
        let fp = DbFootprint::new(cfg, AccessPattern::Clustered, 3);
        let mut policy = SolPolicy::new(SolConfig::paper(), fp.batches());
        let mut rng = wave_sim::rng(5);
        // Clustered: batch 0 is hot, the last is cold.
        let last = fp.batches() as u32 - 1;
        for step in 0..40u64 {
            let now = SimTime::from_ms(600 * (step + 1) * 16); // all due
            policy.iterate(now, &fp, &mut rng);
        }
        assert!(
            posterior_mean(&policy, 0) > 0.7,
            "{}",
            posterior_mean(&policy, 0)
        );
        assert!(
            posterior_mean(&policy, last) < 0.3,
            "{}",
            posterior_mean(&policy, last)
        );
    }
}
