//! The per-load-site miss observatory: epoch-windowed miss counts.
//!
//! The paper's claim is about load *sites* — a handful of static loads
//! produce most misses. [`MissObservatory`] watches that claim live:
//! it splits a run into fixed-size epochs and records, per epoch, how
//! many misses each load site produced, so phase behaviour (a site hot
//! early, cold late) is visible instead of being averaged away.
//!
//! Epochs are windows of **observed load accesses**, not instructions.
//! The block engine batches instruction counting per dispatched
//! superblock (its running total is only flushed at the end of the
//! run), so instruction-aligned windows could not be reproduced
//! exactly across engines — but both engines record the same access
//! stream in the same order, so access-aligned windows are
//! deterministic *and* engine-invariant.
//!
//! The observatory is one more observer inside a memory model that
//! replays the recorded stream (see [`crate::trace`]). It must see
//! every access, so its model replays the full stream, not the one the
//! trace filter strips; the models without it are untouched, which
//! the zero-overhead byte-compare test enforces.

/// Configuration for the miss observatory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObserveConfig {
    /// Load accesses per epoch window. The final epoch may be shorter.
    pub epoch_len: u64,
}

impl Default for ObserveConfig {
    fn default() -> Self {
        // Wide enough that even full workloads produce a handful of
        // epochs, narrow enough to expose phases in smoke runs.
        ObserveConfig { epoch_len: 1 << 20 }
    }
}

/// One finished epoch: which sites missed, and how often.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochMisses {
    /// Zero-based epoch index.
    pub epoch: u32,
    /// Load accesses observed in this epoch (`epoch_len` for all but
    /// possibly the final epoch).
    pub loads: u64,
    /// Sparse `(site, misses)` pairs, site index ascending; sites with
    /// no misses in the epoch are omitted.
    pub misses: Vec<(u32, u64)>,
    /// Sparse `(site, hidden)` pairs: demand hits on lines a prefetcher
    /// filed ahead of time — misses the memory system hid rather than
    /// true locality. Empty unless a prefetcher is configured.
    pub hidden: Vec<(u32, u64)>,
}

/// Collects per-load-site miss counts in fixed-size epoch windows.
#[derive(Debug, Clone)]
pub struct MissObservatory {
    epoch_len: u64,
    /// Dense per-site miss counts for the epoch in progress.
    current: Vec<u64>,
    /// Dense per-site prefetch-hidden counts for the epoch in progress.
    current_hidden: Vec<u64>,
    /// Load accesses observed in the epoch in progress.
    seen: u64,
    epochs: Vec<EpochMisses>,
}

impl MissObservatory {
    /// Creates an observatory for a program with `sites` instruction
    /// slots.
    ///
    /// # Panics
    ///
    /// Panics if `config.epoch_len` is zero.
    #[must_use]
    pub fn new(sites: usize, config: ObserveConfig) -> Self {
        assert!(config.epoch_len > 0, "epoch_len must be positive");
        MissObservatory {
            epoch_len: config.epoch_len,
            current: vec![0; sites],
            current_hidden: vec![0; sites],
            seen: 0,
            epochs: Vec::new(),
        }
    }

    /// Records one load access at site `at`; rolls the epoch when the
    /// window fills.
    pub fn observe(&mut self, at: usize, miss: bool) {
        if miss {
            self.current[at] += 1;
        }
        self.seen += 1;
        if self.seen == self.epoch_len {
            self.roll();
        }
    }

    /// Records that the access about to be [`Self::observe`]d at `at`
    /// hit only because a prefetch filed the line ahead of demand.
    /// Call *before* `observe` so the count lands in the same epoch.
    pub fn observe_hidden(&mut self, at: usize) {
        self.current_hidden[at] += 1;
    }

    /// Closes the final (possibly partial) epoch. Idempotent.
    pub fn finish(&mut self) {
        if self.seen > 0 {
            self.roll();
        }
    }

    fn roll(&mut self) {
        fn drain_sparse(dense: &mut [u64]) -> Vec<(u32, u64)> {
            dense
                .iter_mut()
                .enumerate()
                .filter(|(_, n)| **n > 0)
                .map(|(i, n)| {
                    let count = std::mem::take(n);
                    (u32::try_from(i).expect("site index fits u32"), count)
                })
                .collect()
        }
        let misses = drain_sparse(&mut self.current);
        let hidden = drain_sparse(&mut self.current_hidden);
        self.epochs.push(EpochMisses {
            epoch: u32::try_from(self.epochs.len()).expect("epoch count fits u32"),
            loads: self.seen,
            misses,
            hidden,
        });
        self.seen = 0;
    }

    /// The configured window size, in load accesses.
    #[must_use]
    pub fn epoch_len(&self) -> u64 {
        self.epoch_len
    }

    /// All finished epochs, in order. Call [`Self::finish`] first to
    /// include the trailing partial window.
    #[must_use]
    pub fn epochs(&self) -> &[EpochMisses] {
        &self.epochs
    }

    /// Dense per-site miss totals summed over every finished epoch
    /// (plus the window in progress).
    #[must_use]
    pub fn site_totals(&self) -> Vec<u64> {
        let mut totals = self.current.clone();
        for epoch in &self.epochs {
            for &(site, n) in &epoch.misses {
                totals[site as usize] += n;
            }
        }
        totals
    }

    /// Total misses observed across all sites and epochs.
    #[must_use]
    pub fn total_misses(&self) -> u64 {
        self.site_totals().iter().sum()
    }

    /// Dense per-site prefetch-hidden totals summed over every
    /// finished epoch (plus the window in progress).
    #[must_use]
    pub fn hidden_totals(&self) -> Vec<u64> {
        let mut totals = self.current_hidden.clone();
        for epoch in &self.epochs {
            for &(site, n) in &epoch.hidden {
                totals[site as usize] += n;
            }
        }
        totals
    }

    /// Total prefetch-hidden accesses observed across all sites.
    #[must_use]
    pub fn total_hidden(&self) -> u64 {
        self.hidden_totals().iter().sum()
    }

    /// Total load accesses observed.
    #[must_use]
    pub fn total_loads(&self) -> u64 {
        self.epochs.iter().map(|e| e.loads).sum::<u64>() + self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_roll_on_access_windows() {
        let mut obs = MissObservatory::new(4, ObserveConfig { epoch_len: 3 });
        // Epoch 0: sites 1 and 2 miss, site 1 hits once.
        obs.observe(1, true);
        obs.observe(1, false);
        obs.observe(2, true);
        // Epoch 1 (partial): site 1 misses again.
        obs.observe(1, true);
        obs.finish();
        let epochs = obs.epochs();
        assert_eq!(epochs.len(), 2);
        assert_eq!(epochs[0].epoch, 0);
        assert_eq!(epochs[0].loads, 3);
        assert_eq!(epochs[0].misses, vec![(1, 1), (2, 1)]);
        assert_eq!(epochs[1].loads, 1);
        assert_eq!(epochs[1].misses, vec![(1, 1)]);
        assert_eq!(obs.site_totals(), vec![0, 2, 1, 0]);
        assert_eq!(obs.total_misses(), 3);
        assert_eq!(obs.total_loads(), 4);
    }

    #[test]
    fn finish_is_idempotent_and_skips_empty_windows() {
        let mut obs = MissObservatory::new(2, ObserveConfig { epoch_len: 2 });
        obs.observe(0, true);
        obs.observe(0, true); // fills epoch 0 exactly
        obs.finish();
        obs.finish();
        assert_eq!(obs.epochs().len(), 1);
        assert_eq!(obs.site_totals(), vec![2, 0]);
    }

    #[test]
    fn totals_include_window_in_progress() {
        let mut obs = MissObservatory::new(1, ObserveConfig::default());
        obs.observe(0, true);
        assert_eq!(obs.site_totals(), vec![1]);
        assert_eq!(obs.total_loads(), 1);
        assert!(obs.epochs().is_empty());
    }

    #[test]
    #[should_panic(expected = "epoch_len must be positive")]
    fn zero_epoch_len_panics() {
        let _ = MissObservatory::new(1, ObserveConfig { epoch_len: 0 });
    }

    #[test]
    fn hidden_counts_land_in_the_same_epoch() {
        let mut obs = MissObservatory::new(3, ObserveConfig { epoch_len: 2 });
        // A prefetch-hidden hit on the epoch's final access: record
        // hidden first, then the access itself (which rolls the epoch).
        obs.observe(0, true);
        obs.observe_hidden(1);
        obs.observe(1, false);
        obs.observe(2, true);
        obs.finish();
        let epochs = obs.epochs();
        assert_eq!(epochs.len(), 2);
        assert_eq!(epochs[0].misses, vec![(0, 1)]);
        assert_eq!(epochs[0].hidden, vec![(1, 1)]);
        assert_eq!(epochs[1].hidden, vec![]);
        assert_eq!(obs.hidden_totals(), vec![0, 1, 0]);
        assert_eq!(obs.total_hidden(), 1);
        assert_eq!(obs.site_totals(), vec![1, 0, 1]);
    }
}
