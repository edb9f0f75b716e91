//! Per-run measurement results: the raw material for the paper's
//! training phase and evaluation metrics.

use crate::cache::CacheProfile;

/// Everything measured during one simulated run.
///
/// Vectors are indexed by static instruction index (parallel to
/// `Program::insts`). `M(i, C)` from the paper is `load_misses[i]`;
/// `E(i)` is `exec_counts[i]`, so a load site's hits are
/// `E(i) - M(i, C)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunResult {
    /// Total dynamic instructions executed.
    pub instructions: u64,
    /// Total D-cache accesses (loads + stores).
    pub dcache_accesses: u64,
    /// Total D-cache misses (loads + stores; write-allocate).
    pub dcache_misses: u64,
    /// Dynamic load count.
    pub loads: u64,
    /// Dynamic store count.
    pub stores: u64,
    /// Total load misses — the paper's `M(P(I), C)` denominator.
    pub load_misses_total: u64,
    /// Per-instruction execution counts (`E(i)`).
    pub exec_counts: Vec<u64>,
    /// Per-instruction load miss counts (`M(i, C)`; zero for non-loads).
    pub load_misses: Vec<u64>,
    /// Prefetch requests issued by instrumented load sites.
    pub prefetches_issued: u64,
    /// L2 hits (zero unless an L2 is configured).
    pub l2_hits: u64,
    /// L2 misses (zero unless an L2 is configured).
    pub l2_misses: u64,
    /// Prefetches that actually filled a line into the L1 (issued
    /// minus those that hit a resident line).
    pub prefetch_fills: u64,
    /// Prefetch fills whose line was later touched by a demand load
    /// before eviction — the prefetcher's useful-fill count.
    pub prefetch_useful: u64,
    /// Values printed via the `print_int` syscall.
    pub output: Vec<i32>,
    /// Exit code passed to the `exit` syscall (or `$v0` on fallthrough
    /// return from the entry function).
    pub exit_code: i32,
    /// Cache profile (miss classes, per-set histograms). `Some` only
    /// when [`crate::RunConfig::classify_misses`] was set.
    pub cache_profile: Option<CacheProfile>,
    /// Per-instruction miss counts by class, indexed
    /// `[compulsory, capacity, conflict]` (see
    /// [`crate::cache::MissClass::index`]); zero rows for non-loads.
    /// `Some` only when miss classification was enabled.
    pub load_miss_classes: Option<Vec<[u64; 3]>>,
}

impl RunResult {
    /// Creates a zeroed result sized for `n` static instructions.
    #[must_use]
    pub fn with_len(n: usize) -> Self {
        RunResult {
            exec_counts: vec![0; n],
            load_misses: vec![0; n],
            ..RunResult::default()
        }
    }

    /// Sum of `M(i, C)` over a set of static instruction indices.
    #[must_use]
    pub fn misses_of_set(&self, set: &[usize]) -> u64 {
        set.iter().map(|&i| self.load_misses[i]).sum()
    }

    /// Verifies the cross-field invariants every finished run must
    /// satisfy, returning the first violation. Debug builds assert
    /// this at the end of every simulation; tests may call it in
    /// release builds too.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_consistency(&self) -> Result<(), String> {
        let site_misses: u64 = self.load_misses.iter().sum();
        if site_misses != self.load_misses_total {
            return Err(format!(
                "per-site misses {site_misses} != load_misses_total {}",
                self.load_misses_total
            ));
        }
        if self.loads + self.stores != self.dcache_accesses {
            return Err(format!(
                "loads {} + stores {} != dcache accesses {}",
                self.loads, self.stores, self.dcache_accesses
            ));
        }
        let execs: u64 = self.exec_counts.iter().sum();
        if execs != self.instructions {
            return Err(format!(
                "exec_counts sum {execs} != instructions {}",
                self.instructions
            ));
        }
        if self.prefetch_fills > self.prefetches_issued {
            return Err(format!(
                "prefetch fills {} > issued {}",
                self.prefetch_fills, self.prefetches_issued
            ));
        }
        if self.prefetch_useful > self.prefetch_fills {
            return Err(format!(
                "prefetch useful {} > fills {}",
                self.prefetch_useful, self.prefetch_fills
            ));
        }
        if self.l2_hits + self.l2_misses != 0
            && self.l2_hits + self.l2_misses != self.dcache_misses + self.prefetch_fills
        {
            return Err(format!(
                "L2 accesses {} != demand misses {} + prefetch fills {}",
                self.l2_hits + self.l2_misses,
                self.dcache_misses,
                self.prefetch_fills
            ));
        }
        if let Some(classes) = &self.load_miss_classes {
            for (i, row) in classes.iter().enumerate() {
                let class_sum: u64 = row.iter().sum();
                if class_sum != self.load_misses[i] {
                    return Err(format!(
                        "site {i}: class sum {class_sum} != misses {}",
                        self.load_misses[i]
                    ));
                }
            }
        }
        if let Some(profile) = &self.cache_profile {
            let classified = profile.classes.total();
            let set_misses: u64 = profile.set_misses.iter().sum();
            if classified != set_misses {
                return Err(format!(
                    "classified misses {classified} != per-set misses {set_misses}"
                ));
            }
            // The profile counts every cache fill, including prefetch
            // fills; demand misses are a lower bound.
            if classified < self.dcache_misses {
                return Err(format!(
                    "classified misses {classified} < demand misses {}",
                    self.dcache_misses
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_len_sizes_vectors() {
        let r = RunResult::with_len(5);
        assert_eq!(r.exec_counts.len(), 5);
        assert_eq!(r.load_misses.len(), 5);
    }

    #[test]
    fn set_miss_sum() {
        let mut r = RunResult::with_len(4);
        r.load_misses = vec![5, 0, 3, 2];
        assert_eq!(r.misses_of_set(&[0, 2]), 8);
        assert_eq!(r.misses_of_set(&[]), 0);
    }

    #[test]
    fn consistency_checker_catches_drift() {
        let mut r = RunResult::with_len(2);
        assert!(r.check_consistency().is_ok());
        r.load_misses[0] = 3;
        let err = r.check_consistency().unwrap_err();
        assert!(err.contains("load_misses_total"), "{err}");
        r.load_misses_total = 3;
        r.loads = 3;
        r.dcache_accesses = 3;
        assert!(r.check_consistency().is_ok());
        r.load_miss_classes = Some(vec![[1, 1, 0], [0, 0, 0]]);
        let err = r.check_consistency().unwrap_err();
        assert!(err.contains("class sum"), "{err}");
        r.load_miss_classes = Some(vec![[1, 1, 1], [0, 0, 0]]);
        assert!(r.check_consistency().is_ok());
    }
}
