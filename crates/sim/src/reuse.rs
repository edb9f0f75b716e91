//! Measured reuse-distance histograms: the dynamic ground truth the
//! static profiles in `dl-analysis::profile` are validated against.
//!
//! An unbounded shadow LRU stack over cache *blocks* tracks, for
//! every load, its **stack distance** — the number of distinct blocks
//! referenced since the previous reference to the same block (Olken's
//! algorithm: a Fenwick tree over recency stamps gives each distance
//! in `O(log n)`). The three-Cs miss classifier in [`crate::cache`]
//! runs its own copy of the same stack. Distances land in the same 65
//! log₂ buckets the static pass emits, so the two histograms compare
//! bucket for bucket, and the classic inclusion property prices every
//! geometry from one run: a fully-associative LRU cache of `C` blocks
//! hits an access iff its distance is below `C`, and for the
//! power-of-two capacities this repository sweeps the bucket boundary
//! is exact.
//!
//! Stores update recency (a loaded block a store just touched is
//! near, not far) but only loads contribute histogram entries —
//! mirroring the static side, which profiles load sites.

use std::collections::HashMap;

/// Number of log₂ distance buckets (bucket 0 + one per bit of `u64`).
pub const BUCKETS: usize = 65;

/// The log₂ bucket of stack distance `d`: bucket 0 holds distance 0,
/// bucket `b ≥ 1` holds `[2^(b-1), 2^b)`. Identical to the static
/// side's bucketing.
#[must_use]
pub fn distance_bucket(d: u64) -> usize {
    if d == 0 {
        0
    } else {
        (u64::BITS - d.leading_zeros()) as usize
    }
}

/// The measured reuse-distance histogram of one load site.
#[derive(Debug, Clone)]
pub struct SiteHistogram {
    /// Reuse counts per log₂ distance bucket.
    pub buckets: [u64; BUCKETS],
    /// First-touch accesses (no prior reference to the block).
    pub cold: u64,
}

impl Default for SiteHistogram {
    fn default() -> Self {
        SiteHistogram {
            buckets: [0; BUCKETS],
            cold: 0,
        }
    }
}

impl SiteHistogram {
    /// Total accesses recorded at this site.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.cold + self.buckets.iter().sum::<u64>()
    }

    /// Accesses that miss in a fully-associative LRU cache of
    /// `cap_blocks` blocks. Exact for power-of-two capacities; a
    /// straddled bucket is charged fractionally (uniform within the
    /// bucket), matching the static model's scoring.
    #[must_use]
    pub fn misses(&self, cap_blocks: u64) -> f64 {
        let mut misses = self.cold as f64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            misses += n as f64 * bucket_miss_fraction(b, cap_blocks);
        }
        misses
    }

    /// Miss ratio at `cap_blocks`, or 0 with no accesses.
    #[must_use]
    pub fn miss_ratio(&self, cap_blocks: u64) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.misses(cap_blocks) / total as f64
        }
    }
}

/// Fraction of bucket `b`'s distance range at or beyond `cap` blocks.
fn bucket_miss_fraction(b: usize, cap: u64) -> f64 {
    if cap == 0 {
        return 1.0;
    }
    if b == 0 {
        return 0.0;
    }
    let min_d = 1u64 << (b - 1);
    let max_d = (1u64 << b) - 1;
    if max_d < cap {
        0.0
    } else if min_d >= cap {
        1.0
    } else {
        (max_d + 1 - cap) as f64 / (max_d + 1 - min_d) as f64
    }
}

/// The stamp space a fresh stack starts with.
const INITIAL_STAMPS: usize = 1 << 10;

const DEAD: u32 = u32::MAX;

/// Olken's shadow LRU stack over block numbers: a Fenwick tree over
/// recency stamps prices each touch's stack distance in `O(log n)`.
/// Stamps are compacted when the clock reaches the end of the stamp
/// space, which doubles whenever more than half of it is live — so it
/// stays proportional to the blocks actually touched.
#[derive(Debug, Clone)]
pub(crate) struct StackDistance {
    /// block → its current recency stamp (1-indexed).
    stamp_of: HashMap<u32, usize>,
    /// stamp → block (`DEAD` marks a superseded stamp).
    block_of: Vec<u32>,
    /// Fenwick tree over stamps: one set bit per live block.
    bit: Vec<u32>,
    /// Live blocks (= distinct blocks ever touched, post-compaction).
    live: usize,
    clock: usize,
}

impl StackDistance {
    /// An empty stack.
    pub(crate) fn new() -> Self {
        StackDistance {
            stamp_of: HashMap::new(),
            block_of: vec![DEAD; INITIAL_STAMPS + 1],
            bit: vec![0; INITIAL_STAMPS + 1],
            live: 0,
            clock: 0,
        }
    }

    fn bit_add(&mut self, mut i: usize, delta: i32) {
        while i < self.bit.len() {
            self.bit[i] = self.bit[i].wrapping_add_signed(delta);
            i += i & i.wrapping_neg();
        }
    }

    fn bit_prefix(&self, mut i: usize) -> u32 {
        let mut sum = 0;
        while i > 0 {
            sum += self.bit[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// Touches `block`, returning its stack distance — the number of
    /// distinct blocks touched since its previous touch — or `None`
    /// on its first touch.
    pub(crate) fn touch(&mut self, block: u32) -> Option<u64> {
        let distance = self.stamp_of.get(&block).copied().map(|old| {
            // Live blocks with a stamp newer than `old` are exactly
            // the distinct blocks touched since.
            let d = self.live as u64 - u64::from(self.bit_prefix(old));
            self.bit_add(old, -1);
            self.block_of[old] = DEAD;
            self.live -= 1;
            d
        });
        if self.clock == self.bit.len() - 1 {
            self.compact();
        }
        self.clock += 1;
        self.block_of[self.clock] = block;
        self.stamp_of.insert(block, self.clock);
        self.bit_add(self.clock, 1);
        self.live += 1;
        distance
    }

    /// Renumbers live stamps to `1..=live`, preserving recency order,
    /// doubles the stamp space if more than half of it is live, and
    /// rebuilds the Fenwick tree.
    fn compact(&mut self) {
        let mut next = 0;
        for s in 1..=self.clock {
            let block = self.block_of[s];
            if block == DEAD {
                continue;
            }
            next += 1;
            self.block_of[next] = block;
            self.stamp_of.insert(block, next);
        }
        debug_assert_eq!(next, self.live);
        let mut stamps = self.bit.len() - 1;
        if 2 * next > stamps {
            stamps *= 2;
        }
        self.block_of.truncate(next + 1);
        self.block_of.resize(stamps + 1, DEAD);
        self.bit.clear();
        self.bit.resize(stamps + 1, 0);
        for s in 1..=next {
            self.bit_add(s, 1);
        }
        self.clock = next;
    }
}

/// Every load site's reuse-distance histogram over one shadow LRU
/// stack. Attached to a run via `RunConfig::reuse_profile`; collected
/// from `SimOutput::reuse`.
#[derive(Debug, Clone)]
pub struct ReuseMeasurement {
    line_shift: u32,
    /// Per-site histograms, indexed by instruction index.
    sites: Vec<SiteHistogram>,
    stack: StackDistance,
}

impl ReuseMeasurement {
    /// A fresh measurement for a program of `insts` instructions and
    /// the given cache-line size in bytes (must be a power of two).
    #[must_use]
    pub fn new(insts: usize, line_bytes: u32) -> Self {
        debug_assert!(line_bytes.is_power_of_two());
        ReuseMeasurement {
            line_shift: line_bytes.trailing_zeros(),
            sites: vec![SiteHistogram::default(); insts],
            stack: StackDistance::new(),
        }
    }

    /// Records one access. `at` is the instruction index; only loads
    /// (`store == false`) contribute histogram entries, but every
    /// access refreshes its block's recency.
    pub fn record(&mut self, at: usize, addr: u32, store: bool) {
        let distance = self.stack.touch(addr >> self.line_shift);
        if !store {
            let site = &mut self.sites[at];
            match distance {
                Some(d) => site.buckets[distance_bucket(d)] += 1,
                None => site.cold += 1,
            }
        }
    }

    /// The histogram of load site `at`.
    #[must_use]
    pub fn site(&self, at: usize) -> &SiteHistogram {
        &self.sites[at]
    }

    /// Every site histogram, indexed by instruction index.
    #[must_use]
    pub fn sites(&self) -> &[SiteHistogram] {
        &self.sites
    }

    /// Load sites with at least one recorded access, in index order.
    #[must_use]
    pub fn active_sites(&self) -> Vec<usize> {
        (0..self.sites.len())
            .filter(|&i| self.sites[i].total() > 0)
            .collect()
    }

    /// Aggregate miss ratio over every site at `cap_blocks`, or 0
    /// with no recorded loads.
    #[must_use]
    pub fn aggregate_miss_ratio(&self, cap_blocks: u64) -> f64 {
        let total: u64 = self.sites.iter().map(SiteHistogram::total).sum();
        if total == 0 {
            return 0.0;
        }
        let misses: f64 = self.sites.iter().map(|s| s.misses(cap_blocks)).sum();
        misses / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_matches_the_static_side() {
        assert_eq!(distance_bucket(0), 0);
        assert_eq!(distance_bucket(1), 1);
        assert_eq!(distance_bucket(3), 2);
        assert_eq!(distance_bucket(4), 3);
        assert_eq!(distance_bucket(255), 8);
        assert_eq!(distance_bucket(256), 9);
    }

    #[test]
    fn distances_count_distinct_blocks() {
        let mut m = ReuseMeasurement::new(4, 32);
        // A, B, C, A: A's reuse skipped B and C → distance 2.
        m.record(0, 0x000, false);
        m.record(0, 0x020, false);
        m.record(0, 0x040, false);
        m.record(1, 0x000, false);
        assert_eq!(m.site(0).cold, 3);
        assert_eq!(m.site(1).buckets[distance_bucket(2)], 1);
        // Same-block re-touch is distance 0.
        m.record(1, 0x004, false);
        assert_eq!(m.site(1).buckets[0], 1);
    }

    #[test]
    fn duplicate_intervening_blocks_count_once() {
        let mut m = ReuseMeasurement::new(2, 32);
        // A, B, B, B, A: only one distinct block between → distance 1.
        m.record(0, 0x000, false);
        for _ in 0..3 {
            m.record(0, 0x020, false);
        }
        m.record(1, 0x000, false);
        assert_eq!(m.site(1).buckets[1], 1);
    }

    #[test]
    fn stores_refresh_recency_without_histogram_entries() {
        let mut m = ReuseMeasurement::new(2, 32);
        m.record(0, 0x000, false);
        m.record(0, 0x020, false);
        // The store touches A again, so the next load of A is near.
        m.record(1, 0x000, true);
        m.record(0, 0x000, false);
        assert_eq!(m.site(1).total(), 0, "stores record nothing");
        assert_eq!(m.site(0).buckets[0], 1, "store refreshed recency");
    }

    #[test]
    fn inclusion_prices_every_geometry_from_one_run() {
        let mut m = ReuseMeasurement::new(1, 32);
        // Walk 512 blocks twice: second pass reuses at distance 511.
        for pass in 0..2 {
            for b in 0u32..512 {
                let _ = pass;
                m.record(0, b * 32, false);
            }
        }
        let s = m.site(0);
        assert_eq!(s.cold, 512);
        // 512-block reuses: distance 511 → bucket 9.
        assert_eq!(s.buckets[9], 512);
        // 256-block cache (8 KiB / 32 B): every reuse misses.
        assert!((s.miss_ratio(256) - 1.0).abs() < 1e-12);
        // 2048-block cache (64 KiB): only the cold pass misses.
        assert!((s.miss_ratio(2048) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn compaction_preserves_distances() {
        let mut m = ReuseMeasurement::new(2, 32);
        // Seven hot blocks re-referenced across enough traffic to
        // force several compactions of the (never-growing) stamps.
        for i in 0..(INITIAL_STAMPS * 4 + 17) {
            m.record(0, (i as u32 % 7) * 32, false);
        }
        m.record(1, 0x000, false);
        let s = m.site(1);
        // 7 live blocks; block 0 was most recently at most 6 away.
        assert_eq!(s.total(), 1);
        assert_eq!(s.buckets.iter().sum::<u64>(), 1);
        let hit_small = s.miss_ratio(8);
        assert_eq!(hit_small, 0.0, "distance must stay ≤ 6: {s:?}");
    }

    #[test]
    fn stamp_space_grows_past_its_initial_size() {
        // 3× the initial stamps of distinct blocks, walked twice:
        // every re-touch skipped every other block, across two
        // doublings and the compactions between them.
        let mut stack = StackDistance::new();
        let n = 3 * INITIAL_STAMPS as u32;
        for b in 0..n {
            assert_eq!(stack.touch(b), None);
        }
        for b in 0..n {
            assert_eq!(stack.touch(b), Some(u64::from(n) - 1));
        }
        assert!(stack.bit.len() > n as usize);
    }
}
