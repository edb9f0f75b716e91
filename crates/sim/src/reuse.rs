//! Measured reuse-distance histograms: the dynamic ground truth the
//! static profiles in `dl-analysis::profile` are validated against.
//!
//! An unbounded shadow LRU stack over cache *blocks* tracks, for
//! every load, its **stack distance** — the number of distinct blocks
//! referenced since the previous reference to the same block — in the
//! same 65 log₂ buckets the static pass emits, so the two histograms
//! compare bucket for bucket. The bucket is all either consumer reads,
//! so the stack keeps only that: a marker at each power-of-two stack
//! position (Kim, Hill & Wood's marker-based LRU simulation) gives
//! every touch its bucket in a few linked-list steps, with blocks
//! found through a paged direct index rather than a hash. The
//! three-Cs miss classifier in [`crate::cache`] runs its own copy of
//! the same stack. The classic inclusion property prices every
//! geometry from one run: a fully-associative LRU cache of `C` blocks
//! hits an access iff its distance is below `C`, and for the
//! power-of-two capacities this repository sweeps the bucket boundary
//! is exact.
//!
//! Stores update recency (a loaded block a store just touched is
//! near, not far) but only loads contribute histogram entries —
//! mirroring the static side, which profiles load sites.

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

/// Entries per page of [`StackDistance`]'s block index.
const PAGE: usize = 1 << 12;

/// One block's place in the recency list.
#[derive(Debug, Clone, Copy, Default)]
struct Node {
    /// The next more recent block (the sentinel for the most recent).
    prev: u32,
    /// The next less recent block (the sentinel for the least recent).
    next: u32,
    /// The log₂ bucket of the block's current stack distance.
    bucket: u8,
}

/// A marker-based shadow LRU stack over block numbers (Kim, Hill &
/// Wood, SIGMETRICS 1991): a doubly-linked recency list with one node
/// per block ever touched, each node carrying the log₂ bucket of its
/// stack position, and one marker at each bucket boundary (positions
/// 1, 2, 4, 8, …). A touch reads its bucket off the node and moves the
/// node to the top; only the nodes just above the boundaries it passes
/// cross into the next bucket, so a reuse in bucket `b` shifts `b`
/// markers by one node and a first touch shifts one marker per
/// existing bucket: no touch takes more than one step per boundary.
///
/// Blocks find their node through a paged direct index: `PAGE`-entry
/// pages of node numbers, each allocated on the first touch of a
/// block in its range, so any `u32` block number — a prefetch probe
/// at the top of the address space included — is one lookup away.
#[derive(Debug, Clone)]
pub(crate) struct StackDistance {
    /// The recency list. Node 0 is its sentinel: `next` of the
    /// sentinel is the most recent block, `prev` the least recent.
    nodes: Vec<Node>,
    /// `markers[k]` is the node at stack position `2^k`, the first of
    /// bucket `k + 1`; one per boundary the stack has reached.
    markers: Vec<u32>,
    /// Block number → node, by page (`block / PAGE`); 0 marks a block
    /// never touched.
    index: Vec<Option<Box<[u32; PAGE]>>>,
}

impl StackDistance {
    /// An empty stack.
    pub(crate) fn new() -> Self {
        StackDistance {
            nodes: vec![Node::default()],
            markers: Vec::new(),
            index: Vec::new(),
        }
    }

    /// Touches `block`, returning the log₂ bucket ([`distance_bucket`])
    /// of its stack distance — the number of distinct blocks touched
    /// since its previous touch — or `None` on its first touch.
    pub(crate) fn touch(&mut self, block: u32) -> Option<usize> {
        let (page, entry) = (block as usize / PAGE, block as usize % PAGE);
        if page >= self.index.len() {
            self.index.resize_with(page + 1, || None);
        }
        let slot = &mut self.index[page].get_or_insert_with(|| Box::new([0; PAGE]))[entry];
        let node = *slot;
        if node == 0 {
            let node = u32::try_from(self.nodes.len()).expect("fewer than 2^32 blocks");
            *slot = node;
            self.push_first_touch(node);
            return None;
        }
        let bucket = usize::from(self.nodes[node as usize].bucket);
        if bucket > 0 {
            // Moving the block to the top pushes every node above it
            // down one position: of the `bucket` boundaries at or above
            // the block, each takes in the node just above it.
            self.shift_markers(bucket);
            let Node { prev, next, .. } = self.nodes[node as usize];
            self.nodes[prev as usize].next = next;
            self.nodes[next as usize].prev = prev;
            self.push_front(node);
        }
        Some(bucket)
    }

    /// Moves the first `count` markers up one node each, into the
    /// bucket they now start.
    fn shift_markers(&mut self, count: usize) {
        for (k, marker) in self.markers[..count].iter_mut().enumerate() {
            let up = self.nodes[*marker as usize].prev;
            self.nodes[up as usize].bucket = k as u8 + 1;
            *marker = up;
        }
    }

    /// Pushes a never-touched block's node: every block already on the
    /// stack moves down one position, and when their count is a power
    /// of two the least recent one opens a new bucket.
    fn push_first_touch(&mut self, node: u32) {
        let depth = self.nodes.len() - 1;
        self.shift_markers(self.markers.len());
        if depth.is_power_of_two() {
            let tail = self.nodes[0].prev;
            self.markers.push(tail);
            self.nodes[tail as usize].bucket = self.markers.len() as u8;
        }
        self.nodes.push(Node::default());
        self.push_front(node);
    }

    /// Links `node` in as the most recent block, in bucket 0.
    fn push_front(&mut self, node: u32) {
        let head = self.nodes[0].next;
        self.nodes[node as usize] = Node {
            prev: 0,
            next: head,
            bucket: 0,
        };
        self.nodes[head as usize].prev = node;
        self.nodes[0].next = node;
    }
}

/// Every load site's reuse-distance histogram over one shadow LRU
/// stack. Attached to a run via `RunConfig::reuse_profile`; collected
/// from `SimOutput::reuse`, whose stack is already dropped: a finished
/// run keeps only the histograms.
#[derive(Debug, Clone)]
pub struct ReuseMeasurement {
    line_shift: u32,
    /// Per-site histograms, indexed by instruction index.
    sites: Vec<SiteHistogram>,
    /// The shadow stack; `None` once the run finished.
    stack: Option<StackDistance>,
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
            stack: Some(StackDistance::new()),
        }
    }

    /// Records one access. `at` is the instruction index; only loads
    /// (`store == false`) contribute histogram entries, but every
    /// access refreshes its block's recency.
    ///
    /// # Panics
    ///
    /// Panics on a measurement taken from a finished run, whose shadow
    /// stack is gone.
    pub fn record(&mut self, at: usize, addr: u32, store: bool) {
        let stack = self.stack.as_mut().expect("record after finish");
        let bucket = stack.touch(addr >> self.line_shift);
        if !store {
            let site = &mut self.sites[at];
            match bucket {
                Some(b) => site.buckets[b] += 1,
                None => site.cold += 1,
            }
        }
    }

    /// Ends the measurement: drops the shadow stack (a node per block
    /// ever touched, plus its index pages) and keeps the histograms.
    pub(crate) fn finish(&mut self) {
        self.stack = None;
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
        // Seven hot blocks re-referenced across a long run of traffic:
        // their distances must stay small however long the run.
        for i in 0..(1024 * 4 + 17) {
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
        // 3 × 1,024 distinct blocks, walked twice: every re-touch
        // skipped every other block (distance 3,071, bucket 12), and
        // the first walk opened a marker at each of 12 boundaries.
        let mut stack = StackDistance::new();
        let n = 3 * 1024;
        for b in 0..n {
            assert_eq!(stack.touch(b), None);
        }
        assert_eq!(distance_bucket(u64::from(n) - 1), 12);
        for b in 0..n {
            assert_eq!(stack.touch(b), Some(12));
        }
        assert_eq!(stack.markers.len(), 12);
    }
}
