//! Property tests: the optimized cache model agrees with a naive
//! reference implementation of set-associative LRU on arbitrary access
//! streams, and basic conservation laws hold.
//!
//! The streams deliberately include repeat-heavy segments (same
//! address, same block) so the MRU fast path in `Cache::access` is
//! exercised against the reference on every run, not just the generic
//! walk-the-set path.
//!
//! The three-Cs miss classes and the measured reuse-distance
//! histograms — the two consumers of the simulator's shadow LRU stack
//! — are checked against their definitions over a naive
//! most-recent-first list of every block touched.

use std::collections::VecDeque;

use dl_sim::reuse::distance_bucket;
use dl_sim::{Cache, CacheConfig, MissClass, MissClasses, ReuseMeasurement, SiteHistogram};
use dl_testkit::{cases, Rng};

/// A transparently-correct LRU model: one deque of tags per set,
/// most-recent at the front.
struct RefCache {
    sets: Vec<VecDeque<u64>>,
    assoc: usize,
    block_shift: u32,
    set_mask: u64,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        RefCache {
            sets: vec![VecDeque::new(); cfg.sets() as usize],
            assoc: cfg.assoc() as usize,
            block_shift: cfg.block_bytes().trailing_zeros(),
            set_mask: u64::from(cfg.sets()) - 1,
        }
    }

    fn access(&mut self, addr: u32) -> bool {
        let block = u64::from(addr) >> self.block_shift;
        let set = (block & self.set_mask) as usize;
        let tag = block >> self.set_mask.count_ones();
        let q = &mut self.sets[set];
        if let Some(pos) = q.iter().position(|&t| t == tag) {
            let t = q.remove(pos).expect("found above");
            q.push_front(t);
            true
        } else {
            q.push_front(tag);
            if q.len() > self.assoc {
                q.pop_back();
            }
            false
        }
    }
}

fn arb_config(rng: &mut Rng) -> CacheConfig {
    let size = 1024 << rng.index(3); // 1-4 KiB keeps conflict pressure high
    let assoc = 1 << rng.index(4);
    let block = 16 << rng.index(3);
    CacheConfig::new(size, assoc, block).expect("valid geometry")
}

/// Address streams biased toward reuse: a small pool of hot addresses,
/// random cold ones, and immediate-repeat runs (same address or same
/// block) that land on the MRU fast path.
fn arb_stream(rng: &mut Rng) -> Vec<u32> {
    let len = 1 + rng.index(600);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let addr = if rng.chance(0.5) {
            0x1000_0000 + rng.range_u32(0, 64) * 4
        } else {
            0x2000_0000 + rng.range_u32(0, 100_000) * 4
        };
        out.push(addr);
        // With probability 1/2, dwell on this block a few accesses:
        // exact repeats and same-block neighbours (MRU hits).
        if rng.chance(0.5) {
            for _ in 0..rng.index(4) {
                if out.len() == len {
                    break;
                }
                out.push(addr ^ (rng.range_u32(0, 4) * 4));
            }
        }
    }
    out
}

#[test]
fn matches_reference_lru() {
    cases(128, 0xcac4e1, |rng| {
        let cfg = arb_config(rng);
        let stream = arb_stream(rng);
        let mut fast = Cache::new(cfg);
        let mut reference = RefCache::new(cfg);
        for &addr in &stream {
            assert_eq!(
                fast.access(addr),
                reference.access(addr),
                "divergence at {addr:#x} under {cfg}"
            );
        }
    });
}

/// Long dwell runs on one block: every access after the first must take
/// the MRU fast path and still agree with the reference model.
#[test]
fn mru_fast_path_matches_reference_on_dwell_runs() {
    cases(128, 0xcac4e2, |rng| {
        let cfg = arb_config(rng);
        let mut fast = Cache::new(cfg);
        let mut reference = RefCache::new(cfg);
        for _ in 0..=rng.index(40) {
            let base = rng.range_u32(0, 1 << 20) * 4;
            let dwell = 1 + rng.index(16);
            for _ in 0..dwell {
                let addr = base ^ (rng.range_u32(0, cfg.block_bytes() / 4) * 4);
                assert_eq!(
                    fast.access(addr),
                    reference.access(addr),
                    "divergence at {addr:#x} under {cfg}"
                );
            }
        }
    });
}

#[test]
fn first_touch_of_each_block_misses() {
    cases(128, 0xcac4e4, |rng| {
        let cfg = arb_config(rng);
        let stream = arb_stream(rng);
        let mut c = Cache::new(cfg);
        let mut seen = std::collections::BTreeSet::new();
        for &addr in &stream {
            let block = addr / cfg.block_bytes();
            let hit = c.access(addr);
            if seen.insert(block) {
                assert!(!hit, "cold access hit at {addr:#x}");
            }
        }
    });
}

#[test]
fn repeat_access_always_hits() {
    cases(256, 0xcac4e5, |rng| {
        let cfg = arb_config(rng);
        let addr = rng.range_u32(0, 0x4000_0000);
        let mut c = Cache::new(cfg);
        c.access(addr);
        assert!(c.access(addr));
        assert!(c.access(addr));
    });
}

/// A naive most-recent-first list of every block touched. A touch
/// returns the block's position — its stack distance — before moving
/// it to the front, or `None` on its first touch.
#[derive(Default)]
struct NaiveStack(Vec<u32>);

impl NaiveStack {
    fn touch(&mut self, block: u32) -> Option<usize> {
        let position = self.0.iter().position(|&b| b == block);
        if let Some(p) = position {
            self.0.remove(p);
        }
        self.0.insert(0, block);
        position
    }
}

/// Every miss of a profiled cache carries the class its definition
/// gives, judged on a naive most-recent-first list of every block
/// touched: a block never seen is compulsory; one among the
/// `size/block` most recent would have hit a fully-associative LRU of
/// equal capacity, so it is conflict; anything else is capacity.
#[test]
fn miss_classes_match_their_definitions() {
    cases(24, 0xcac4e6, |rng| {
        let cfg = arb_config(rng);
        let cap = (cfg.size_bytes() / cfg.block_bytes()) as usize;
        let block_addr = |region: u32, block: u32| region + block * cfg.block_bytes();
        let mut stream = arb_stream(rng);
        // A tail cycling over more than 1,024 blocks: re-touches land
        // at distances of 1,024 and more (bucket 11).
        let tail = 1025 + rng.index(512) as u32;
        for _ in 0..2 {
            stream.extend((0..tail).map(|b| block_addr(0x3000_0000, b)));
        }
        // Cycles of cap-1, cap and cap+1 random blocks: re-touches land
        // one under, at, and one over the capacity boundary, and random
        // placement crowds some sets so they actually miss.
        for (region, len) in [
            (0x4000_0000, cap - 1),
            (0x5000_0000, cap),
            (0x6000_0000, cap + 1),
        ] {
            let mut blocks = std::collections::BTreeSet::new();
            while blocks.len() < len {
                blocks.insert(rng.range_u32(0, 1 << 16));
            }
            for _ in 0..3 {
                stream.extend(blocks.iter().map(|&b| block_addr(region, b)));
            }
        }
        let mut cache = Cache::new(cfg);
        cache.enable_profiling();
        let mut reference = RefCache::new(cfg);
        let mut recency = NaiveStack::default();
        let mut expected = MissClasses::default();
        for &addr in &stream {
            let position = recency.touch(addr / cfg.block_bytes());
            let hit = cache.access(addr);
            assert_eq!(hit, reference.access(addr), "profiling perturbed {addr:#x}");
            if !hit {
                let class = match position {
                    None => MissClass::Compulsory,
                    Some(p) if p < cap => MissClass::Conflict,
                    Some(_) => MissClass::Capacity,
                };
                assert_eq!(
                    cache.last_miss_class(),
                    Some(class),
                    "{addr:#x} under {cfg}: stack position {position:?}, capacity {cap}"
                );
                expected.add(class);
            }
        }
        assert_eq!(cache.profile().expect("profiling on").classes, expected);
    });
}

/// The per-site reuse histograms [`ReuseMeasurement`] records equal
/// the ones a naive stack gives: every access moves its block to the
/// front, and each load adds its distance's log₂ bucket (or a cold
/// count) to its site.
#[test]
fn measured_buckets_match_a_naive_stack() {
    const SITES: usize = 8;
    cases(12, 0xcac4e7, |rng| {
        let line = 1u32 << [0, 2, 5][rng.index(3)];
        let shift = line.trailing_zeros();
        let mut measured = ReuseMeasurement::new(SITES, line);
        let mut naive = NaiveStack::default();
        let mut expected = vec![SiteHistogram::default(); SITES];
        let mut access = |naive: &mut NaiveStack, at: usize, addr: u32, store: bool| {
            measured.record(at, addr, store);
            let distance = naive.touch(addr >> shift);
            if !store {
                match distance {
                    Some(d) => expected[at].buckets[distance_bucket(d as u64)] += 1,
                    None => expected[at].cold += 1,
                }
            }
        };
        // Arbitrary streams of loads and stores.
        for addr in arb_stream(rng) {
            access(&mut naive, rng.index(SITES), addr, rng.chance(0.3));
        }
        // A tail of more than 1,024 distinct blocks, walked twice.
        let tail = 1025 + rng.range_u32(0, 512);
        for _ in 0..2 {
            for b in 0..tail {
                access(&mut naive, 1, 0x3000_0000 + b * line, false);
            }
        }
        // First touches until the stack is deeper than 2^12, so every
        // bucket boundary up to there opens; now and then a re-touch
        // of the block at, just above or just below a boundary.
        let mut fresh = 0;
        while naive.0.len() <= 1 << 12 {
            access(&mut naive, 2, 0x4000_0000 + fresh * line, rng.chance(0.2));
            fresh += 1;
            if rng.chance(0.25) {
                let depth = naive.0.len();
                let boundary = 1usize << rng.index(depth.ilog2() as usize + 1);
                let position = (boundary + rng.index(3) - 1).min(depth - 1);
                let addr = naive.0[position] << shift;
                access(&mut naive, 3, addr, rng.chance(0.2));
            }
        }
        // The top index page of the u32 space, and both sides of
        // index-page boundaries (4,096 blocks to a page).
        let page_bytes = 4096u64 * u64::from(line);
        let pages = (1u64 << 32) / page_bytes;
        let mut pool: Vec<u32> = (0..32).map(|_| u32::MAX - rng.range_u32(0, 4096)).collect();
        for _ in 0..32 {
            let boundary = (1 + rng.below(pages - 1)) * page_bytes;
            let offset = rng.range_u32(0, 4 * line);
            pool.push((boundary + u64::from(offset) - 2 * u64::from(line)) as u32);
        }
        for _ in 0..400 {
            let addr = pool[rng.index(pool.len())];
            access(&mut naive, 4 + rng.index(4), addr, rng.chance(0.3));
        }
        for (at, (got, want)) in measured.sites().iter().zip(&expected).enumerate() {
            assert_eq!(got.cold, want.cold, "site {at} cold, {line}-byte lines");
            assert_eq!(
                got.buckets, want.buckets,
                "site {at} buckets, {line}-byte lines"
            );
        }
    });
}
