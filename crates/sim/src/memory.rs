//! Configurable memory system: replacement policies, an optional
//! second cache level, and a PC-indexed stride prefetcher.
//!
//! The paper evaluates delinquent-load identification against exactly
//! one memory system — a split-L1 LRU data cache. This module makes
//! the simulated memory system a matrix instead of a point:
//!
//! - **Replacement** ([`Policy`]): true LRU (the default, unchanged),
//!   tree-PLRU, or random (seeded from [`crate::RunConfig::seed`], so
//!   runs stay deterministic across engines and worker counts).
//! - **Hierarchy** ([`L2Config`]): an optional unified L2 behind the
//!   L1, [`Inclusion::Inclusive`] (L2 eviction back-invalidates L1) or
//!   [`Inclusion::Exclusive`] (levels hold disjoint lines; L2 hits
//!   migrate to L1, L1 victims fall back to L2).
//! - **Prefetch** ([`Prefetch`]): one prefetcher, triggered by demand
//!   loads — at every site, or only at the sites in
//!   [`crate::RunConfig::prefetch_sites`]. Next-line steps one block;
//!   stride steps a PC-indexed 64-entry table's confirmed stride. Each
//!   trigger fills `degree` steps ahead with a distinct *prefetch*
//!   fill reason, letting the miss observatory attribute demand hits
//!   on prefetched lines as "hidden by prefetch" instead of folding
//!   them into ordinary hits.
//!
//! MRU contract: a demand access that hits its set's MRU way changes
//! no replacement state under *any* policy (LRU: the way is already at
//! the front of the order; tree-PLRU: the path bits already point away
//! from the way that was touched last; random: hits touch no state),
//! and it cannot interact with the L2 (no miss, no victim). That is
//! what makes the trace filter exact for every policy and hierarchy:
//! it drops such hits from the stream the plain models replay (see
//! [`crate::trace`]), and only the prefetcher — which must see every
//! demand load it may trigger on — needs the full recorded stream.

use std::fmt;
use std::str::FromStr;

use dl_testkit::Rng;

use crate::cache::{Cache, CacheConfig, CacheProfile, MissClass};
use crate::cpu::RunConfig;
use crate::stats::RunResult;

/// Which replacement policy every cache level runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Policy {
    /// True LRU (the paper's model and the default).
    #[default]
    Lru,
    /// Tree-based pseudo-LRU: one binary tree of recency bits per set.
    Plru,
    /// Random victim selection via dl-testkit's xorshift64* PRNG,
    /// seeded from the run seed for cross-engine determinism.
    Random,
}

impl Policy {
    /// Stable lower-case name, matching the `--policy` spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Policy::Lru => "lru",
            Policy::Plru => "plru",
            Policy::Random => "random",
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Policy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "lru" => Ok(Policy::Lru),
            "plru" => Ok(Policy::Plru),
            "random" => Ok(Policy::Random),
            other => Err(format!(
                "unknown policy '{other}' (expected lru|plru|random)"
            )),
        }
    }
}

/// How the L2 relates to the L1's contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Inclusion {
    /// Every L1 line is also in L2; an L2 eviction back-invalidates
    /// the line from L1.
    #[default]
    Inclusive,
    /// Levels hold disjoint lines: an L2 hit migrates the line to L1
    /// (removing it from L2) and L1 victims are inserted into L2.
    Exclusive,
}

impl Inclusion {
    /// Stable short name (`"incl"` / `"excl"`), matching `--l2`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Inclusion::Inclusive => "incl",
            Inclusion::Exclusive => "excl",
        }
    }
}

impl fmt::Display for Inclusion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Inclusion {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "incl" | "inclusive" => Ok(Inclusion::Inclusive),
            "excl" | "exclusive" => Ok(Inclusion::Exclusive),
            other => Err(format!("unknown inclusion '{other}' (expected incl|excl)")),
        }
    }
}

/// Geometry and inclusion policy of the optional L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct L2Config {
    /// The L2 geometry. Must share the L1's block size.
    pub cache: CacheConfig,
    /// Inclusive or exclusive with respect to the L1.
    pub inclusion: Inclusion,
}

impl L2Config {
    /// A `size_kb`-KiB L2 with the given associativity, 32-byte
    /// blocks, and inclusion policy.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`CacheConfig::kb`]).
    #[must_use]
    pub fn kb(size_kb: u32, assoc: u32, inclusion: Inclusion) -> Self {
        L2Config {
            cache: CacheConfig::kb(size_kb, assoc),
            inclusion,
        }
    }
}

impl fmt::Display for L2Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}KB-{}w-{}",
            self.cache.size_bytes() / 1024,
            self.cache.assoc(),
            self.inclusion
        )
    }
}

impl FromStr for L2Config {
    type Err = String;

    /// Parses the `--l2` spelling: `KB[,ASSOC][,incl|excl]` (e.g.
    /// `64`, `64,8`, `64,8,excl`). Defaults: 8-way, inclusive.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split(',');
        let kb = parts
            .next()
            .map(|p| p.trim().trim_end_matches("KB").trim_end_matches("kb"))
            .filter(|p| !p.is_empty())
            .ok_or_else(|| "empty --l2 spec".to_string())?;
        let kb: u32 = kb
            .parse()
            .map_err(|_| format!("bad L2 size '{kb}' (expected KB[,ASSOC][,incl|excl])"))?;
        let mut assoc = 8u32;
        let mut inclusion = Inclusion::Inclusive;
        for part in parts {
            let part = part.trim();
            if let Ok(a) = part.parse::<u32>() {
                assoc = a;
            } else {
                inclusion = part.parse()?;
            }
        }
        let bytes = kb
            .checked_mul(1024)
            .ok_or_else(|| format!("L2 size {kb}KB does not fit in 32 bits"))?;
        let cache =
            CacheConfig::new(bytes, assoc, 32).map_err(|e| format!("bad L2 geometry: {e}"))?;
        Ok(L2Config { cache, inclusion })
    }
}

/// The prefetcher's kind and degree: each triggering load fills
/// `degree` steps ahead of its address, a step being one block
/// (next-line) or the site's confirmed stride. Degree 0 disables it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Prefetch {
    /// Next-line: `degree` blocks past every triggering load.
    NextLine(u32),
    /// PC-indexed stride table: `degree` strides ahead once a site's
    /// stride is confirmed.
    Stride(u32),
}

/// The full memory-system configuration carried by
/// [`crate::RunConfig::memory`]. The default (`lru`, no L2, no
/// prefetch) is byte-for-byte the paper's original single-L1 model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MemoryConfig {
    /// Replacement policy applied to every level.
    pub policy: Policy,
    /// Optional L2 behind the L1.
    pub l2: Option<L2Config>,
    /// Optional prefetcher.
    pub prefetch: Option<Prefetch>,
}

impl MemoryConfig {
    /// True for the paper's original model (LRU, single L1, no
    /// prefetch) — the configuration whose labels must stay
    /// byte-identical to the pre-matrix simulator.
    #[must_use]
    pub fn is_default(&self) -> bool {
        *self == MemoryConfig::default()
    }
}

impl fmt::Display for MemoryConfig {
    /// Compact label used in tables and timing keys: `lru`,
    /// `plru+l2:512KB-8w-excl`, `random+pf2`, `lru+nl1`, …
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.policy)?;
        if let Some(l2) = &self.l2 {
            write!(f, "+l2:{l2}")?;
        }
        match self.prefetch {
            Some(Prefetch::NextLine(d)) => write!(f, "+nl{d}"),
            Some(Prefetch::Stride(d)) => write!(f, "+pf{d}"),
            None => Ok(()),
        }
    }
}

/// Tree-based pseudo-LRU: `assoc - 1` recency bits per set arranged
/// as a binary heap (node `i`'s children are `2i` and `2i+1`; bit 0
/// steers left, bit 1 right). A touch points every bit on the way's
/// root path away from it; the victim walk follows the bits down.
///
/// The cache consults it only off the MRU fast path, which is sound
/// because re-touching the most recently touched way changes no bit.
#[derive(Debug, Clone)]
pub(crate) struct TreePlru {
    bits: Vec<u64>,
}

impl TreePlru {
    /// Zeroed recency bits for `sets` sets of `assoc` ways. The bits
    /// of a set pack into a u64, which [`CacheConfig::new`]'s limit of
    /// 64 ways guarantees.
    pub(crate) fn new(sets: usize, assoc: u32) -> Self {
        assert!(assoc <= 64, "tree-PLRU supports at most 64 ways");
        TreePlru {
            bits: vec![0; sets],
        }
    }

    /// Records an access (hit or fill) to `way` of `set`.
    pub(crate) fn touch(&mut self, set: usize, assoc: usize, way: usize) {
        let bits = &mut self.bits[set];
        let mut node = way + assoc;
        while node > 1 {
            let parent = node / 2;
            // Point the parent at the sibling (away from `node`).
            if node == 2 * parent {
                *bits |= 1 << (parent - 1);
            } else {
                *bits &= !(1 << (parent - 1));
            }
            node = parent;
        }
    }

    /// Chooses the way to evict from `set`. Called only when every
    /// way holds a valid line: invalid ways are always filled first.
    pub(crate) fn victim(&self, set: usize, assoc: usize) -> usize {
        let bits = self.bits[set];
        let mut node = 1;
        while node < assoc {
            node = 2 * node + ((bits >> (node - 1)) & 1) as usize;
        }
        node - assoc
    }
}

/// Random replacement: victims drawn from dl-testkit's xorshift64*
/// PRNG. Hits draw nothing, and the MRU fast path never evicts, so
/// both engines consume the stream in the same order and runs are
/// deterministic for a fixed seed.
#[derive(Debug, Clone)]
pub(crate) struct RandomEvict {
    rng: Rng,
}

impl RandomEvict {
    /// A policy drawing victims from `seed`'s xorshift64* stream.
    pub(crate) fn new(seed: u64) -> Self {
        RandomEvict {
            rng: Rng::new(seed),
        }
    }

    /// Draws the way to evict from a set of `assoc` ways.
    pub(crate) fn victim(&mut self, assoc: usize) -> usize {
        self.rng.below(assoc as u64) as usize
    }
}

/// Salts folded into the run seed so each level's random-replacement
/// stream (and nothing else) is independent.
const L1_SEED_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
const L2_SEED_SALT: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// One PC-indexed stride-table entry.
#[derive(Debug, Clone, Copy)]
struct StrideEntry {
    /// Owning load site (`u32::MAX` = empty).
    site: u32,
    /// Last demand address the site issued.
    last: u32,
    /// Last observed address delta.
    stride: i32,
    /// Confirmation counter (saturating at 3; issue at >= 2).
    conf: u8,
}

const STRIDE_SLOTS: usize = 64;
const STRIDE_CONF_ISSUE: u8 = 2;
const STRIDE_CONF_MAX: u8 = 3;

/// The prefetcher's stride table: direct-mapped on the low bits of
/// the load-site index, tagged with the full site so aliasing resets
/// training instead of cross-polluting.
#[derive(Debug, Clone)]
struct StrideTable {
    entries: Vec<StrideEntry>,
}

impl StrideTable {
    fn new() -> Self {
        StrideTable {
            entries: vec![
                StrideEntry {
                    site: u32::MAX,
                    last: 0,
                    stride: 0,
                    conf: 0,
                };
                STRIDE_SLOTS
            ],
        }
    }

    /// Trains on one demand load; returns the stride when the site's
    /// stride is confirmed and prefetches should issue.
    fn observe(&mut self, at: usize, addr: u32) -> Option<i32> {
        let entry = &mut self.entries[at & (STRIDE_SLOTS - 1)];
        let site = at as u32;
        if entry.site != site {
            *entry = StrideEntry {
                site,
                last: addr,
                stride: 0,
                conf: 0,
            };
            return None;
        }
        let delta = addr.wrapping_sub(entry.last) as i32;
        if delta != 0 && delta == entry.stride {
            entry.conf = (entry.conf + 1).min(STRIDE_CONF_MAX);
        } else {
            entry.stride = delta;
            entry.conf = 0;
        }
        entry.last = addr;
        (entry.conf >= STRIDE_CONF_ISSUE).then_some(entry.stride)
    }
}

/// The configured prefetcher: how far each trigger reaches, how its
/// step is found, and which load sites may trigger it.
#[derive(Debug, Clone)]
struct Prefetcher {
    degree: u32,
    /// The stride kind's table; `None` steps one block (next-line).
    stride: Option<StrideTable>,
    /// Per-instruction trigger mask; `None` lets every load trigger.
    sites: Option<Vec<bool>>,
}

/// Outcome of one demand access, as seen by the accounting hooks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Access {
    /// L1 hit?
    pub hit: bool,
    /// Hit on a line whose most recent fill was a prefetch — the miss
    /// the observatory attributes as "hidden by prefetch".
    pub hidden: bool,
}

/// Counters the memory system accumulates and flushes into the
/// [`RunResult`] when a run finalizes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MemCounters {
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub prefetches_issued: u64,
    pub prefetch_fills: u64,
    pub prefetch_useful: u64,
}

/// The configured memory hierarchy of one memory model: L1 (always),
/// optional L2, optional prefetcher, plus the prefetch fill reason of
/// every L1 line and the level counters.
///
/// Every demand access a model replays goes through
/// [`MemorySystem::demand_access`] in program order, whichever engine
/// produced it, so hierarchy state advances identically; the trace
/// filter only ever drops accesses that provably change no state.
#[derive(Debug, Clone)]
pub(crate) struct MemorySystem {
    l1: Cache,
    l2: Option<Box<Cache>>,
    inclusion: Inclusion,
    prefetcher: Option<Box<Prefetcher>>,
    /// Per L1 slot (`set * assoc + way`): was the line's most recent
    /// fill a prefetch? Set by a prefetch fill, cleared by a demand
    /// fill and by back-invalidation, read and cleared by a demand
    /// hit. Empty for the plain configuration, which never consults
    /// it.
    prefetched: Vec<bool>,
    /// Plain single-L1 configuration: no L2, no prefetcher. Its
    /// demand access is the bare L1 probe, with no fill reason to
    /// keep. The fork pays on the plain models most runs replay:
    /// sending them down the full walk read perfbench `exec` `wall_s`
    /// +1.6% (faster in 2 of 8 alternating pairs) and `tables` +0.8%
    /// (2 of 6) on a 2-CPU x86-64 host.
    simple: bool,
    pub(crate) counters: MemCounters,
}

impl MemorySystem {
    /// Builds the hierarchy for one run of a program of `insts`
    /// instructions: `config`'s L1 geometry, memory shape and seed,
    /// and its prefetch sites.
    ///
    /// # Panics
    ///
    /// Panics if the L2 block size differs from the L1's.
    pub(crate) fn new(config: &RunConfig, insts: usize) -> MemorySystem {
        let (l1, mem, seed) = (config.cache, &config.memory, config.seed);
        let l2 = mem.l2.map(|l2cfg| {
            assert_eq!(
                l2cfg.cache.block_bytes(),
                l1.block_bytes(),
                "L1 and L2 must share a block size"
            );
            Box::new(Cache::with_policy(
                l2cfg.cache,
                mem.policy,
                seed ^ L2_SEED_SALT,
            ))
        });
        let prefetcher = mem.prefetch.and_then(|pf| {
            let (Prefetch::NextLine(degree) | Prefetch::Stride(degree)) = pf;
            (degree > 0).then(|| {
                Box::new(Prefetcher {
                    degree,
                    stride: matches!(pf, Prefetch::Stride(_)).then(StrideTable::new),
                    sites: config.prefetch_sites.as_ref().map(|sites| {
                        let mut mask = vec![false; insts];
                        for &site in sites.iter().filter(|&&site| site < insts) {
                            mask[site] = true;
                        }
                        mask
                    }),
                })
            })
        });
        let simple = l2.is_none() && prefetcher.is_none();
        let slots = if simple {
            0
        } else {
            (l1.sets() * l1.assoc()) as usize
        };
        MemorySystem {
            l1: Cache::with_policy(l1, mem.policy, seed ^ L1_SEED_SALT),
            simple,
            l2,
            inclusion: mem.l2.map(|c| c.inclusion).unwrap_or_default(),
            prefetcher,
            prefetched: vec![false; slots],
            counters: MemCounters::default(),
        }
    }

    /// True when a prefetcher is configured: it must see every demand
    /// load it may trigger on, including the MRU hits the trace filter
    /// drops.
    pub(crate) fn prefetches(&self) -> bool {
        self.prefetcher.is_some()
    }

    /// See [`Cache::hot_params`].
    #[inline]
    pub(crate) fn hot_params(&self) -> u32 {
        self.l1.hot_params()
    }

    /// The fewest sets of any level: the finest direct-mapped filter
    /// that may strip this hierarchy's stream (see
    /// [`MruFilter`](crate::trace::MruFilter)).
    pub(crate) fn fewest_sets(&self) -> u32 {
        let l1 = self.l1.config().sets();
        self.l2.as_ref().map_or(l1, |l2| l1.min(l2.config().sets()))
    }

    /// Enables L1 miss classification (see [`Cache::enable_profiling`]).
    pub(crate) fn enable_profiling(&mut self) {
        self.l1.enable_profiling();
    }

    /// See [`Cache::last_miss_class`].
    pub(crate) fn last_miss_class(&self) -> Option<MissClass> {
        self.l1.last_miss_class()
    }

    /// See [`Cache::take_profile`].
    pub(crate) fn take_profile(&mut self) -> Option<CacheProfile> {
        self.l1.take_profile()
    }

    /// One demand access (load or store). The plain configuration is
    /// exactly the old single-cache probe; richer configurations take
    /// the full hierarchy walk.
    #[inline]
    pub(crate) fn demand_access(&mut self, addr: u32) -> Access {
        if self.simple {
            return Access {
                hit: self.l1.access(addr),
                hidden: false,
            };
        }
        self.demand_access_full(addr)
    }

    /// Demand access under a non-trivial configuration: consume the
    /// line's prefetch fill reason on a hit, walk the L2 on a miss.
    fn demand_access_full(&mut self, addr: u32) -> Access {
        let block = u64::from(addr >> self.l1.hot_params());
        let (hit, slot, victim) = self.l1.access_slot(addr);
        // A hit reads the reason; a miss just made a demand fill.
        // Either way the line is demand-reasoned from here on.
        let prefetched = std::mem::take(&mut self.prefetched[slot]);
        if hit {
            if prefetched {
                self.counters.prefetch_useful += 1;
            }
            return Access {
                hit: true,
                hidden: prefetched,
            };
        }
        self.walk_l2(block, victim);
        Access {
            hit: false,
            hidden: false,
        }
    }

    /// L2 side of an L1 miss fill (demand or prefetch): one L2 lookup
    /// plus inclusion maintenance.
    fn walk_l2(&mut self, block: u64, l1_victim: Option<u64>) {
        let Some(l2) = self.l2.as_deref_mut() else {
            return;
        };
        match self.inclusion {
            Inclusion::Inclusive => {
                // Fill flows through both levels; an L2 eviction
                // forces the line out of L1 too.
                let addr = (block as u32) << self.l1.hot_params();
                let (hit, _, evicted) = l2.access_slot(addr);
                if hit {
                    self.counters.l2_hits += 1;
                } else {
                    self.counters.l2_misses += 1;
                }
                if let Some(slot) = evicted.and_then(|v| self.l1.extract_block(v)) {
                    self.prefetched[slot] = false;
                }
            }
            Inclusion::Exclusive => {
                // An L2 hit migrates the line up (it now lives only in
                // L1); the L1 victim falls back into the L2.
                if l2.extract_block(block).is_some() {
                    self.counters.l2_hits += 1;
                } else {
                    self.counters.l2_misses += 1;
                }
                if let Some(v) = l1_victim {
                    l2.insert_block(v);
                }
            }
        }
    }

    /// Files one prefetch probe: counts the issue, and on an L1 miss
    /// fills the block with the *prefetch* reason (walking the L2 like
    /// any other fill).
    fn prefetch_fill(&mut self, addr: u32) {
        self.counters.prefetches_issued += 1;
        let block = u64::from(addr >> self.l1.hot_params());
        let (hit, slot, victim) = self.l1.access_slot(addr);
        if hit {
            return;
        }
        self.counters.prefetch_fills += 1;
        self.prefetched[slot] = true;
        self.walk_l2(block, victim);
    }

    /// Shows one demand load to the prefetcher and, if it triggers,
    /// fills `degree` steps ahead, stopping at the end of the address
    /// space. No-op when the prefetcher is off.
    pub(crate) fn prefetch_observe(&mut self, at: usize, addr: u32) {
        let Some(pf) = self.prefetcher.as_deref_mut() else {
            return;
        };
        if pf.sites.as_ref().is_some_and(|sites| !sites[at]) {
            return;
        }
        let step = match &mut pf.stride {
            Some(table) => table.observe(at, addr),
            None => Some(1 << self.l1.hot_params()),
        };
        let degree = i64::from(pf.degree);
        let Some(step) = step else {
            return;
        };
        for k in 1..=degree {
            let target = i64::from(addr) + i64::from(step) * k;
            let Ok(target) = u32::try_from(target) else {
                break; // ran off the address space; stop the burst
            };
            self.prefetch_fill(target);
        }
    }

    /// Flushes the accumulated level/prefetch counters into the run's
    /// result. Called once when a run finalizes.
    pub(crate) fn flush_into(&self, result: &mut RunResult) {
        result.prefetches_issued = self.counters.prefetches_issued;
        result.l2_hits = self.counters.l2_hits;
        result.l2_misses = self.counters.l2_misses;
        result.prefetch_fills = self.counters.prefetch_fills;
        result.prefetch_useful = self.counters.prefetch_useful;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A paper-baseline L1 behind `memory`, with every load a
    /// prefetch trigger.
    fn system(memory: MemoryConfig) -> MemorySystem {
        let config = RunConfig {
            cache: CacheConfig::paper_baseline(),
            memory,
            seed: 1,
            ..RunConfig::default()
        };
        MemorySystem::new(&config, 0)
    }

    #[test]
    fn policy_and_inclusion_parse_round_trip() {
        for p in [Policy::Lru, Policy::Plru, Policy::Random] {
            assert_eq!(p.name().parse::<Policy>().unwrap(), p);
        }
        for i in [Inclusion::Inclusive, Inclusion::Exclusive] {
            assert_eq!(i.name().parse::<Inclusion>().unwrap(), i);
        }
        assert!("clock".parse::<Policy>().is_err());
    }

    #[test]
    fn l2_spec_parses_sizes_assoc_and_inclusion() {
        let l2: L2Config = "64".parse().unwrap();
        assert_eq!(l2.cache.size_bytes(), 64 * 1024);
        assert_eq!(l2.cache.assoc(), 8);
        assert_eq!(l2.inclusion, Inclusion::Inclusive);
        let l2: L2Config = "128,4,excl".parse().unwrap();
        assert_eq!(l2.cache.size_bytes(), 128 * 1024);
        assert_eq!(l2.cache.assoc(), 4);
        assert_eq!(l2.inclusion, Inclusion::Exclusive);
        let l2: L2Config = "256KB,16".parse().unwrap();
        assert_eq!(l2.cache.assoc(), 16);
        assert!("".parse::<L2Config>().is_err());
        assert!("7".parse::<L2Config>().is_err()); // not a power of two

        // Out-of-range inputs are errors, never panics or wrapped sizes.
        let err = "4194304".parse::<L2Config>().unwrap_err();
        assert!(err.contains("32 bits"), "unexpected error: {err}");
        assert!("64,128".parse::<L2Config>().is_err());
        assert!("64,134217728".parse::<L2Config>().is_err());
    }

    #[test]
    fn memory_config_labels() {
        assert_eq!(MemoryConfig::default().to_string(), "lru");
        assert!(MemoryConfig::default().is_default());
        let m = MemoryConfig {
            policy: Policy::Plru,
            l2: Some(L2Config::kb(64, 8, Inclusion::Exclusive)),
            prefetch: Some(Prefetch::Stride(2)),
        };
        assert_eq!(m.to_string(), "plru+l2:64KB-8w-excl+pf2");
        assert!(!m.is_default());
        let m = MemoryConfig {
            prefetch: Some(Prefetch::NextLine(1)),
            ..MemoryConfig::default()
        };
        assert_eq!(m.to_string(), "lru+nl1");
    }

    #[test]
    fn plru_victim_follows_touch_history() {
        let mut p = TreePlru::new(1, 4);
        // Touch ways 0..3 in order; the victim walk must point at the
        // least recently protected subtree.
        for w in 0..4 {
            p.touch(0, 4, w);
        }
        // Last touch was way 3: root points left, left subtree points
        // at way 1's sibling — victim must not be way 3.
        let v = p.victim(0, 4);
        assert_ne!(v, 3);
        // Touching the victim repeatedly keeps moving protection.
        p.touch(0, 4, v);
        assert_ne!(p.victim(0, 4), v);
    }

    #[test]
    fn plru_touch_is_idempotent() {
        // The MRU fast-path contract: re-touching the most recently
        // touched way changes nothing.
        let mut a = TreePlru::new(1, 8);
        for w in [3usize, 5, 1, 6] {
            a.touch(0, 8, w);
        }
        let before = a.bits.clone();
        a.touch(0, 8, 6);
        assert_eq!(a.bits, before);
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let mut a = RandomEvict::new(42);
        let mut b = RandomEvict::new(42);
        let sa: Vec<usize> = (0..32).map(|_| a.victim(4)).collect();
        let sb: Vec<usize> = (0..32).map(|_| b.victim(4)).collect();
        assert_eq!(sa, sb);
        assert!(sa.iter().all(|&w| w < 4));
    }

    #[test]
    fn stride_table_confirms_then_issues() {
        let mut t = StrideTable::new();
        assert_eq!(t.observe(4, 0x1000), None); // allocate
        assert_eq!(t.observe(4, 0x1020), None); // learn stride
        assert_eq!(t.observe(4, 0x1040), None); // conf 1
        assert_eq!(t.observe(4, 0x1060), Some(0x20)); // conf 2: issue
        assert_eq!(t.observe(4, 0x1080), Some(0x20));
        // A stride break retrains.
        assert_eq!(t.observe(4, 0x9000), None);
        assert_eq!(t.observe(4, 0x9020), None);
    }

    #[test]
    fn stride_table_aliasing_resets_training() {
        let mut t = StrideTable::new();
        for (i, addr) in [(4usize, 0x1000u32), (4, 0x1020), (4, 0x1040)] {
            t.observe(i, addr);
        }
        // Site 68 aliases slot 4 (64-entry table) and steals it.
        assert_eq!(t.observe(68, 0x5000), None);
        // Site 4 must re-allocate from scratch.
        assert_eq!(t.observe(4, 0x1060), None);
        assert_eq!(t.observe(4, 0x1080), None);
        assert_eq!(t.observe(4, 0x10a0), None);
    }

    #[test]
    fn l2_inclusive_hits_after_l1_eviction() {
        // L1 8KB/4w, L2 64KB/8w inclusive: stream past L1 capacity,
        // then re-touch — L1 misses must hit in L2.
        let mem = MemoryConfig {
            policy: Policy::Lru,
            l2: Some(L2Config::kb(64, 8, Inclusion::Inclusive)),
            prefetch: None,
        };
        let mut ms = system(mem);
        let blocks = 16 * 1024 / 32; // 16KB working set: 2x L1, fits L2
        for i in 0..blocks {
            assert!(!ms.demand_access(0x2000_0000 + i * 32).hit);
        }
        let cold = ms.counters.l2_misses;
        assert_eq!(cold, u64::from(blocks));
        let before_hits = ms.counters.l2_hits;
        let mut l1_misses = 0;
        for i in 0..blocks {
            if !ms.demand_access(0x2000_0000 + i * 32).hit {
                l1_misses += 1;
            }
        }
        assert!(l1_misses > 0, "working set exceeds L1");
        assert_eq!(ms.counters.l2_hits - before_hits, l1_misses);
        assert_eq!(ms.counters.l2_misses, cold, "second pass fits L2");
    }

    #[test]
    fn l2_exclusive_migrates_lines_between_levels() {
        let mem = MemoryConfig {
            policy: Policy::Lru,
            l2: Some(L2Config::kb(64, 8, Inclusion::Exclusive)),
            prefetch: None,
        };
        let mut ms = system(mem);
        let blocks = 16 * 1024 / 32;
        for i in 0..blocks {
            ms.demand_access(0x2000_0000 + i * 32);
        }
        // Second pass: every L1 miss is an L2 hit (victims fell back).
        let (h0, m0) = (ms.counters.l2_hits, ms.counters.l2_misses);
        for i in 0..blocks {
            ms.demand_access(0x2000_0000 + i * 32);
        }
        assert!(ms.counters.l2_hits > h0);
        assert_eq!(ms.counters.l2_misses, m0, "second pass never misses L2");
    }

    #[test]
    fn prefetch_fills_hide_streaming_misses() {
        // Both kinds must fill ahead of a unit-block stream and file
        // those fills in the hidden-by-prefetch ledger.
        for pf in [Prefetch::NextLine(2), Prefetch::Stride(2)] {
            let mut ms = system(MemoryConfig {
                prefetch: Some(pf),
                ..MemoryConfig::default()
            });
            let mut misses = 0u64;
            let mut hidden = 0u64;
            for i in 0..1024u32 {
                let addr = 0x2000_0000 + i * 32;
                let acc = ms.demand_access(addr);
                if !acc.hit {
                    misses += 1;
                }
                if acc.hidden {
                    hidden += 1;
                }
                ms.prefetch_observe(7, addr);
            }
            assert!(
                misses < 1024 / 2,
                "{pf:?} must hide most of a unit-stride stream ({misses} misses)"
            );
            assert!(
                hidden > 0,
                "{pf:?}: hidden-by-prefetch hits must be attributed"
            );
            assert_eq!(ms.counters.prefetch_useful, hidden, "{pf:?}");
            assert!(ms.counters.prefetch_fills >= hidden, "{pf:?}");
            assert!(ms.counters.prefetches_issued >= ms.counters.prefetch_fills);
        }
    }

    #[test]
    fn default_config_is_simple_and_counts_nothing() {
        let mut ms = system(MemoryConfig::default());
        for i in 0..256u32 {
            ms.demand_access(0x2000_0000 + i * 32);
            ms.prefetch_observe(3, 0x2000_0000 + i * 32);
        }
        let c = ms.counters;
        assert_eq!(
            (
                c.l2_hits,
                c.l2_misses,
                c.prefetches_issued,
                c.prefetch_fills,
                c.prefetch_useful
            ),
            (0, 0, 0, 0, 0)
        );
    }
}
