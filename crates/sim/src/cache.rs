//! A set-associative, write-allocate data-cache model.
//!
//! Matches the paper's simulated cache: the training configuration is a
//! 4-way, 256-set, 32-byte-block data cache (32 KiB); the evaluation
//! sweeps associativity (2/4/8) and capacity (8–64 KiB). Replacement
//! defaults to true LRU; [`Cache::with_policy`] selects tree-PLRU or
//! random instead (see [`crate::memory`]), and the block-level
//! operations ([`Cache::invalidate_block`] and friends) exist for the
//! two-level hierarchy's inclusion maintenance.

use std::fmt;

use crate::memory::{Policy, RandomEvict, ReplacementPolicy, TreePlru};
use crate::reuse::StackDistance;

/// Geometry of a cache: total capacity, associativity, and block size.
///
/// # Example
///
/// ```
/// use dl_sim::CacheConfig;
/// let c = CacheConfig::paper_training();
/// assert_eq!(c.sets(), 256);
/// assert_eq!(c.size_bytes(), 32 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    size: u32,
    assoc: u32,
    block: u32,
}

/// Error constructing an invalid [`CacheConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfigError(String);

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid cache configuration: {}", self.0)
    }
}

impl std::error::Error for CacheConfigError {}

impl CacheConfig {
    /// Creates a cache geometry.
    ///
    /// # Errors
    ///
    /// Returns an error unless `size`, `assoc`, and `block` are powers
    /// of two with `size >= assoc * block`.
    pub fn new(size: u32, assoc: u32, block: u32) -> Result<Self, CacheConfigError> {
        for (name, v) in [("size", size), ("assoc", assoc), ("block", block)] {
            if v == 0 || !v.is_power_of_two() {
                return Err(CacheConfigError(format!(
                    "{name} = {v} must be a nonzero power of two"
                )));
            }
        }
        if size < assoc * block {
            return Err(CacheConfigError(format!(
                "size {size} smaller than one set (assoc {assoc} x block {block})"
            )));
        }
        Ok(CacheConfig { size, assoc, block })
    }

    /// The paper's training-phase cache: 4-way, 256 sets, 32-byte
    /// blocks (32 KiB).
    #[must_use]
    pub fn paper_training() -> Self {
        CacheConfig::new(32 * 1024, 4, 32).expect("static config is valid")
    }

    /// The paper's baseline evaluation cache (Table 11): 8 KiB, 4-way,
    /// 32-byte blocks.
    #[must_use]
    pub fn paper_baseline() -> Self {
        CacheConfig::new(8 * 1024, 4, 32).expect("static config is valid")
    }

    /// A `size_kb`-KiB cache with the given associativity and 32-byte
    /// blocks, as used in the paper's sweeps.
    ///
    /// # Panics
    ///
    /// Panics if the resulting geometry is invalid.
    #[must_use]
    pub fn kb(size_kb: u32, assoc: u32) -> Self {
        CacheConfig::new(size_kb * 1024, assoc, 32).expect("invalid sweep geometry")
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> u32 {
        self.size
    }

    /// Associativity (ways per set).
    #[must_use]
    pub fn assoc(&self) -> u32 {
        self.assoc
    }

    /// Block (line) size in bytes.
    #[must_use]
    pub fn block_bytes(&self) -> u32 {
        self.block
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u32 {
        self.size / (self.assoc * self.block)
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::paper_training()
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}KB {}-way {}B-block",
            self.size / 1024,
            self.assoc,
            self.block
        )
    }
}

const INVALID_TAG: u64 = u64::MAX;

/// Reconstructs the block number a displaced tag held, or `None` for
/// an invalid (empty) way. Block and (set, tag) determine each other.
fn evicted_block(old_tag: u64, set: u32, tag_shift: u32) -> Option<u64> {
    (old_tag != INVALID_TAG).then(|| (old_tag << tag_shift) | u64::from(set))
}

/// The classical "three Cs" classification of one cache miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MissClass {
    /// First-ever reference to the block (cold miss).
    #[default]
    Compulsory,
    /// Would miss even in a fully-associative cache of the same
    /// capacity (working set too large).
    Capacity,
    /// Would hit a fully-associative cache of the same capacity but
    /// misses here — caused purely by set-index conflicts.
    Conflict,
}

impl MissClass {
    /// Stable index (0 = compulsory, 1 = capacity, 2 = conflict) used
    /// by per-site attribution arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Miss counts by class.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MissClasses {
    /// Cold (first-reference) misses.
    pub compulsory: u64,
    /// Working-set (fully-associative) misses.
    pub capacity: u64,
    /// Set-conflict misses.
    pub conflict: u64,
}

impl MissClasses {
    /// Total classified misses.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.compulsory + self.capacity + self.conflict
    }

    /// Adds one miss of `class`.
    pub fn add(&mut self, class: MissClass) {
        match class {
            MissClass::Compulsory => self.compulsory += 1,
            MissClass::Capacity => self.capacity += 1,
            MissClass::Conflict => self.conflict += 1,
        }
    }
}

/// Opt-in cache profiling output: miss-class breakdown plus per-set
/// access/miss histograms (the raw material for conflict analysis).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheProfile {
    /// Misses by compulsory/capacity/conflict class. Counts *every*
    /// fill the cache performed, including prefetch fills.
    pub classes: MissClasses,
    /// Accesses per set (length = number of sets).
    pub set_accesses: Vec<u64>,
    /// Misses per set (length = number of sets).
    pub set_misses: Vec<u64>,
}

/// Shadow state backing miss classification: an LRU stack over every
/// block this cache has seen. A missing block never seen before is
/// compulsory; one whose stack distance is below the capacity in
/// blocks would have hit a fully-associative LRU cache of the same
/// size, so it is a conflict miss; anything else is capacity.
#[derive(Debug, Clone)]
struct ProfileState {
    stack: StackDistance,
    cap_blocks: u64,
    profile: CacheProfile,
    last_class: MissClass,
}

impl ProfileState {
    fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets() as usize;
        ProfileState {
            stack: StackDistance::new(),
            cap_blocks: u64::from(cfg.size_bytes() / cfg.block_bytes()),
            profile: CacheProfile {
                classes: MissClasses::default(),
                set_accesses: vec![0; sets],
                set_misses: vec![0; sets],
            },
            last_class: MissClass::default(),
        }
    }
}

/// Replacement machinery: the default LRU keeps its fused
/// search/recency representation (the `order` permutation inside
/// [`Cache`], searched MRU-first and rotated in place); the
/// alternative policies carry their own per-set state behind
/// [`ReplacementPolicy`] and are dispatched statically per access.
#[derive(Debug, Clone)]
enum Repl {
    /// True LRU via the `order` permutation (not this enum's state).
    Lru,
    /// Tree-PLRU recency bits.
    Plru(TreePlru),
    /// Random victims from a seeded PRNG.
    Random(RandomEvict),
}

impl Repl {
    fn touch(&mut self, set: usize, assoc: usize, way: usize) {
        match self {
            // The LRU arm fuses its touch into the set walk.
            Repl::Lru => unreachable!("LRU recency lives in Cache::order"),
            Repl::Plru(p) => p.touch(set, assoc, way),
            Repl::Random(r) => r.touch(set, assoc, way),
        }
    }

    fn victim(&mut self, set: usize, assoc: usize) -> usize {
        match self {
            Repl::Lru => unreachable!("LRU victims live in Cache::order"),
            Repl::Plru(p) => p.victim(set, assoc),
            Repl::Random(r) => r.victim(set, assoc),
        }
    }

    fn reset(&mut self, sets: usize, assoc: u32) {
        match self {
            Repl::Lru => {}
            Repl::Plru(p) => *p = TreePlru::new(sets, assoc),
            Repl::Random(r) => r.reset(),
        }
    }
}

/// A simulated data cache with write-allocate stores and pluggable
/// replacement (true LRU by default).
///
/// LRU replacement state is a per-set MRU-first permutation of way
/// indices (`order`), not timestamps: a hit rotates the touched way
/// to the front, a miss evicts the way at the tail. Repeated accesses
/// to the hottest block of a set — by far the common case in loop
/// code — take a one-compare fast path that neither walks the set nor
/// rewrites the recency state; that fast path stays valid under every
/// policy because re-touching the most recently touched way is always
/// a no-op (see [`crate::memory`]).
///
/// # Example
///
/// ```
/// use dl_sim::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig::kb(8, 2));
/// assert!(!c.access(0x1000_0000)); // cold miss
/// assert!(c.access(0x1000_0004));  // same 32-byte block
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    // tags[set * assoc + way]; INVALID_TAG means empty.
    tags: Vec<u64>,
    // order[set * assoc + i] is the way index of the i-th most
    // recently used way of `set` (i = 0 ⇒ MRU, i = assoc-1 ⇒ LRU).
    order: Vec<u16>,
    // mru[set] holds the *block number* resident in the set's MRU way
    // (mirroring tags[set * assoc + order[set * assoc]]; block and
    // (set, tag) determine each other), so the hot-path hit check is
    // one shift, one mask and one compare — no tag extraction.
    mru: Vec<u64>,
    set_shift: u32,
    set_mask: u32,
    tag_shift: u32,
    hits: u64,
    misses: u64,
    repl: Repl,
    // Opt-in profiling (miss classes, per-set histograms). `profiling`
    // mirrors `profile.is_some()` so the hot path tests one bool.
    profiling: bool,
    profile: Option<Box<ProfileState>>,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        let assoc = cfg.assoc() as usize;
        let ways = cfg.sets() as usize * assoc;
        let mut order = vec![0u16; ways];
        for (i, slot) in order.iter_mut().enumerate() {
            *slot = (i % assoc) as u16;
        }
        Cache {
            cfg,
            tags: vec![INVALID_TAG; ways],
            order,
            mru: vec![INVALID_TAG; cfg.sets() as usize],
            set_shift: cfg.block_bytes().trailing_zeros(),
            set_mask: cfg.sets() - 1,
            tag_shift: (cfg.sets() - 1).count_ones(),
            hits: 0,
            misses: 0,
            repl: Repl::Lru,
            profiling: false,
            profile: None,
        }
    }

    /// Creates an empty cache running `policy` instead of the default
    /// LRU. `seed` feeds the random policy's PRNG (other policies
    /// ignore it), keeping victim streams deterministic per run.
    #[must_use]
    pub fn with_policy(cfg: CacheConfig, policy: Policy, seed: u64) -> Self {
        let mut cache = Cache::new(cfg);
        cache.repl = match policy {
            Policy::Lru => Repl::Lru,
            Policy::Plru => Repl::Plru(TreePlru::new(cfg.sets() as usize, cfg.assoc())),
            Policy::Random => Repl::Random(RandomEvict::new(seed)),
        };
        cache
    }

    /// The replacement policy this cache runs.
    #[must_use]
    pub fn policy(&self) -> Policy {
        match self.repl {
            Repl::Lru => Policy::Lru,
            Repl::Plru(_) => Policy::Plru,
            Repl::Random(_) => Policy::Random,
        }
    }

    /// Enables miss classification and per-set histograms. Profiling
    /// tracks a shadow LRU stack, so enable it only when the breakdown
    /// is wanted — never on the memoized table-generation hot path's
    /// default configuration.
    pub fn enable_profiling(&mut self) {
        self.profile = Some(Box::new(ProfileState::new(self.cfg)));
        self.profiling = true;
    }

    /// The class of the most recent profiled miss, or `None` if
    /// profiling is off or no miss has occurred yet.
    #[must_use]
    pub fn last_miss_class(&self) -> Option<MissClass> {
        self.profile
            .as_ref()
            .filter(|p| p.profile.classes.total() > 0)
            .map(|p| p.last_class)
    }

    /// Returns the accumulated profile, leaving profiling enabled, or
    /// `None` if profiling was never enabled.
    #[must_use]
    pub fn profile(&self) -> Option<&CacheProfile> {
        self.profile.as_ref().map(|p| &p.profile)
    }

    /// Takes the accumulated profile out of the cache, disabling
    /// further profiling.
    #[must_use]
    pub fn take_profile(&mut self) -> Option<CacheProfile> {
        self.profiling = false;
        self.profile.take().map(|p| p.profile)
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// The block-offset shift (log2 of the block size) for callers
    /// that hoist it out of an access loop (the block engine's fast
    /// path computes block numbers from registers instead of
    /// reloading this field per access).
    #[inline]
    pub(crate) fn hot_params(&self) -> u32 {
        self.set_shift
    }

    /// The per-set MRU block-number table (length = number of sets, a
    /// power of two; a block's set is `block & (sets - 1)`). An access
    /// whose block number matches its set's entry is a hit that
    /// changes no replacement state, so the block engine's fast path
    /// answers it with one compare and skips [`Cache::access`]
    /// entirely — leaving the aggregate `hits` counter behind. That is
    /// sound because cache totals are not observable through a run
    /// ([`crate::RunResult`] carries its own counters); direct users
    /// of the public API always go through [`Cache::access`], which
    /// counts every access.
    #[inline(always)]
    pub(crate) fn mru_blocks(&self) -> &[u64] {
        &self.mru
    }

    /// Simulates one access to `addr`, returning `true` on hit.
    /// On a miss the block is filled (evicting the policy's victim).
    #[inline]
    pub fn access(&mut self, addr: u32) -> bool {
        self.access_with_victim(addr).0
    }

    /// Like [`Cache::access`], additionally reporting the block number
    /// the fill evicted (if the access missed and displaced a valid
    /// line) — the information the two-level hierarchy needs for
    /// inclusion maintenance. Victim reconstruction runs only on the
    /// miss path, so [`Cache::access`] pays nothing for it.
    #[inline]
    pub(crate) fn access_with_victim(&mut self, addr: u32) -> (bool, Option<u64>) {
        let block = u64::from(addr >> self.set_shift);
        let set = (block as u32) & self.set_mask;
        let tag = block >> self.tag_shift;
        // Fast path: the MRU way already holds the block, so recency
        // state is already correct — one compare, no set walk.
        if self.mru[set as usize] == block {
            self.hits += 1;
            if self.profiling {
                self.profile_access(block, set, true);
            }
            return (true, None);
        }
        let assoc = self.cfg.assoc as usize;
        let (hit, evicted) = self.access_slow(set as usize * assoc, assoc, set, tag);
        self.mru[set as usize] = block;
        if self.profiling {
            self.profile_access(block, set, hit);
        }
        (hit, evicted)
    }

    /// Profiling bookkeeping for one access: per-set histograms, the
    /// shadow LRU stack, and (on a miss) classification. Out of line —
    /// production configurations never enable it.
    #[cold]
    fn profile_access(&mut self, block: u64, set: u32, hit: bool) {
        let p = self.profile.as_mut().expect("profiling flag implies state");
        p.profile.set_accesses[set as usize] += 1;
        // Blocks come from 32-bit addresses, so they fit in u32.
        let distance = p.stack.touch(block as u32);
        if !hit {
            p.profile.set_misses[set as usize] += 1;
            let class = match distance {
                None => MissClass::Compulsory,
                Some(d) if d < p.cap_blocks => MissClass::Conflict,
                Some(_) => MissClass::Capacity,
            };
            p.profile.classes.add(class);
            p.last_class = class;
        }
    }

    /// Non-MRU hit or miss: walk the set and update the recency state,
    /// reporting the evicted block (if any valid line was displaced).
    fn access_slow(
        &mut self,
        base: usize,
        assoc: usize,
        set: u32,
        tag: u64,
    ) -> (bool, Option<u64>) {
        if !matches!(self.repl, Repl::Lru) {
            return self.access_slow_policy(base, assoc, set, tag);
        }
        // True LRU: walk the `order` permutation.
        let order = &mut self.order[base..base + assoc];
        let hit_pos = order[1..]
            .iter()
            .position(|&w| self.tags[base + w as usize] == tag);
        if let Some(p) = hit_pos {
            let p = p + 1;
            let w = order[p];
            order.copy_within(0..p, 1);
            order[0] = w;
            self.hits += 1;
            return (true, None);
        }
        // Miss: evict the LRU way (the tail of the order). Untouched
        // (invalid) ways sit at the tail, so cold fills consume them
        // before any valid line is evicted.
        let victim = order[assoc - 1];
        order.copy_within(0..assoc - 1, 1);
        order[0] = victim;
        let old = self.tags[base + victim as usize];
        self.tags[base + victim as usize] = tag;
        self.misses += 1;
        (false, evicted_block(old, set, self.tag_shift))
    }

    /// The PLRU/random set walk: hit detection scans the tags directly
    /// (these policies keep no search order), recency goes through the
    /// policy state, and invalid ways always fill before a victim is
    /// consulted — matching the LRU arm, whose untouched ways sit at
    /// the order tail.
    fn access_slow_policy(
        &mut self,
        base: usize,
        assoc: usize,
        set: u32,
        tag: u64,
    ) -> (bool, Option<u64>) {
        for way in 0..assoc {
            if self.tags[base + way] == tag {
                self.repl.touch(set as usize, assoc, way);
                self.hits += 1;
                return (true, None);
            }
        }
        self.misses += 1;
        let way = match (0..assoc).find(|&w| self.tags[base + w] == INVALID_TAG) {
            Some(w) => w,
            None => self.repl.victim(set as usize, assoc),
        };
        let old = self.tags[base + way];
        self.tags[base + way] = tag;
        self.repl.touch(set as usize, assoc, way);
        (false, evicted_block(old, set, self.tag_shift))
    }

    /// Removes `block` if present, reporting whether it was. Used by
    /// the hierarchy: back-invalidation when an inclusive L2 evicts,
    /// and the probe side of an exclusive L2 (a hit migrates the line
    /// up, so it leaves this level). Clears the MRU shortcut when it
    /// pointed at the removed line — a stale entry would fake hits on
    /// the fast path — and demotes the freed way to the LRU tail so
    /// the next fill reuses it.
    pub(crate) fn extract_block(&mut self, block: u64) -> bool {
        let set = (block as u32) & self.set_mask;
        let tag = block >> self.tag_shift;
        let assoc = self.cfg.assoc as usize;
        let base = set as usize * assoc;
        let Some(way) = (0..assoc).find(|&w| self.tags[base + w] == tag) else {
            return false;
        };
        self.tags[base + way] = INVALID_TAG;
        if self.mru[set as usize] == block {
            self.mru[set as usize] = INVALID_TAG;
        }
        if matches!(self.repl, Repl::Lru) {
            let order = &mut self.order[base..base + assoc];
            let pos = order
                .iter()
                .position(|&w| usize::from(w) == way)
                .expect("resident way appears in its set's order");
            order.copy_within(pos + 1.., pos);
            order[assoc - 1] = way as u16;
        }
        true
    }

    /// Removes `block` if present (inclusive back-invalidation).
    pub(crate) fn invalidate_block(&mut self, block: u64) {
        self.extract_block(block);
    }

    /// Inserts `block` without counting an access — an exclusive L2
    /// absorbing an L1 victim. Lands on the existing line if present
    /// (refreshing recency), else an invalid way, else the policy
    /// victim; returns the displaced block, if any.
    pub(crate) fn insert_block(&mut self, block: u64) -> Option<u64> {
        let set = (block as u32) & self.set_mask;
        let tag = block >> self.tag_shift;
        let assoc = self.cfg.assoc as usize;
        let base = set as usize * assoc;
        if matches!(self.repl, Repl::Lru) {
            let order = &mut self.order[base..base + assoc];
            // Invalid ways always sit at the order tail, so the tail is
            // the landing slot whether or not the set is full.
            let pos = order
                .iter()
                .position(|&w| self.tags[base + usize::from(w)] == tag)
                .unwrap_or(assoc - 1);
            let way = usize::from(order[pos]);
            order.copy_within(0..pos, 1);
            order[0] = way as u16;
            let old = self.tags[base + way];
            self.tags[base + way] = tag;
            self.mru[set as usize] = block;
            return (old != tag)
                .then(|| evicted_block(old, set, self.tag_shift))
                .flatten();
        }
        let existing = (0..assoc).find(|&w| self.tags[base + w] == tag);
        let way = match existing {
            Some(w) => w,
            None => match (0..assoc).find(|&w| self.tags[base + w] == INVALID_TAG) {
                Some(w) => w,
                None => self.repl.victim(set as usize, assoc),
            },
        };
        let old = self.tags[base + way];
        self.tags[base + way] = tag;
        self.repl.touch(set as usize, assoc, way);
        self.mru[set as usize] = block;
        (old != tag)
            .then(|| evicted_block(old, set, self.tag_shift))
            .flatten()
    }

    /// Total hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Invalidates all lines and resets counters.
    pub fn reset(&mut self) {
        self.tags.fill(INVALID_TAG);
        self.mru.fill(INVALID_TAG);
        let assoc = self.cfg.assoc as usize;
        for (i, slot) in self.order.iter_mut().enumerate() {
            *slot = (i % assoc) as u16;
        }
        self.hits = 0;
        self.misses = 0;
        self.repl.reset(self.cfg.sets() as usize, self.cfg.assoc());
        if self.profiling {
            self.profile = Some(Box::new(ProfileState::new(self.cfg)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(CacheConfig::new(8192, 4, 32).is_ok());
        assert!(CacheConfig::new(0, 4, 32).is_err());
        assert!(CacheConfig::new(8192, 3, 32).is_err());
        assert!(CacheConfig::new(8192, 4, 48).is_err());
        assert!(CacheConfig::new(64, 4, 32).is_err()); // smaller than one set
    }

    #[test]
    fn paper_training_geometry() {
        let c = CacheConfig::paper_training();
        assert_eq!(c.sets(), 256);
        assert_eq!(c.assoc(), 4);
        assert_eq!(c.block_bytes(), 32);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(CacheConfig::kb(8, 4));
        assert!(!c.access(0x2000_0000));
        assert!(c.access(0x2000_0000));
        assert!(c.access(0x2000_001f)); // same block
        assert!(!c.access(0x2000_0020)); // next block
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_eviction_within_set() {
        // Direct test of LRU: 2-way cache; three blocks mapping to the
        // same set must evict the least-recently-used.
        let cfg = CacheConfig::kb(8, 2); // 128 sets, set stride = 128*32 = 4096
        let mut c = Cache::new(cfg);
        let stride = cfg.sets() * cfg.block_bytes();
        let a = 0x2000_0000;
        let b = a + stride;
        let d = a + 2 * stride;
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(c.access(a)); // refresh a; b becomes LRU
        assert!(!c.access(d)); // evicts b
        assert!(c.access(a)); // a still resident
        assert!(!c.access(b)); // b was evicted
    }

    #[test]
    fn full_associativity_holds_working_set() {
        let cfg = CacheConfig::kb(8, 4);
        let mut c = Cache::new(cfg);
        let stride = cfg.sets() * cfg.block_bytes();
        let addrs: Vec<u32> = (0..4).map(|i| 0x2000_0000 + i * stride).collect();
        for &a in &addrs {
            assert!(!c.access(a));
        }
        // All four ways of the set are occupied; all should now hit.
        for &a in &addrs {
            assert!(c.access(a));
        }
    }

    #[test]
    fn capacity_miss_on_large_working_set() {
        let cfg = CacheConfig::kb(8, 4);
        let mut c = Cache::new(cfg);
        // Touch 16 KiB (twice the capacity) twice; second pass must
        // miss everywhere under LRU with a sequential scan.
        let blocks = (16 * 1024) / cfg.block_bytes();
        for pass in 0..2 {
            for i in 0..blocks {
                let hit = c.access(0x2000_0000 + i * cfg.block_bytes());
                assert!(!hit, "pass {pass} block {i} unexpectedly hit");
            }
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut c = Cache::new(CacheConfig::kb(8, 4));
        c.access(0x2000_0000);
        c.reset();
        assert_eq!(c.hits() + c.misses(), 0);
        assert!(!c.access(0x2000_0000));
    }

    #[test]
    fn display_format() {
        assert_eq!(CacheConfig::kb(16, 8).to_string(), "16KB 8-way 32B-block");
    }

    #[test]
    fn profiling_does_not_change_hit_miss_behaviour() {
        let cfg = CacheConfig::kb(8, 2);
        let mut plain = Cache::new(cfg);
        let mut profiled = Cache::new(cfg);
        profiled.enable_profiling();
        let stride = cfg.sets() * cfg.block_bytes();
        for i in 0..2000u32 {
            let addr = 0x2000_0000 + (i % 7) * stride + (i % 97) * 4;
            assert_eq!(plain.access(addr), profiled.access(addr), "access {i}");
        }
        assert_eq!(plain.hits(), profiled.hits());
        assert_eq!(plain.misses(), profiled.misses());
        let profile = profiled.take_profile().expect("profiling was on");
        assert_eq!(profile.classes.total(), plain.misses());
        assert_eq!(profile.set_misses.iter().sum::<u64>(), plain.misses());
        assert_eq!(profile.set_accesses.iter().sum::<u64>(), 2000);
    }

    #[test]
    fn compulsory_misses_on_first_touch() {
        let mut c = Cache::new(CacheConfig::kb(8, 4));
        c.enable_profiling();
        c.access(0x2000_0000);
        c.access(0x2000_0020);
        c.access(0x2000_0000); // hit
        let p = c.profile().unwrap();
        assert_eq!(p.classes.compulsory, 2);
        assert_eq!(p.classes.capacity, 0);
        assert_eq!(p.classes.conflict, 0);
    }

    #[test]
    fn conflict_misses_detected_by_shadow_cache() {
        // 2-way cache: round-robin over 3 blocks in ONE set thrashes
        // under LRU, but a fully-associative cache of the same size
        // holds all 3 — so every post-compulsory miss is a conflict.
        let cfg = CacheConfig::kb(8, 2);
        let mut c = Cache::new(cfg);
        c.enable_profiling();
        let stride = cfg.sets() * cfg.block_bytes();
        for round in 0..10 {
            for i in 0..3u32 {
                let hit = c.access(0x2000_0000 + i * stride);
                assert!(!hit, "round {round} block {i}");
            }
        }
        let p = c.profile().unwrap();
        assert_eq!(p.classes.compulsory, 3);
        assert_eq!(p.classes.conflict, 27);
        assert_eq!(p.classes.capacity, 0);
        // All misses land in the single contested set.
        assert_eq!(p.set_misses.iter().filter(|&&m| m > 0).count(), 1);
    }

    #[test]
    fn capacity_misses_on_oversized_working_set() {
        // Sequential scan over 2x the cache capacity: after the first
        // pass, repeats miss in the fully-associative shadow too.
        let cfg = CacheConfig::kb(8, 4);
        let mut c = Cache::new(cfg);
        c.enable_profiling();
        let blocks = 2 * cfg.size_bytes() / cfg.block_bytes();
        for _ in 0..2 {
            for i in 0..blocks {
                c.access(0x2000_0000 + i * cfg.block_bytes());
            }
        }
        let p = c.profile().unwrap();
        assert_eq!(p.classes.compulsory, u64::from(blocks));
        assert_eq!(p.classes.capacity, u64::from(blocks));
        assert_eq!(p.classes.conflict, 0);
    }

    #[test]
    fn reset_clears_profile_but_keeps_profiling_enabled() {
        let mut c = Cache::new(CacheConfig::kb(8, 4));
        c.enable_profiling();
        c.access(0x2000_0000);
        c.reset();
        assert!(!c.access(0x2000_0000)); // compulsory again after reset
        let p = c.profile().unwrap();
        assert_eq!(p.classes.compulsory, 1);
        assert_eq!(p.set_accesses.iter().sum::<u64>(), 1);
    }

    #[test]
    fn with_policy_reports_and_defaults() {
        let cfg = CacheConfig::kb(8, 4);
        assert_eq!(Cache::new(cfg).policy(), Policy::Lru);
        assert_eq!(
            Cache::with_policy(cfg, Policy::Plru, 0).policy(),
            Policy::Plru
        );
        assert_eq!(
            Cache::with_policy(cfg, Policy::Random, 7).policy(),
            Policy::Random
        );
    }

    #[test]
    fn every_policy_holds_a_set_sized_working_set() {
        // Any sane policy keeps a working set that exactly fills one
        // set resident across re-touches (no evictions ever needed).
        for policy in [Policy::Lru, Policy::Plru, Policy::Random] {
            let cfg = CacheConfig::kb(8, 4);
            let mut c = Cache::with_policy(cfg, policy, 99);
            let stride = cfg.sets() * cfg.block_bytes();
            let addrs: Vec<u32> = (0..4).map(|i| 0x2000_0000 + i * stride).collect();
            for &a in &addrs {
                assert!(!c.access(a), "{policy}: cold fill");
            }
            for _ in 0..3 {
                for &a in &addrs {
                    assert!(c.access(a), "{policy}: resident working set");
                }
            }
        }
    }

    #[test]
    fn plru_evicts_unprotected_way() {
        // 2-way PLRU degenerates to true LRU: a(miss) b(miss) a(hit)
        // d(miss) must evict b.
        let cfg = CacheConfig::kb(8, 2);
        let mut c = Cache::with_policy(cfg, Policy::Plru, 0);
        let stride = cfg.sets() * cfg.block_bytes();
        let (a, b, d) = (0x2000_0000, 0x2000_0000 + stride, 0x2000_0000 + 2 * stride);
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(c.access(a));
        assert!(!c.access(d));
        assert!(c.access(a), "a was protected");
        assert!(!c.access(b), "b was the PLRU victim");
    }

    #[test]
    fn random_policy_is_deterministic_and_stays_in_set() {
        let cfg = CacheConfig::kb(8, 2);
        let mut x = Cache::with_policy(cfg, Policy::Random, 1234);
        let mut y = Cache::with_policy(cfg, Policy::Random, 1234);
        let stride = cfg.sets() * cfg.block_bytes();
        for i in 0..4000u32 {
            let addr = 0x2000_0000 + (i % 5) * stride + (i % 11) * 4;
            assert_eq!(x.access(addr), y.access(addr), "access {i}");
        }
        assert_eq!(x.hits(), y.hits());
        assert_eq!(x.misses(), y.misses());
    }

    #[test]
    fn access_with_victim_reports_displaced_blocks() {
        let cfg = CacheConfig::kb(8, 2);
        let mut c = Cache::new(cfg);
        let stride = cfg.sets() * cfg.block_bytes();
        let a = 0x2000_0000u32;
        // Cold fills displace nothing.
        assert_eq!(c.access_with_victim(a), (false, None));
        assert_eq!(c.access_with_victim(a + stride), (false, None));
        // Third block in the set evicts a's block (the LRU).
        let (hit, victim) = c.access_with_victim(a + 2 * stride);
        assert!(!hit);
        assert_eq!(victim, Some(u64::from(a >> 5)));
    }

    #[test]
    fn extract_block_clears_residency_and_mru() {
        let mut c = Cache::new(CacheConfig::kb(8, 4));
        let a = 0x2000_0000u32;
        let block = u64::from(a >> 5);
        c.access(a);
        assert!(c.extract_block(block));
        assert!(!c.extract_block(block), "already gone");
        // The MRU shortcut must not resurrect the line.
        assert!(!c.access(a), "invalidated line re-misses");
    }

    #[test]
    fn insert_block_fills_and_reports_victims() {
        let cfg = CacheConfig::kb(8, 2);
        let mut c = Cache::new(cfg);
        let set_stride = u64::from(cfg.sets());
        let b0 = 0x10_0000u64;
        assert_eq!(c.insert_block(b0), None);
        assert_eq!(c.insert_block(b0 + set_stride), None);
        // Set full: a third insert displaces the LRU (b0).
        assert_eq!(c.insert_block(b0 + 2 * set_stride), Some(b0));
        // Re-inserting a resident block displaces nothing.
        assert_eq!(c.insert_block(b0 + set_stride), None);
        // Inserted lines are resident: the matching address hits.
        assert!(c.access((b0 + set_stride) as u32 * 32));
    }
}
