//! The host's speed, measured beside the program.
//!
//! The benchmark runs on a few vCPUs of a shared machine. What the
//! neighbours run changes how fast pointer-heavy, branchy code goes
//! by up to 1.8x, in spells that last from seconds to minutes, while a
//! plain arithmetic loop moves about 10%. The compiler, the analyses
//! and the simulator all slow together, so one run of ten seconds can
//! read 40% slower than the next with no change to the program.
//!
//! An end-to-end run therefore measures the host alongside the
//! program. Between ops, at most every [`INTERVAL_S`], a [`Probe`]
//! times one fixed slice of reference work — inserts and lookups in a
//! hash map and searches in an ordered map, a few MB of the same kind
//! of memory traffic the program makes — and each op's latency is
//! divided by the host factor around it: the mean time of the slices
//! just before and just after the op, over [`NOMINAL_SLICE_S`]. Over
//! 30-second windows of five-minute traces, program ops and such
//! slices moved together (correlation 0.85–0.99), and the ratio spread
//! 0.03–0.13 of its median where the raw times spread up to 0.45 (IQR
//! over median).
//!
//! The probe is benchmark code, so a change to the program cannot
//! change it, and it keeps what the program does from reaching it: its
//! tables are built once and reused, so a slice allocates nothing and
//! the program's heap does not change its cost; and each slice first
//! runs one untimed round, which brings the tables back into the
//! caches the op before it used. Its tables stay resident, so it
//! records the resident memory they took when built, for
//! `peak_rss_mb` to leave out.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

use crate::metrics::proc_status_mb;

/// Least time between two slices.
pub const INTERVAL_S: f64 = 0.1;

/// Rounds of reference work in the slices run around a batch of
/// set-ups: one slice there stands for the whole batch, so it is
/// longer, and less noisy, than one between ops.
pub const BATCH_ROUNDS: u32 = 4;

/// The time per round of a slice that counts as a host factor of 1:
/// about a round's time on the 2-vCPU Intel Xeon VM (2.0 GHz) the
/// benchmark was calibrated on, when its neighbours are quiet.
pub const NOMINAL_SLICE_S: f64 = 0.004;

/// Keys inserted and looked up per slice, and ordered-map searches.
const SLICE_KEYS: u64 = 20_000;

/// Entries of the ordered map: about 2 MB with its nodes.
const TREE_KEYS: u64 = 100_000;

type FixedMap = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

/// Times slices of reference work and keeps their times.
#[derive(Debug)]
pub struct Probe {
    map: FixedMap,
    tree: BTreeMap<u64, u64>,
    state: u64,
    slices: Vec<f64>,
    last: Instant,
    resident_mb: f64,
}

/// Xorshift64: the probe's keys.
fn next_key(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

impl Probe {
    /// A probe with its tables built and one slice run to warm them.
    #[must_use]
    pub fn new() -> Probe {
        let rss_before = proc_status_mb("VmRSS");
        let mut state = 0x2545_f491_4f6c_dd1d;
        let tree = (0..TREE_KEYS)
            .map(|_| {
                let k = next_key(&mut state);
                (k, k)
            })
            .collect();
        let mut probe = Probe {
            map: FixedMap::with_capacity_and_hasher(
                2 * SLICE_KEYS as usize,
                BuildHasherDefault::default(),
            ),
            tree,
            state,
            slices: Vec::new(),
            last: Instant::now(),
            resident_mb: 0.0,
        };
        black_box(probe.work());
        probe.resident_mb = proc_status_mb("VmRSS") - rss_before;
        probe.last = Instant::now();
        probe
    }

    /// One slice of reference work.
    fn work(&mut self) -> u64 {
        let range = 2 * SLICE_KEYS;
        let mut state = self.state;
        let mut sum = 0u64;
        self.map.clear();
        for _ in 0..SLICE_KEYS {
            *self.map.entry(next_key(&mut state) % range).or_default() += 1;
        }
        for _ in 0..SLICE_KEYS {
            sum += self
                .map
                .get(&(next_key(&mut state) % range))
                .copied()
                .unwrap_or(0);
        }
        for _ in 0..SLICE_KEYS {
            let k = next_key(&mut state);
            sum += self.tree.range(k..).next().map_or(0, |(_, v)| v & 1);
        }
        self.state = state;
        sum
    }

    /// Runs one untimed round of reference work and then a slice of
    /// `rounds` timed rounds, keeping the slice's time per round.
    pub fn slice(&mut self, rounds: u32) {
        black_box(self.work());
        let t = Instant::now();
        for _ in 0..rounds {
            black_box(self.work());
        }
        self.slices
            .push(t.elapsed().as_secs_f64() / f64::from(rounds));
        self.last = Instant::now();
    }

    /// Called right after an op: returns the op's mark, the number of
    /// slices run before it, then runs a slice if [`INTERVAL_S`] has
    /// passed since the last one.
    pub fn tick(&mut self) -> usize {
        let mark = self.slices.len();
        if self.last.elapsed().as_secs_f64() >= INTERVAL_S {
            self.slice(1);
        }
        mark
    }

    /// Resident memory, in MB, that building the probe added.
    #[must_use]
    pub fn resident_mb(&self) -> f64 {
        self.resident_mb
    }

    /// Every slice's time per round, in order.
    #[must_use]
    pub fn slices(&self) -> &[f64] {
        &self.slices
    }

    /// The host factor of an op with mark `mark` (a [`Probe::tick`]
    /// result): the mean of the slices just before and just after it
    /// over [`NOMINAL_SLICE_S`]; one of them at either end, and 1 when
    /// no slice ran.
    #[must_use]
    pub fn factor(&self, mark: usize) -> f64 {
        let n = self.slices.len();
        if n == 0 {
            return 1.0;
        }
        let lo = mark.saturating_sub(1).min(n - 1);
        let hi = (mark + 1).min(n).max(lo + 1);
        let around = &self.slices[lo..hi];
        around.iter().sum::<f64>() / around.len() as f64 / NOMINAL_SLICE_S
    }
}

impl Default for Probe {
    fn default() -> Probe {
        Probe::new()
    }
}

thread_local! {
    static PROBE: RefCell<Option<Probe>> = const { RefCell::new(None) };
}

/// Runs `f` with a fresh probe ticking between its ops on this thread,
/// and returns `f`'s result with the probe.
pub fn probed<T>(f: impl FnOnce() -> T) -> (T, Probe) {
    PROBE.with(|p| *p.borrow_mut() = Some(Probe::new()));
    let out = f();
    let probe = PROBE.with(|p| p.borrow_mut().take());
    (out, probe.expect("the probe installed above"))
}

/// Called right after an op: ticks this thread's probe, if one is
/// running, and returns the op's mark (0 when none is).
#[must_use]
pub fn tick() -> usize {
    PROBE.with(|p| p.borrow_mut().as_mut().map_or(0, Probe::tick))
}

/// Runs a slice of [`BATCH_ROUNDS`] rounds on this thread's probe now,
/// if one is running: before and after a batch of ops too short for
/// [`tick`] to slice between.
pub fn slice() {
    PROBE.with(|p| {
        if let Some(probe) = p.borrow_mut().as_mut() {
            probe.slice(BATCH_ROUNDS);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_the_mean_of_the_slices_around_an_op() {
        let mut probe = Probe::new();
        assert_eq!(probe.factor(0), 1.0);
        probe.slices = (1..=10).map(|i| f64::from(i) * NOMINAL_SLICE_S).collect();
        // Mark 6: after slices 1..=6, before slice 7.
        assert!((probe.factor(6) - 6.5).abs() < 1e-9);
        // Only one slice at either end.
        assert!((probe.factor(0) - 1.0).abs() < 1e-9);
        assert!((probe.factor(10) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn ticks_run_only_inside_probed_and_only_when_due() {
        assert_eq!(tick(), 0);
        let (marks, probe) = probed(|| {
            let first = (tick(), tick());
            slice();
            (first, tick())
        });
        assert_eq!(marks, ((0, 0), 1), "a fresh probe waits one interval");
        assert_eq!(probe.slices().len(), 1);
        let mut probe = Probe::new();
        probe.last -= std::time::Duration::from_secs_f64(INTERVAL_S);
        assert_eq!(probe.tick(), 0, "the mark counts slices before the op");
        assert_eq!(probe.tick(), 1);
        assert_eq!(probe.slices().len(), 1);
        assert!(probe.slices()[0] > 0.0);
    }
}
