//! # dl-testkit
//!
//! A tiny, dependency-free property-testing substrate: a deterministic
//! xorshift64* PRNG (the same generator the simulator's `rand` syscall
//! uses), value generators, and a case-running loop that reports the
//! failing case's seed so any failure can be replayed exactly.
//!
//! The workspace's property tests originally used `proptest`; this
//! crate replaces it so the whole test suite builds and runs with no
//! network access and no external crates.
//!
//! # Example
//!
//! ```
//! use dl_testkit::{cases, Rng};
//!
//! cases(64, 0xd1_5ea5e, |rng| {
//!     let x = rng.range_i64(-100, 100);
//!     assert!((-100..100).contains(&x));
//! });
//! ```

#![warn(missing_docs)]

pub mod progen;

/// A deterministic xorshift64* generator.
///
/// Besides the tests and the random controls, the simulator draws
/// from it: its `rand` syscall and its random replacement policy. A
/// fixed seed gives a fixed stream, so every use is reproducible;
/// it is not a cryptographic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Creates a generator from a seed (any value; 0 is remapped).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Next 32-bit value (upper half of the 64-bit output).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `u64` in `[0, bound)`. `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        // Multiply-shift reduction; bias is negligible for test bounds.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform `i64` in `[lo, hi)`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range");
        lo.wrapping_add(self.below(hi.wrapping_sub(lo) as u64) as i64)
    }

    /// Uniform `i32` in `[lo, hi)`.
    pub fn range_i32(&mut self, lo: i32, hi: i32) -> i32 {
        self.range_i64(i64::from(lo), i64::from(hi)) as i32
    }

    /// Uniform `u32` in `[lo, hi)`.
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo < hi, "empty range");
        lo + self.below(u64::from(hi - lo)) as u32
    }

    /// Uniform `u64` in `[lo, hi)`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.range_f64(0.0, 1.0) < p
    }

    /// Uniformly picks one element of a nonempty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// A vector of `len in [min_len, max_len)` elements drawn from
    /// `gen`.
    pub fn vec_of<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut gen: impl FnMut(&mut Self) -> T,
    ) -> Vec<T> {
        let len = min_len + self.index(max_len - min_len);
        (0..len).map(|_| gen(self)).collect()
    }
}

/// Runs `f` for `n` generated cases, each with a per-case seeded
/// generator. On panic the failing case's seed is printed so the case
/// can be replayed with `replay`.
pub fn cases(n: u64, seed: u64, mut f: impl FnMut(&mut Rng)) {
    for case in 0..n {
        let case_seed = seed ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut rng = Rng::new(case_seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rng)));
        if let Err(payload) = outcome {
            eprintln!(
                "dl-testkit: case {case}/{n} failed; replay with \
                 dl_testkit::replay({case_seed:#x}, ..)"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// Re-runs a single failing case by its reported seed.
pub fn replay(case_seed: u64, mut f: impl FnMut(&mut Rng)) {
    let mut rng = Rng::new(case_seed);
    f(&mut rng);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::new(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::new(42);
        for _ in 0..10_000 {
            assert!((-50..50).contains(&rng.range_i64(-50, 50)));
            assert!((10..20).contains(&rng.range_u32(10, 20)));
            let f = rng.range_f64(1.0, 2.0);
            assert!((1.0..2.0).contains(&f));
            assert!(rng.index(3) < 3);
        }
    }

    #[test]
    fn range_hits_every_value() {
        let mut rng = Rng::new(1);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.index(8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn vec_of_respects_length_bounds() {
        let mut rng = Rng::new(3);
        for _ in 0..100 {
            let v = rng.vec_of(2, 10, Rng::next_u32);
            assert!((2..10).contains(&v.len()));
        }
    }

    #[test]
    fn cases_runs_exactly_n_times() {
        let mut count = 0;
        cases(17, 9, |_| count += 1);
        assert_eq!(count, 17);
    }

    #[test]
    fn pick_only_returns_members() {
        let mut rng = Rng::new(5);
        let items = [1, 5, 9];
        for _ in 0..100 {
            assert!(items.contains(rng.pick(&items)));
        }
    }
}
