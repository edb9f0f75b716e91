//! Op order from the seed. The seed only permutes: every run of a
//! workload does the same multiset of ops, so per-run numbers do not
//! depend on it.

/// SplitMix64: a tiny, well-mixed generator, enough to shuffle.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A permutation of `0..n`, one per (`seed`, `stream`) pair.
#[must_use]
pub fn permutation(n: usize, seed: u64, stream: u64) -> Vec<usize> {
    let mut state = seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// `passes` rounds over `0..n`, each in its own seeded order.
#[must_use]
pub fn passes(n: usize, passes: usize, seed: u64) -> Vec<usize> {
    (0..passes)
        .flat_map(|p| permutation(n, seed, p as u64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutations_are_seeded_and_complete() {
        let a = permutation(43, 1, 0);
        let b = permutation(43, 2, 0);
        assert_ne!(a, b);
        assert_eq!(a, permutation(43, 1, 0));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..43).collect::<Vec<_>>());
    }

    #[test]
    fn passes_repeat_every_op_once_per_pass() {
        let order = passes(5, 3, 7);
        assert_eq!(order.len(), 15);
        for i in 0..5 {
            assert_eq!(order.iter().filter(|&&x| x == i).count(), 3);
        }
    }
}
