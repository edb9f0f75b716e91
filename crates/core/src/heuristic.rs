//! The heuristic function φ and the delinquency decision (paper §7.3).

use dl_analysis::extract::{LoadInfo, ProgramAnalysis};

use crate::classes::{frequency_class, pattern_classes, AgClass};

/// Weights of the nine aggregate classes.
///
/// # Example
///
/// ```
/// use dl_core::{AgClass, Weights};
/// let w = Weights::paper();
/// assert_eq!(w.get(AgClass::Ag6), 1.72);
/// assert_eq!(w.get(AgClass::Ag9), -0.40);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weights {
    values: [f64; 9],
}

impl Weights {
    /// The published weights (paper Table 5).
    #[must_use]
    pub fn paper() -> Self {
        Weights {
            values: [0.28, 0.33, 0.47, 0.16, 0.67, 1.72, 0.10, -0.20, -0.40],
        }
    }

    /// Builds weights from an `[AG1, …, AG9]` array.
    #[must_use]
    pub fn from_array(values: [f64; 9]) -> Self {
        Weights { values }
    }

    /// The weight of one class.
    #[must_use]
    pub fn get(&self, class: AgClass) -> f64 {
        self.values[class.index()]
    }

    /// Sets the weight of one class.
    pub fn set(&mut self, class: AgClass, weight: f64) {
        self.values[class.index()] = weight;
    }

    /// The raw `[AG1, …, AG9]` array.
    #[must_use]
    pub fn as_array(&self) -> [f64; 9] {
        self.values
    }
}

impl Default for Weights {
    fn default() -> Self {
        Weights::paper()
    }
}

/// The paper's default delinquency threshold δ.
pub const DEFAULT_DELTA: f64 = 0.10;

/// The delinquency classifier: weights, threshold δ, and whether the
/// execution-frequency classes (AG8/AG9) participate.
///
/// Table 11 evaluates both modes: with AG8/AG9 (needs a basic-block
/// profile or a static frequency estimate) and without (purely static).
#[derive(Debug, Clone, PartialEq)]
pub struct Heuristic {
    weights: Weights,
    delta: f64,
    use_frequency: bool,
}

impl Heuristic {
    /// The paper's configuration: published weights, δ = 0.10,
    /// frequency classes enabled.
    #[must_use]
    pub fn new() -> Self {
        Heuristic {
            weights: Weights::paper(),
            delta: DEFAULT_DELTA,
            use_frequency: true,
        }
    }

    /// Replaces the weights.
    #[must_use]
    pub fn with_weights(mut self, weights: Weights) -> Self {
        self.weights = weights;
        self
    }

    /// Replaces the threshold δ (Table 13 varies this).
    #[must_use]
    pub fn with_threshold(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Disables AG8/AG9 — the purely static variant of Table 11
    /// ("without AG8 and AG9").
    #[must_use]
    pub fn without_frequency_classes(mut self) -> Self {
        self.use_frequency = false;
        self
    }

    /// The active threshold δ.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.delta
    }

    /// The active weights.
    #[must_use]
    pub fn weights(&self) -> &Weights {
        &self.weights
    }

    /// Computes `φ(i) = max_{j ∈ A_i} Σ_k W(k) · d(j, k)` for one load.
    ///
    /// `exec_count` is the load's dynamic execution count `E(i)` (used
    /// only by AG8/AG9; pass anything ≥ 1000 for the purely static
    /// variant).
    #[must_use]
    pub fn score(&self, load: &LoadInfo, exec_count: u64) -> f64 {
        let freq_term = if self.use_frequency {
            frequency_class(exec_count)
                .map(|c| self.weights.get(c))
                .unwrap_or(0.0)
        } else {
            0.0
        };
        load.patterns
            .iter()
            .map(|ap| {
                let structural: f64 = pattern_classes(ap)
                    .into_iter()
                    .map(|c| self.weights.get(c))
                    .sum();
                structural + freq_term
            })
            .fold(f64::NEG_INFINITY, f64::max)
            .max(f64::NEG_INFINITY)
    }

    /// Returns `true` if the load is classified possibly delinquent
    /// (`φ(i) > δ`).
    #[must_use]
    pub fn is_delinquent(&self, load: &LoadInfo, exec_count: u64) -> bool {
        self.score(load, exec_count) > self.delta
    }

    /// Classifies every load of a program: returns the instruction
    /// indices of the possibly-delinquent set Δ, in program order.
    ///
    /// `exec_counts` is indexed by instruction index (as produced by
    /// `dl-sim`); loads beyond its length are treated as hot.
    ///
    /// # Example
    ///
    /// See the [crate-level example](crate).
    #[must_use]
    pub fn classify(&self, analysis: &ProgramAnalysis, exec_counts: &[u64]) -> Vec<usize> {
        analysis
            .loads
            .iter()
            .filter(|l| {
                let e = exec_counts.get(l.index).copied().unwrap_or(u64::MAX);
                self.is_delinquent(l, e)
            })
            .map(|l| l.index)
            .collect()
    }

    /// Scores every load, returning `(index, φ)` pairs in program
    /// order. Used by the ε-combination, which ranks non-hotspot loads
    /// by score.
    #[must_use]
    pub fn score_all(&self, analysis: &ProgramAnalysis, exec_counts: &[u64]) -> Vec<(usize, f64)> {
        analysis
            .loads
            .iter()
            .map(|l| {
                let e = exec_counts.get(l.index).copied().unwrap_or(u64::MAX);
                (l.index, self.score(l, e))
            })
            .collect()
    }
}

impl Default for Heuristic {
    fn default() -> Self {
        Heuristic::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_analysis::Ap;
    use dl_mips::reg::BaseReg;

    fn load_with(patterns: Vec<Ap>) -> LoadInfo {
        LoadInfo {
            index: 0,
            patterns,
            truncated: false,
        }
    }

    fn sp() -> Ap {
        Ap::Base(BaseReg::Sp)
    }

    #[test]
    fn simple_stack_scalar_scores_zero() {
        let l = load_with(vec![Ap::add(sp(), Ap::Const(16))]);
        let h = Heuristic::new();
        assert_eq!(h.score(&l, 1_000_000), 0.0);
        assert!(!h.is_delinquent(&l, 1_000_000));
    }

    #[test]
    fn deep_chase_scores_high() {
        // Three levels of dereferencing: AG6 alone is 1.72.
        let l3 = Ap::deref(Ap::deref(Ap::deref(Ap::add(sp(), Ap::Const(4)))));
        let l = load_with(vec![l3]);
        let h = Heuristic::new();
        assert!(h.score(&l, 1_000_000) >= 1.72);
        assert!(h.is_delinquent(&l, 1_000_000));
    }

    #[test]
    fn phi_is_max_over_patterns() {
        let weak = Ap::add(sp(), Ap::Const(4)); // 0.0
        let strong = Ap::deref(Ap::deref(Ap::add(sp(), Ap::Const(4)))); // AG5 = 0.67
        let l = load_with(vec![weak, strong]);
        let h = Heuristic::new();
        assert!((h.score(&l, 1_000_000) - 0.67).abs() < 1e-9);
    }

    #[test]
    fn frequency_penalty_filters_cold_loads() {
        // AG4 (0.16) alone is above δ=0.10 when hot...
        let l = load_with(vec![Ap::deref(Ap::add(sp(), Ap::Const(4)))]);
        let h = Heuristic::new();
        assert!(h.is_delinquent(&l, 10_000));
        // ...but an AG9 (rare, -0.40) load drops below.
        assert!(!h.is_delinquent(&l, 50));
        // AG8 (seldom, -0.20) also drops it below.
        assert!(!h.is_delinquent(&l, 500));
    }

    #[test]
    fn without_frequency_ignores_exec_counts() {
        let l = load_with(vec![Ap::deref(Ap::add(sp(), Ap::Const(4)))]);
        let h = Heuristic::new().without_frequency_classes();
        assert!(h.is_delinquent(&l, 1));
    }

    #[test]
    fn threshold_tuning() {
        let l = load_with(vec![Ap::deref(Ap::add(sp(), Ap::Const(4)))]); // 0.16
        let lenient = Heuristic::new().with_threshold(0.10);
        let strict = Heuristic::new().with_threshold(0.20);
        assert!(lenient.is_delinquent(&l, 1_000_000));
        assert!(!strict.is_delinquent(&l, 1_000_000));
    }

    #[test]
    fn additive_scoring_combines_classes() {
        // sp twice + shift + one deref + recurrence:
        // AG2 + AG3 + AG4 + AG7 = 0.33 + 0.47 + 0.16 + 0.10 = 1.06
        let idx = Ap::Shl(
            Box::new(Ap::add(Ap::Rec, Ap::Const(1))),
            Box::new(Ap::Const(2)),
        );
        let ap = Ap::add(Ap::add(Ap::deref(Ap::add(sp(), Ap::Const(4))), idx), sp());
        let l = load_with(vec![ap]);
        let h = Heuristic::new();
        let s = h.score(&l, 1_000_000);
        assert!((s - 1.06).abs() < 1e-9, "score was {s}");
    }

    #[test]
    fn custom_weights() {
        let mut w = Weights::paper();
        w.set(AgClass::Ag4, 0.5);
        assert_eq!(w.get(AgClass::Ag4), 0.5);
        let l = load_with(vec![Ap::deref(Ap::add(sp(), Ap::Const(4)))]);
        let h = Heuristic::new().with_weights(w);
        assert!((h.score(&l, 1_000_000) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn classify_orders_by_index() {
        use dl_analysis::extract::ProgramAnalysis;
        let mk = |index: usize, hot: bool| LoadInfo {
            index,
            patterns: vec![if hot {
                Ap::deref(Ap::deref(Ap::add(sp(), Ap::Const(4))))
            } else {
                Ap::add(sp(), Ap::Const(4))
            }],
            truncated: false,
        };
        let analysis = ProgramAnalysis {
            loads: vec![mk(2, true), mk(5, false), mk(9, true)],
        };
        let h = Heuristic::new();
        let exec = vec![1_000_000u64; 10];
        assert_eq!(h.classify(&analysis, &exec), vec![2, 9]);
    }
}
