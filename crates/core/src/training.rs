//! Weight training (paper §7.1–§7.2): deriving class natures and
//! weights from memory-profiling data over a training benchmark set.
//!
//! For a class `F` in benchmark `j` under cache configuration `C`:
//!
//! * miss probability `m_j(F,C) = M(F,C) / Σ_{i∈F} E(i)`
//! * miss share `n_j(F,C) = M(F,C) / M(P(I),C)`
//! * strength index `r = m_j / n_j`
//!
//! A benchmark is *relevant* to `F` unless both `m_j` and `n_j` fall
//! below thresholds. A class is **positive** when `r ≥ 1/20` on every
//! relevant benchmark, **negative** when `n_j < 0.5%` everywhere, and
//! **neutral** otherwise. Positive weights are
//! `W(F) = (1/|R_F|) Σ_{j∈R_F} m_j/n_j`; negative classes get minus the
//! trimmed mean of the positive weights (halved for the milder AG8).

use dl_analysis::extract::LoadInfo;

use crate::classes::{frequency_class, pattern_classes, AgClass, H1Class};
use crate::heuristic::Weights;

/// One benchmark's worth of training data: the static analysis plus
/// the dynamic measurements from a profiling run.
#[derive(Debug, Clone, Copy)]
pub struct TrainingRun<'a> {
    /// Benchmark name (for reports).
    pub name: &'a str,
    /// Per-load analysis records.
    pub loads: &'a [LoadInfo],
    /// Per-instruction execution counts (`E(i)`).
    pub exec_counts: &'a [u64],
    /// Per-instruction load miss counts (`M(i, C)`).
    pub load_misses: &'a [u64],
    /// Total load misses of the run (`M(P(I), C)`).
    pub total_load_misses: u64,
}

/// Thresholds steering class-nature decisions (paper §7.1; the paper
/// states the rules but not the exact relevance cutoffs — these
/// defaults reproduce its Table 4 classifications).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingParams {
    /// A benchmark is irrelevant to a class when **both** `m_j` and
    /// `n_j` are below this (fraction, not percent).
    pub relevance_threshold: f64,
    /// Positive classes need strength `r = m/n ≥` this on all relevant
    /// benchmarks (paper: 1/20).
    pub min_strength: f64,
    /// Negative classes have `n_j <` this on **all** benchmarks
    /// (paper: 0.50%).
    pub negative_share: f64,
}

impl Default for TrainingParams {
    fn default() -> Self {
        TrainingParams {
            relevance_threshold: 0.01,
            min_strength: 1.0 / 20.0,
            negative_share: 0.005,
        }
    }
}

/// The nature of a class (paper §7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassNature {
    /// Evidence of delinquency; carries positive weight.
    Positive,
    /// Evidence against; carries negative weight.
    Negative,
    /// No consistent signal; weight zero.
    Neutral,
}

/// Per-benchmark statistics of one class.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassBenchStats {
    /// Benchmark name.
    pub bench: String,
    /// Whether any load of the benchmark belongs to the class.
    pub found: bool,
    /// `m_j(F, C)` as a fraction.
    pub m: f64,
    /// `n_j(F, C)` as a fraction.
    pub n: f64,
    /// Whether the benchmark is relevant to the class.
    pub relevant: bool,
}

/// The trained summary of one class across all training benchmarks.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedClass {
    /// Class label (e.g. `"AG3"` or `"H1.5"`).
    pub name: String,
    /// Feature description.
    pub feature: String,
    /// Per-benchmark statistics.
    pub stats: Vec<ClassBenchStats>,
    /// Decided nature.
    pub nature: ClassNature,
    /// Trained weight (`None` for neutral classes and for negative
    /// classes, whose weight is assigned globally afterwards).
    pub weight: Option<f64>,
}

impl TrainedClass {
    /// Number of benchmarks in which the class was found at all.
    #[must_use]
    pub fn found_in(&self) -> usize {
        self.stats.iter().filter(|s| s.found).count()
    }

    /// Number of benchmarks relevant to the class.
    #[must_use]
    pub fn relevant_in(&self) -> usize {
        self.stats.iter().filter(|s| s.relevant).count()
    }
}

/// Membership test: does this load (with this execution count) belong
/// to the class?
pub type MemberFn = Box<dyn Fn(&LoadInfo, u64) -> bool>;

/// A class definition for training: a name plus a membership test over
/// a load record (and its execution count).
pub struct ClassDef {
    /// Class label.
    pub name: String,
    /// Feature description.
    pub feature: String,
    /// Membership test.
    pub member: MemberFn,
}

impl std::fmt::Debug for ClassDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClassDef")
            .field("name", &self.name)
            .field("feature", &self.feature)
            .finish_non_exhaustive()
    }
}

/// The fifteen fine-grained H1 classes (Table 3): membership when any
/// address pattern of the load has the class's exact `(sp, gp)`
/// occurrence counts.
#[must_use]
pub fn h1_class_defs() -> Vec<ClassDef> {
    H1Class::all()
        .map(|c| ClassDef {
            name: c.to_string(),
            feature: c.feature().to_owned(),
            member: Box::new(move |l: &LoadInfo, _| {
                l.patterns.iter().any(|p| H1Class::of_pattern(p) == c)
            }),
        })
        .collect()
}

/// The nine aggregate classes (Table 5) as trainable class definitions.
#[must_use]
pub fn aggregate_class_defs() -> Vec<ClassDef> {
    AgClass::ALL
        .iter()
        .map(|&c| ClassDef {
            name: c.to_string(),
            feature: c.feature().to_owned(),
            member: Box::new(move |l: &LoadInfo, exec: u64| match c {
                AgClass::Ag8 | AgClass::Ag9 => frequency_class(exec) == Some(c),
                _ => l.patterns.iter().any(|p| pattern_classes(p).contains(&c)),
            }),
        })
        .collect()
}

/// Computes `(m_j, n_j, found)` of one class on one benchmark.
#[must_use]
pub fn class_stats(class: &ClassDef, run: &TrainingRun<'_>) -> (f64, f64, bool) {
    let mut misses: u64 = 0;
    let mut execs: u64 = 0;
    let mut found = false;
    for load in run.loads {
        let e = run.exec_counts.get(load.index).copied().unwrap_or(0);
        if (class.member)(load, e) {
            found = true;
            misses += run.load_misses.get(load.index).copied().unwrap_or(0);
            execs += e;
        }
    }
    let m = if execs == 0 {
        0.0
    } else {
        misses as f64 / execs as f64
    };
    let n = if run.total_load_misses == 0 {
        0.0
    } else {
        misses as f64 / run.total_load_misses as f64
    };
    (m, n, found)
}

/// Trains one class across all benchmarks: nature decision plus weight
/// (for positive classes).
#[must_use]
pub fn train_class(
    class: &ClassDef,
    runs: &[TrainingRun<'_>],
    params: &TrainingParams,
) -> TrainedClass {
    let mut stats = Vec::with_capacity(runs.len());
    for run in runs {
        let (m, n, found) = class_stats(class, run);
        let relevant =
            found && (m >= params.relevance_threshold || n >= params.relevance_threshold);
        stats.push(ClassBenchStats {
            bench: run.name.to_owned(),
            found,
            m,
            n,
            relevant,
        });
    }
    let relevant: Vec<&ClassBenchStats> = stats.iter().filter(|s| s.relevant).collect();
    let all_small_share = stats.iter().all(|s| s.n < params.negative_share);
    let nature = if all_small_share {
        ClassNature::Negative
    } else if !relevant.is_empty()
        && relevant
            .iter()
            .all(|s| s.n > 0.0 && s.m / s.n >= params.min_strength)
    {
        ClassNature::Positive
    } else {
        ClassNature::Neutral
    };
    let weight = if nature == ClassNature::Positive {
        let sum: f64 = relevant.iter().map(|s| s.m / s.n).sum();
        Some(sum / relevant.len() as f64)
    } else {
        None
    };
    TrainedClass {
        name: class.name.clone(),
        feature: class.feature.clone(),
        stats,
        nature,
        weight,
    }
}

/// Trains the full aggregate-class weight table (regenerates Table 5):
/// positive classes get their trained weights; AG8/AG9 get the paper's
/// negative-weight rule — minus the mean of the positive weights
/// excluding the highest and lowest (halved for AG8).
#[must_use]
pub fn train_weights(runs: &[TrainingRun<'_>], params: &TrainingParams) -> Weights {
    let defs = aggregate_class_defs();
    let trained: Vec<TrainedClass> = defs.iter().map(|d| train_class(d, runs, params)).collect();
    let mut positive: Vec<f64> = trained
        .iter()
        .take(7) // structural classes AG1–AG7
        .filter_map(|t| t.weight)
        .collect();
    positive.sort_by(|a, b| a.partial_cmp(b).expect("weights are finite"));
    let trimmed: Vec<f64> = if positive.len() > 2 {
        positive[1..positive.len() - 1].to_vec()
    } else {
        positive.clone()
    };
    let neg_base = if trimmed.is_empty() {
        0.40
    } else {
        trimmed.iter().sum::<f64>() / trimmed.len() as f64
    };
    let mut w = Weights::from_array([0.0; 9]);
    for (i, t) in trained.iter().enumerate().take(7) {
        if let Some(weight) = t.weight {
            w.set(AgClass::ALL[i], weight);
        }
    }
    w.set(AgClass::Ag8, -neg_base / 2.0);
    w.set(AgClass::Ag9, -neg_base);
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_analysis::Ap;
    use dl_mips::reg::BaseReg;

    fn sp() -> Ap {
        Ap::Base(BaseReg::Sp)
    }

    /// Builds a synthetic benchmark: loads alternate between a
    /// "hot-missing" pointer-chase shape and a benign stack scalar.
    struct Synth {
        loads: Vec<LoadInfo>,
        exec: Vec<u64>,
        miss: Vec<u64>,
        total: u64,
    }

    fn synth(n_chase: usize, n_plain: usize, chase_missrate_pct: u64) -> Synth {
        let mut loads = Vec::new();
        let mut exec = Vec::new();
        let mut miss = Vec::new();
        let mut total = 0;
        for i in 0..n_chase + n_plain {
            let chase = i < n_chase;
            let pattern = if chase {
                Ap::deref(Ap::deref(Ap::add(sp(), Ap::Const(8))))
            } else {
                Ap::add(sp(), Ap::Const(8))
            };
            loads.push(LoadInfo {
                index: i,
                patterns: vec![pattern],
                truncated: false,
            });
            let e = 10_000u64;
            let m = if chase {
                e * chase_missrate_pct / 100
            } else {
                5
            };
            exec.push(e);
            miss.push(m);
            total += m;
        }
        Synth {
            loads,
            exec,
            miss,
            total,
        }
    }

    fn run_of<'a>(name: &'a str, s: &'a Synth) -> TrainingRun<'a> {
        TrainingRun {
            name,
            loads: &s.loads,
            exec_counts: &s.exec,
            load_misses: &s.miss,
            total_load_misses: s.total,
        }
    }

    #[test]
    fn class_stats_computes_m_and_n() {
        let s = synth(2, 2, 50);
        let defs = aggregate_class_defs();
        let ag5 = &defs[AgClass::Ag5.index()];
        let (m, n, found) = class_stats(ag5, &run_of("b", &s));
        assert!(found);
        // 2 chase loads, each 10k execs, 5k misses.
        assert!((m - 0.5).abs() < 1e-9);
        assert!((n - 10_000.0 / 10_010.0).abs() < 1e-6);
    }

    #[test]
    fn chase_class_trains_positive() {
        let s1 = synth(2, 10, 40);
        let s2 = synth(3, 10, 60);
        let runs = [run_of("b1", &s1), run_of("b2", &s2)];
        let defs = aggregate_class_defs();
        let t = train_class(
            &defs[AgClass::Ag5.index()],
            &runs,
            &TrainingParams::default(),
        );
        assert_eq!(t.nature, ClassNature::Positive);
        assert!(t.weight.expect("positive has weight") > 0.0);
        assert_eq!(t.found_in(), 2);
        assert_eq!(t.relevant_in(), 2);
    }

    #[test]
    fn absent_class_trains_negative() {
        let s1 = synth(2, 10, 40);
        let runs = [run_of("b1", &s1)];
        let defs = aggregate_class_defs();
        // No recurrences anywhere: AG7 accounts for ~0% of misses.
        let t = train_class(
            &defs[AgClass::Ag7.index()],
            &runs,
            &TrainingParams::default(),
        );
        assert_eq!(t.nature, ClassNature::Negative);
        assert_eq!(t.weight, None);
    }

    #[test]
    fn weak_class_trains_neutral() {
        // A class that covers a big share of misses but with weak
        // strength (m/n < 1/20): plain loads in a benchmark where they
        // dominate misses but execute enormously often.
        let mut s = synth(0, 4, 0);
        // All misses come from plain loads, but miss probability is tiny.
        for m in &mut s.miss {
            *m = 60;
        }
        s.total = 240;
        for e in &mut s.exec {
            *e = 10_000_000;
        }
        let runs = [run_of("b1", &s)];
        let defs = aggregate_class_defs();
        // The plain stack-scalar loads have zero deref; use a custom
        // class matching them.
        let plain = ClassDef {
            name: "plain".into(),
            feature: "no deref".into(),
            member: Box::new(|l, _| l.max_deref_nesting() == 0),
        };
        let t = train_class(&plain, &runs, &TrainingParams::default());
        // n = 1.0 (all misses) but m = 240/40M — strength far below 1/20.
        assert_eq!(t.nature, ClassNature::Neutral);
        let _ = defs;
    }

    #[test]
    fn trained_weights_have_expected_signs() {
        let s1 = synth(2, 10, 40);
        let s2 = synth(3, 8, 60);
        let runs = [run_of("b1", &s1), run_of("b2", &s2)];
        let w = train_weights(&runs, &TrainingParams::default());
        assert!(w.get(AgClass::Ag5) > 0.0);
        assert!(w.get(AgClass::Ag8) < 0.0);
        assert!(w.get(AgClass::Ag9) < 0.0);
        // AG8 is half of AG9 in magnitude.
        assert!((w.get(AgClass::Ag9) - 2.0 * w.get(AgClass::Ag8)).abs() < 1e-9);
    }

    #[test]
    fn h1_defs_cover_all_fifteen() {
        let defs = h1_class_defs();
        assert_eq!(defs.len(), 15);
        assert_eq!(defs[4].name, "H1.5");
        assert_eq!(defs[4].feature, "sp=1, gp=1");
    }

    #[test]
    fn paper_weight_example_formula() {
        // Reproduce the W(F5) computation from §7.2: the mean of m/n
        // over the five relevant benchmarks ≈ 0.47.
        let ratios: [f64; 5] = [
            4.34 / 48.19,
            6.27 / 25.14,
            30.44 / 67.17,
            6.83 / 6.72,
            8.07 / 13.17,
        ];
        let w: f64 = ratios.iter().sum::<f64>() / 5.0;
        assert!((w - 0.47).abs() < 0.02, "computed {w}");
    }
}
