//! Property tests over the heuristic: threshold monotonicity, weight
//! monotonicity, and classification consistency.

use dl_analysis::extract::{LoadInfo, ProgramAnalysis};
use dl_analysis::Ap;
use dl_core::{AgClass, Heuristic, Weights};
use dl_mips::reg::BaseReg;
use dl_testkit::{cases, Rng};

fn arb_pattern_depth(rng: &mut Rng, depth: usize) -> Ap {
    if depth == 0 || rng.chance(0.35) {
        return match rng.index(5) {
            0 => Ap::Const(rng.range_i64(-64, 64)),
            1 => Ap::Base(BaseReg::Sp),
            2 => Ap::Base(BaseReg::Gp),
            3 => Ap::Base(BaseReg::Param),
            _ => Ap::Rec,
        };
    }
    match rng.index(3) {
        0 => Ap::Add(
            Box::new(arb_pattern_depth(rng, depth - 1)),
            Box::new(arb_pattern_depth(rng, depth - 1)),
        ),
        1 => Ap::Shl(
            Box::new(arb_pattern_depth(rng, depth - 1)),
            Box::new(arb_pattern_depth(rng, depth - 1)),
        ),
        _ => Ap::Deref(Box::new(arb_pattern_depth(rng, depth - 1))),
    }
}

fn arb_pattern(rng: &mut Rng) -> Ap {
    arb_pattern_depth(rng, 3)
}

fn arb_load(rng: &mut Rng, index: usize) -> LoadInfo {
    LoadInfo {
        index,
        patterns: rng.vec_of(1, 4, arb_pattern),
        truncated: false,
    }
}

fn arb_analysis(rng: &mut Rng) -> (ProgramAnalysis, Vec<u64>) {
    let n = 1 + rng.index(11);
    let loads: Vec<LoadInfo> = (0..n).map(|i| arb_load(rng, i * 3)).collect();
    let max_index = loads.last().map_or(0, |l| l.index);
    let mut exec_counts = vec![0u64; max_index + 1];
    for l in &loads {
        exec_counts[l.index] = rng.range_u64(0, 2_000_000);
    }
    (ProgramAnalysis { loads }, exec_counts)
}

/// Raising δ never adds loads: Δ(δ₂) ⊆ Δ(δ₁) for δ₁ ≤ δ₂.
#[test]
fn threshold_monotonicity() {
    cases(256, 0x4e01, |rng| {
        let (analysis, execs) = arb_analysis(rng);
        let d1 = rng.range_f64(0.0, 0.5);
        let d2 = rng.range_f64(0.0, 0.5);
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let loose: std::collections::BTreeSet<usize> = Heuristic::default()
            .with_threshold(lo)
            .classify(&analysis, &execs)
            .into_iter()
            .collect();
        let strict = Heuristic::default()
            .with_threshold(hi)
            .classify(&analysis, &execs);
        for i in strict {
            assert!(
                loose.contains(&i),
                "load {i} flagged at δ={hi} but not δ={lo}"
            );
        }
    });
}

/// Increasing any single class weight never decreases any φ score.
#[test]
fn weight_monotonicity() {
    cases(256, 0x4e02, |rng| {
        let (analysis, execs) = arb_analysis(rng);
        let class = *rng.pick(&AgClass::ALL);
        let bump = rng.range_f64(0.0, 1.0);
        let base = Heuristic::default();
        let mut w = Weights::paper();
        w.set(class, w.get(class) + bump);
        let bumped = Heuristic::default().with_weights(w);
        for load in &analysis.loads {
            let e = execs[load.index];
            assert!(bumped.score(load, e) >= base.score(load, e) - 1e-12);
        }
    });
}

/// φ is the max over patterns: adding a pattern can only raise it.
#[test]
fn adding_a_pattern_never_lowers_phi() {
    cases(256, 0x4e03, |rng| {
        let load = arb_load(rng, 0);
        let extra = arb_pattern(rng);
        let execs = rng.range_u64(1000, 1_000_000);
        let h = Heuristic::default();
        let before = h.score(&load, execs);
        let mut bigger = load;
        bigger.patterns.push(extra);
        assert!(h.score(&bigger, execs) >= before - 1e-12);
    });
}

/// The static-only variant is insensitive to execution counts.
#[test]
fn static_variant_ignores_execution_counts() {
    cases(256, 0x4e04, |rng| {
        let load = arb_load(rng, 0);
        let e1 = rng.range_u64(0, 10_000_000);
        let e2 = rng.range_u64(0, 10_000_000);
        let h = Heuristic::default().without_frequency_classes();
        assert_eq!(h.score(&load, e1), h.score(&load, e2));
    });
}

/// classify() is exactly {i : φ(i) > δ}.
#[test]
fn classify_agrees_with_scores() {
    cases(256, 0x4e05, |rng| {
        let (analysis, execs) = arb_analysis(rng);
        let h = Heuristic::default();
        let flagged: std::collections::BTreeSet<usize> =
            h.classify(&analysis, &execs).into_iter().collect();
        for load in &analysis.loads {
            let e = execs[load.index];
            assert_eq!(
                flagged.contains(&load.index),
                h.score(load, e) > h.threshold()
            );
        }
    });
}

/// Frequency classes only ever filter (never add) relative to the
/// static-only variant.
#[test]
fn frequency_classes_only_filter() {
    cases(256, 0x4e06, |rng| {
        let (analysis, execs) = arb_analysis(rng);
        let with: Vec<usize> = Heuristic::default().classify(&analysis, &execs);
        let without: std::collections::BTreeSet<usize> = Heuristic::default()
            .without_frequency_classes()
            .classify(&analysis, &execs)
            .into_iter()
            .collect();
        for i in with {
            assert!(without.contains(&i));
        }
    });
}
