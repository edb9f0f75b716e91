//! Regeneration of every table in the paper's evaluation section
//! (Tables 1–14), plus two ablations beyond the paper.
//!
//! Conventions: "Input 1" is the reference input; the *training* cache
//! is the paper's 32 KiB 4-way 32 B configuration (§6); the *baseline*
//! cache is the 8 KiB 4-way configuration of Table 11; the heuristic
//! uses the published Table 5 weights and δ = 0.10 unless a table
//! varies them.

use std::sync::Arc;

use dl_analysis::extract::AnalysisConfig;
use dl_analysis::CacheGeometry;
use dl_baselines::{Bdh, Okn, ProfilePredictor, ReusePredictor};
use dl_core::combine::{combine_with_profiling, HybridMode};
use dl_core::training::{h1_class_defs, train_class, train_weights, TrainingParams, TrainingRun};
use dl_core::{AgClass, Heuristic, Hybrid, Predictor, Weights};
use dl_minic::OptLevel;
use dl_sim::{CacheConfig, Inclusion, L2Config, MemoryConfig, Policy, Prefetch};
use dl_workloads::Benchmark;

use crate::metrics::{ideal_set, pct, pi, profiling_set, random_control, rho, xi};
use crate::pipeline::{BenchRun, Pipeline};
use crate::report::Table;
use crate::schedule::RunSpec;

/// Fraction of executed instructions the hot-block profile covers
/// (the paper's "90% of the total compute cycles").
const HOT_FRACTION: f64 = 0.9;

fn delta_h(run: &BenchRun, h: &Heuristic) -> Vec<usize> {
    h.predict(run.ctx())
}

fn training_run<'a>(run: &'a BenchRun, name: &'a str) -> TrainingRun<'a> {
    TrainingRun {
        name,
        loads: &run.analysis().loads,
        exec_counts: &run.result.exec_counts,
        load_misses: &run.result.load_misses,
        total_load_misses: run.result.load_misses_total,
    }
}

fn avg(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Table 1 — profiling-only identification: Λ, the ideal set size for
/// the same coverage, the profiling set size, and its coverage ρ.
#[must_use]
pub fn table1(p: &Pipeline) -> Table {
    let mut t = Table::new(
        "table1",
        "use of basic-block profiling in identifying delinquent loads",
        &["Benchmark", "Λ", "Ideal |Δ| (π)", "Profiling |Δ| (π)", "ρ"],
    );
    let (mut pis_ideal, mut pis_prof, mut rhos) = (vec![], vec![], vec![]);
    for b in dl_workloads::all() {
        let run = p.run(&b, OptLevel::O0, 1, CacheConfig::paper_training());
        let lambda = run.lambda();
        let loads = run.load_indices();
        let prof = profiling_set(run.program(), &run.result, HOT_FRACTION);
        let coverage = rho(&run.result, &prof);
        let covered = run.result.misses_of_set(&prof);
        let ideal = ideal_set(&run.result, &loads, covered);
        pis_ideal.push(pi(ideal.len(), lambda));
        pis_prof.push(pi(prof.len(), lambda));
        rhos.push(coverage);
        t.push_row(vec![
            b.name.to_owned(),
            lambda.to_string(),
            format!("{} ({})", ideal.len(), pct(pi(ideal.len(), lambda), 2)),
            format!("{} ({})", prof.len(), pct(pi(prof.len(), lambda), 2)),
            pct(coverage, 0),
        ]);
    }
    t.push_row(vec![
        "AVERAGE".into(),
        String::new(),
        pct(avg(&pis_ideal), 2),
        pct(avg(&pis_prof), 2),
        pct(avg(&rhos), 1),
    ]);
    t.set_note(
        "Paper: ideal avg 0.73%, profiling avg 4.73% of loads covering 87.5% of misses. \
         Shape to match: profiling needs several times more loads than the ideal set \
         for the same high coverage.",
    );
    t
}

/// Table 2 — runtime characteristics of each benchmark.
#[must_use]
pub fn table2(p: &Pipeline) -> Table {
    let mut t = Table::new(
        "table2",
        "runtime characteristics (scaled-down synthetic workloads)",
        &[
            "Benchmark",
            "Instr executed",
            "L1 D accesses",
            "L1 D misses",
        ],
    );
    for b in dl_workloads::all() {
        let run = p.run(&b, OptLevel::O0, 1, CacheConfig::paper_training());
        t.push_row(vec![
            b.name.to_owned(),
            format!("{:.2e}", run.result.instructions as f64),
            format!("{:.2e}", run.result.dcache_accesses as f64),
            format!("{:.2e}", run.result.dcache_misses as f64),
        ]);
    }
    t.set_note(
        "Paper: 10⁷–10¹² instructions per benchmark. Ours are scaled to ~10⁶–10⁷ \
         by design (DESIGN.md substitution table); relative magnitudes across \
         benchmarks are preserved.",
    );
    t
}

/// Training runs use the 8 KiB cache: the synthetic workloads' working
/// sets are scaled down ~100x from SPEC, so the cache whose miss
/// probabilities match the paper's training regime is the scaled-down
/// one (DESIGN.md discusses this substitution).
fn training_runs(p: &Pipeline) -> Vec<(Benchmark, Arc<BenchRun>)> {
    dl_workloads::training_set()
        .into_iter()
        .map(|b| {
            let run = p.run(&b, OptLevel::O0, 1, CacheConfig::paper_baseline());
            (b, run)
        })
        .collect()
}

/// Table 3 — the fifteen H1 register-usage classes: how many training
/// benchmarks they are found in / relevant in.
#[must_use]
pub fn table3(p: &Pipeline) -> Table {
    let runs = training_runs(p);
    let views: Vec<TrainingRun<'_>> = runs.iter().map(|(b, r)| training_run(r, b.name)).collect();
    let mut t = Table::new(
        "table3",
        "criterion H1 applied to the eleven training benchmarks",
        &["Class", "Feature", "Found in", "Relevant in"],
    );
    for def in h1_class_defs() {
        let trained = train_class(&def, &views, &TrainingParams::default());
        t.push_row(vec![
            def.name.clone(),
            def.feature.clone(),
            format!("{} benchmarks", trained.found_in()),
            format!("{} benchmarks", trained.relevant_in()),
        ]);
    }
    t.set_note(
        "Paper: plain classes (sp=1, sp=2) found everywhere; mixed sp+gp classes \
         found in a subset and relevant in most of those; exotic counts rare. \
         The same skew should appear here.",
    );
    t
}

/// Table 4 — m and n values of H1 class 5 (`sp=1, gp=1`) on the
/// training benchmarks where it is found.
#[must_use]
pub fn table4(p: &Pipeline) -> Table {
    let runs = training_runs(p);
    let views: Vec<TrainingRun<'_>> = runs.iter().map(|(b, r)| training_run(r, b.name)).collect();
    let def = h1_class_defs().remove(4); // H1.5
    let trained = train_class(&def, &views, &TrainingParams::default());
    let mut t = Table::new(
        "table4",
        "m_j and n_j of H1 class 5 (sp=1, gp=1)",
        &["Benchmark", "m_j (%)", "n_j (%)", "relevant"],
    );
    for s in trained.stats.iter().filter(|s| s.found) {
        t.push_row(vec![
            s.bench.clone(),
            format!("{:.2}", s.m * 100.0),
            format!("{:.2}", s.n * 100.0),
            if s.relevant { "yes" } else { "no" }.into(),
        ]);
    }
    t.set_note(
        "Paper: class 5 found in 7 of 11 benchmarks, relevant in 5; m/n ratios \
         average ≈ 0.47 over the relevant set.",
    );
    t
}

/// Table 5 — trained aggregate-class weights next to the published
/// ones.
#[must_use]
pub fn table5(p: &Pipeline) -> Table {
    let runs = training_runs(p);
    let views: Vec<TrainingRun<'_>> = runs.iter().map(|(b, r)| training_run(r, b.name)).collect();
    let trained = train_weights(&views, &TrainingParams::default());
    let paper = Weights::paper();
    let mut t = Table::new(
        "table5",
        "aggregate classes and their weights",
        &["Class", "Feature", "Trained weight", "Paper weight"],
    );
    for c in AgClass::ALL {
        t.push_row(vec![
            c.name().into(),
            c.feature().into(),
            format!("{:+.2}", trained.get(c)),
            format!("{:+.2}", paper.get(c)),
        ]);
    }
    t.set_note(
        "Paper: AG6 (three derefs) strongest positive, AG4 weakest positive, \
         AG8/AG9 negative with AG8 half of AG9 — all of which reproduce here. \
         Two honest divergences: AG2 trains negative (our synthetic workloads \
         keep large arrays global/heap, so multi-sp stack patterns barely \
         occur), and AG7 trains negative (at -O0 loop recurrences flow through \
         stack slots, invisible to register-level recurrence detection; the \
         paper's +0.10 for AG7 was also its weakest positive weight).",
    );
    t
}

/// Table 6 — the input sets (workload metadata).
#[must_use]
pub fn table6(_p: &Pipeline) -> Table {
    let mut t = Table::new(
        "table6",
        "inputs used in the experiments",
        &["Benchmark", "Input 1", "Input 2"],
    );
    for b in dl_workloads::all() {
        t.push_row(vec![
            b.name.to_owned(),
            format!("{:?}", b.input1),
            format!("{:?}", b.input2),
        ]);
    }
    t.set_note("Input 1 doubles as the training input, exactly as in the paper.");
    t
}

/// Table 7 — heuristic stability across the two input sets.
#[must_use]
pub fn table7(p: &Pipeline) -> Table {
    let h = Heuristic::default();
    let mut t = Table::new(
        "table7",
        "performance on different inputs (training benchmarks, unoptimized)",
        &["Benchmark", "Input 1 π / ρ", "Input 2 π / ρ"],
    );
    let mut avgs = [vec![], vec![], vec![], vec![]];
    for b in dl_workloads::training_set() {
        let mut cells = vec![b.name.to_owned()];
        for (slot, input) in [1u8, 2].iter().enumerate() {
            let run = p.run(&b, OptLevel::O0, *input, CacheConfig::paper_training());
            let delta = delta_h(&run, &h);
            let pi_v = pi(delta.len(), run.lambda());
            let rho_v = rho(&run.result, &delta);
            avgs[slot * 2].push(pi_v);
            avgs[slot * 2 + 1].push(rho_v);
            cells.push(format!("{} / {}", pct(pi_v, 0), pct(rho_v, 0)));
        }
        t.push_row(cells);
    }
    t.push_row(vec![
        "AVERAGE".into(),
        format!("{} / {}", pct(avg(&avgs[0]), 0), pct(avg(&avgs[1]), 0)),
        format!("{} / {}", pct(avg(&avgs[2]), 0), pct(avg(&avgs[3]), 0)),
    ]);
    t.set_note(
        "Paper: averages 10%/95% on Input 1 vs 11%/96% on Input 2 — π and ρ \
         nearly unchanged across inputs. The shape to match is that stability.",
    );
    t
}

/// Table 8 — stability across associativity (optimized code, 8 KiB).
#[must_use]
pub fn table8(p: &Pipeline) -> Table {
    let h = Heuristic::default();
    let mut t = Table::new(
        "table8",
        "varying cache associativity (optimized code, 8 KiB)",
        &["Benchmark", "π", "ρ @2-way", "ρ @4-way", "ρ @8-way"],
    );
    let mut pis = vec![];
    let mut rhos = [vec![], vec![], vec![]];
    for b in dl_workloads::training_set() {
        let mut cells = vec![b.name.to_owned(), String::new()];
        for (i, assoc) in [2u32, 4, 8].iter().enumerate() {
            let run = p.run(&b, OptLevel::O1, 1, CacheConfig::kb(8, *assoc));
            let delta = delta_h(&run, &h);
            if i == 0 {
                let pi_v = pi(delta.len(), run.lambda());
                pis.push(pi_v);
                cells[1] = pct(pi_v, 0);
            }
            let rho_v = rho(&run.result, &delta);
            rhos[i].push(rho_v);
            cells.push(pct(rho_v, 0));
        }
        t.push_row(cells);
    }
    t.push_row(vec![
        "AVERAGE".into(),
        pct(avg(&pis), 0),
        pct(avg(&rhos[0]), 0),
        pct(avg(&rhos[1]), 0),
        pct(avg(&rhos[2]), 0),
    ]);
    t.set_note(
        "Paper: ρ ≈ 91/92/90% at 2/4/8-way — coverage essentially flat in \
         associativity; that flatness is the shape to match. Our π at -O1 \
         runs higher than the paper's 14% average because register-allocated \
         induction variables make recurrences (AG7) and shifts (AG3) visible \
         on more loads — the same direction as the paper's 099.go anomaly, \
         where optimization pushed π to 43%.",
    );
    t
}

/// Table 9 — stability across cache capacity (optimized code, 4-way).
#[must_use]
pub fn table9(p: &Pipeline) -> Table {
    let h = Heuristic::default();
    let mut t = Table::new(
        "table9",
        "varying cache size (optimized code, 4-way)",
        &["Benchmark", "π", "ρ @8k", "ρ @16k", "ρ @32k", "ρ @64k"],
    );
    let mut pis = vec![];
    let mut rhos = [vec![], vec![], vec![], vec![]];
    for b in dl_workloads::training_set() {
        let mut cells = vec![b.name.to_owned(), String::new()];
        for (i, kb) in [8u32, 16, 32, 64].iter().enumerate() {
            let run = p.run(&b, OptLevel::O1, 1, CacheConfig::kb(*kb, 4));
            let delta = delta_h(&run, &h);
            if i == 0 {
                let pi_v = pi(delta.len(), run.lambda());
                pis.push(pi_v);
                cells[1] = pct(pi_v, 0);
            }
            let rho_v = rho(&run.result, &delta);
            rhos[i].push(rho_v);
            cells.push(pct(rho_v, 0));
        }
        t.push_row(cells);
    }
    t.push_row(vec![
        "AVERAGE".into(),
        pct(avg(&pis), 0),
        pct(avg(&rhos[0]), 0),
        pct(avg(&rhos[1]), 0),
        pct(avg(&rhos[2]), 0),
        pct(avg(&rhos[3]), 0),
    ]);
    t.set_note(
        "Paper: ρ ≈ 92/92/91/91% from 8k to 64k — flat in capacity. That \
         flatness is the shape to match.",
    );
    t
}

/// Table 10 — generalization to the seven held-out benchmarks.
#[must_use]
pub fn table10(p: &Pipeline) -> Table {
    let h = Heuristic::default();
    let mut t = Table::new(
        "table10",
        "performance on benchmarks unseen during training",
        &["Benchmark", "|Δ| / |Λ| (π)", "ρ"],
    );
    let (mut pis, mut rhos) = (vec![], vec![]);
    for b in dl_workloads::test_set() {
        let run = p.run(&b, OptLevel::O0, 1, CacheConfig::paper_training());
        let delta = delta_h(&run, &h);
        let pi_v = pi(delta.len(), run.lambda());
        let rho_v = rho(&run.result, &delta);
        pis.push(pi_v);
        rhos.push(rho_v);
        t.push_row(vec![
            b.name.to_owned(),
            format!("{} / {} ({})", delta.len(), run.lambda(), pct(pi_v, 2)),
            pct(rho_v, 0),
        ]);
    }
    t.push_row(vec![
        "AVERAGE".into(),
        pct(avg(&pis), 2),
        pct(avg(&rhos), 2),
    ]);
    t.set_note(
        "Paper: averages 9.06% / 88.29% — slightly lower coverage than on the \
         training set but the same order of precision. That generalization gap \
         (small) is the shape to match.",
    );
    t
}

/// Table 11 — full summary at the 8 KiB baseline: with and without the
/// frequency classes AG8/AG9, plus the dynamic false-positive measure ξ.
#[must_use]
pub fn table11(p: &Pipeline) -> Table {
    let with = Heuristic::default();
    let without = Heuristic::default().without_frequency_classes();
    let mut t = Table::new(
        "table11",
        "performance summary (8 KiB baseline, unoptimized)",
        &[
            "Benchmark",
            "π (with AG8/9)",
            "ρ",
            "ξ",
            "π (without)",
            "ρ (without)",
        ],
    );
    let mut acc = [vec![], vec![], vec![], vec![], vec![]];
    for b in dl_workloads::all() {
        let run = p.run(&b, OptLevel::O0, 1, CacheConfig::paper_baseline());
        let loads = run.load_indices();
        let delta_w = delta_h(&run, &with);
        let delta_wo = delta_h(&run, &without);
        // ξ is measured against the Table-1-style ideal set: the
        // minimal set covering what hot-block profiling covers.
        let prof = profiling_set(run.program(), &run.result, HOT_FRACTION);
        let ideal = ideal_set(&run.result, &loads, run.result.misses_of_set(&prof));
        let vals = [
            pi(delta_w.len(), run.lambda()),
            rho(&run.result, &delta_w),
            xi(&run.result, &loads, &delta_w, &ideal),
            pi(delta_wo.len(), run.lambda()),
            rho(&run.result, &delta_wo),
        ];
        for (a, v) in acc.iter_mut().zip(vals) {
            a.push(v);
        }
        t.push_row(vec![
            b.name.to_owned(),
            pct(vals[0], 2),
            pct(vals[1], 0),
            pct(vals[2], 0),
            pct(vals[3], 2),
            pct(vals[4], 0),
        ]);
    }
    t.push_row(vec![
        "AVERAGE".into(),
        pct(avg(&acc[0]), 2),
        pct(avg(&acc[1]), 2),
        pct(avg(&acc[2]), 2),
        pct(avg(&acc[3]), 2),
        pct(avg(&acc[4]), 2),
    ]);
    t.set_note(
        "Paper: 10.15% / 92.61% / ξ 14.04% with AG8+AG9; 20.82% / 92.89% without. \
         Shape to match: dropping the frequency classes roughly doubles π at \
         essentially unchanged ρ.",
    );
    t
}

/// Table 12 — the OKN and BDH baselines on the same binaries and cache.
#[must_use]
pub fn table12(p: &Pipeline) -> Table {
    let mut t = Table::new(
        "table12",
        "performance of the OKN and BDH methods",
        &["Benchmark", "OKN π", "OKN ρ", "BDH π", "BDH ρ"],
    );
    let mut acc = [vec![], vec![], vec![], vec![]];
    for b in dl_workloads::all() {
        let run = p.run(&b, OptLevel::O0, 1, CacheConfig::paper_baseline());
        let okn = Okn.predict(run.ctx());
        let bdh = Bdh.predict(run.ctx());
        let vals = [
            pi(okn.len(), run.lambda()),
            rho(&run.result, &okn),
            pi(bdh.len(), run.lambda()),
            rho(&run.result, &bdh),
        ];
        for (a, v) in acc.iter_mut().zip(vals) {
            a.push(v);
        }
        t.push_row(vec![
            b.name.to_owned(),
            pct(vals[0], 2),
            pct(vals[1], 0),
            pct(vals[2], 2),
            pct(vals[3], 0),
        ]);
    }
    t.push_row(vec![
        "AVERAGE".into(),
        pct(avg(&acc[0]), 2),
        pct(avg(&acc[1]), 2),
        pct(avg(&acc[2]), 2),
        pct(avg(&acc[3]), 2),
    ]);
    t.set_note(
        "Paper: OKN 55.88% / 92.06%, BDH 50.73% / 93.00%. Shape to match: both \
         baselines reach coverage comparable to the heuristic's but flag ~5x \
         more static loads (π ≈ 50% vs ≈ 10%).",
    );
    t
}

/// Table 13 — varying the delinquency threshold δ (optimized, 16 KiB).
#[must_use]
pub fn table13(p: &Pipeline) -> Table {
    let deltas = [0.10, 0.20, 0.30, 0.40];
    let mut t = Table::new(
        "table13",
        "varying the delinquency threshold δ (optimized, 16 KiB)",
        &[
            "Benchmark",
            "δ=0.10 π/ρ",
            "δ=0.20 π/ρ",
            "δ=0.30 π/ρ",
            "δ=0.40 π/ρ",
        ],
    );
    let mut acc: Vec<(Vec<f64>, Vec<f64>)> = vec![(vec![], vec![]); deltas.len()];
    for b in dl_workloads::training_set() {
        let run = p.run(&b, OptLevel::O1, 1, CacheConfig::kb(16, 4));
        let mut cells = vec![b.name.to_owned()];
        for (i, d) in deltas.iter().enumerate() {
            let h = Heuristic::default().with_threshold(*d);
            let delta = delta_h(&run, &h);
            let pi_v = pi(delta.len(), run.lambda());
            let rho_v = rho(&run.result, &delta);
            acc[i].0.push(pi_v);
            acc[i].1.push(rho_v);
            cells.push(format!("{} / {}", pct(pi_v, 0), pct(rho_v, 0)));
        }
        t.push_row(cells);
    }
    let mut avg_cells = vec!["AVERAGE".to_owned()];
    for (pis, rhos) in &acc {
        avg_cells.push(format!("{} / {}", pct(avg(pis), 0), pct(avg(rhos), 0)));
    }
    t.push_row(avg_cells);
    t.set_note(
        "Paper: averages fall from 14/92 at δ=0.10 to 6/68 at δ=0.40, with \
         benchmark-dependent cliffs. Shape to match: both π and ρ decline \
         monotonically as δ rises, with per-benchmark cliffs.",
    );
    t
}

/// Table 14 — combining the heuristic with basic-block profiling under
/// different ε-factors, plus the random-selection control ρ*.
#[must_use]
pub fn table14(p: &Pipeline) -> Table {
    let h = Heuristic::default();
    let epsilons = [0.0, 0.10, 0.20, 0.30];
    let mut t = Table::new(
        "table14",
        "combining with profiling: varying the ε factor",
        &[
            "Benchmark",
            "ε=0 π/ρ/ρ*",
            "ε=0.1 π/ρ",
            "ε=0.2 π/ρ",
            "ε=0.3 π/ρ",
        ],
    );
    let mut acc: Vec<(Vec<f64>, Vec<f64>)> = vec![(vec![], vec![]); epsilons.len()];
    let mut rho_stars = vec![];
    for b in dl_workloads::all() {
        let run = p.run(&b, OptLevel::O0, 1, CacheConfig::paper_training());
        let prof = profiling_set(run.program(), &run.result, HOT_FRACTION);
        let scored = h.score_all(run.analysis(), &run.result.exec_counts);
        let heuristic = delta_h(&run, &h);
        let mut cells = vec![b.name.to_owned()];
        for (i, eps) in epsilons.iter().enumerate() {
            let combined = combine_with_profiling(&prof, &scored, &heuristic, *eps);
            let pi_v = pi(combined.len(), run.lambda());
            let rho_v = rho(&run.result, &combined);
            acc[i].0.push(pi_v);
            acc[i].1.push(rho_v);
            if i == 0 {
                // Control: the same number of loads picked at random
                // from the hotspots, averaged over three draws.
                let star = random_control(&run.result, &prof, combined.len(), 3, 0xd1);
                rho_stars.push(star);
                cells.push(format!(
                    "{} / {} / {}",
                    pct(pi_v, 2),
                    pct(rho_v, 0),
                    pct(star, 0)
                ));
            } else {
                cells.push(format!("{} / {}", pct(pi_v, 2), pct(rho_v, 0)));
            }
        }
        t.push_row(cells);
    }
    let mut avg_cells = vec!["AVERAGE".to_owned()];
    for (i, (pis, rhos)) in acc.iter().enumerate() {
        if i == 0 {
            avg_cells.push(format!(
                "{} / {} / {}",
                pct(avg(pis), 2),
                pct(avg(rhos), 0),
                pct(avg(&rho_stars), 0)
            ));
        } else {
            avg_cells.push(format!("{} / {}", pct(avg(pis), 2), pct(avg(rhos), 0)));
        }
    }
    t.push_row(avg_cells);
    t.set_note(
        "Paper: ε=0 pinpoints 1.30% of loads covering 82% of misses (random \
         control ρ* only 23%); raising ε adds loads and a little coverage. Shape \
         to match: the intersection is several times more precise than profiling \
         alone at modest coverage cost, and dominates random selection.",
    );
    t
}

/// Ablation (beyond the paper): drop each aggregate class individually
/// and report the average Δπ / Δρ over all 18 benchmarks.
#[must_use]
pub fn ablation_classes(p: &Pipeline) -> Table {
    let mut t = Table::new(
        "ablation-classes",
        "per-class ablation: zero one AG weight at a time (8 KiB baseline)",
        &["Dropped class", "avg π", "avg ρ", "Δπ", "Δρ"],
    );
    let runs: Vec<Arc<BenchRun>> = dl_workloads::all()
        .iter()
        .map(|b| p.run(b, OptLevel::O0, 1, CacheConfig::paper_baseline()))
        .collect();
    let evaluate = |h: &Heuristic| -> (f64, f64) {
        let (mut pis, mut rhos) = (vec![], vec![]);
        for run in &runs {
            let delta = delta_h(run, h);
            pis.push(pi(delta.len(), run.lambda()));
            rhos.push(rho(&run.result, &delta));
        }
        (avg(&pis), avg(&rhos))
    };
    let (base_pi, base_rho) = evaluate(&Heuristic::default());
    t.push_row(vec![
        "(none)".into(),
        pct(base_pi, 2),
        pct(base_rho, 2),
        "—".into(),
        "—".into(),
    ]);
    for c in AgClass::ALL {
        let mut w = Weights::paper();
        w.set(c, 0.0);
        let (pi_v, rho_v) = evaluate(&Heuristic::default().with_weights(w));
        t.push_row(vec![
            c.name().into(),
            pct(pi_v, 2),
            pct(rho_v, 2),
            format!("{:+.2}pp", (pi_v - base_pi) * 100.0),
            format!("{:+.2}pp", (rho_v - base_rho) * 100.0),
        ]);
    }
    t.set_note(
        "Beyond the paper. Expected shape: dropping AG4 (the broad one-deref \
         class) costs the most coverage; dropping AG8/AG9 inflates π; dropping \
         narrow classes barely moves either metric.",
    );
    t
}

/// Ablation (beyond the paper): sensitivity of π/ρ to the pattern
/// extraction bounds (max patterns per load, max substitution depth).
#[must_use]
pub fn ablation_patterns(p: &Pipeline) -> Table {
    let h = Heuristic::default();
    let mut t = Table::new(
        "ablation-patterns",
        "pattern-extraction bounds: π/ρ under tighter analysis caps",
        &["max_patterns", "max_depth", "avg π", "avg ρ"],
    );
    let runs: Vec<Arc<BenchRun>> = dl_workloads::all()
        .iter()
        .map(|b| p.run(b, OptLevel::O0, 1, CacheConfig::paper_baseline()))
        .collect();
    for (mp, md) in [(1usize, 2usize), (1, 16), (2, 16), (4, 16), (8, 16), (8, 4)] {
        let cfg = AnalysisConfig {
            max_patterns: mp,
            max_depth: md,
            ..AnalysisConfig::default()
        };
        let (mut pis, mut rhos) = (vec![], vec![]);
        for run in &runs {
            // Re-extract the same binary's patterns under tighter caps
            // from its cached reaching definitions; the simulation
            // results are reused.
            let analysis = run.ctx().analysis_with(&cfg);
            let delta = h.classify(&analysis, &run.result.exec_counts);
            pis.push(pi(delta.len(), run.lambda()));
            rhos.push(rho(&run.result, &delta));
        }
        t.push_row(vec![
            mp.to_string(),
            md.to_string(),
            pct(avg(&pis), 2),
            pct(avg(&rhos), 2),
        ]);
    }
    t.set_note(
        "Beyond the paper. Expected shape: a single pattern per load already \
         captures most coverage; very shallow substitution depth (≤4) loses \
         the deref-chain classes and coverage with them.",
    );
    t
}

/// Extension (the paper's §5.2 suggestion): replace the basic-block
/// profile behind AG8/AG9 with *static* execution-frequency estimates
/// (loop nesting × call-graph propagation, Wu-Larus style).
#[must_use]
pub fn extension_static_frequency(p: &Pipeline) -> Table {
    let measured_h = Heuristic::default();
    let static_h = Heuristic::default();
    let none_h = Heuristic::default().without_frequency_classes();
    let mut t = Table::new(
        "extension-static-frequency",
        "AG8/AG9 driven by measured profile vs static estimate vs disabled",
        &[
            "Benchmark",
            "measured π/ρ",
            "static-estimate π/ρ",
            "disabled π/ρ",
        ],
    );
    let mut acc = [vec![], vec![], vec![], vec![], vec![], vec![]];
    for b in dl_workloads::all() {
        let run = p.run(&b, OptLevel::O0, 1, CacheConfig::paper_baseline());
        let est = run.ctx().freq().as_counts();
        let sets = [
            measured_h.classify(run.analysis(), &run.result.exec_counts),
            static_h.classify(run.analysis(), &est),
            none_h.classify(run.analysis(), &run.result.exec_counts),
        ];
        let mut cells = vec![b.name.to_owned()];
        for (i, set) in sets.iter().enumerate() {
            let pi_v = pi(set.len(), run.lambda());
            let rho_v = rho(&run.result, set);
            acc[i * 2].push(pi_v);
            acc[i * 2 + 1].push(rho_v);
            cells.push(format!("{} / {}", pct(pi_v, 2), pct(rho_v, 0)));
        }
        t.push_row(cells);
    }
    t.push_row(vec![
        "AVERAGE".into(),
        format!("{} / {}", pct(avg(&acc[0]), 2), pct(avg(&acc[1]), 2)),
        format!("{} / {}", pct(avg(&acc[2]), 2), pct(avg(&acc[3]), 2)),
        format!("{} / {}", pct(avg(&acc[4]), 2), pct(avg(&acc[5]), 2)),
    ]);
    t.set_note(
        "Beyond the paper (its §5.2 suggests this is possible). Expected shape: \
         the static estimate lands between the measured profile and the \
         disabled variant — it recovers most of the precision benefit of \
         AG8/AG9 without any profiling run.",
    );
    t
}

/// Ablation: how sensitive is the §9 combination to profile fidelity?
/// Execution counts are downsampled as if collected by sampling every
/// N-th instruction.
#[must_use]
pub fn ablation_profile_fidelity(p: &Pipeline) -> Table {
    let h = Heuristic::default();
    let periods = [1u64, 10, 100, 1000, 10000];
    let mut t = Table::new(
        "ablation-profile-fidelity",
        "ε=0 combination under sampled profiles (counts quantized by period N)",
        &["Sampling period", "avg π", "avg ρ"],
    );
    for &n in &periods {
        let (mut pis, mut rhos) = (vec![], vec![]);
        for b in dl_workloads::all() {
            let run = p.run(&b, OptLevel::O0, 1, CacheConfig::paper_training());
            let sampled: Vec<u64> = run.result.exec_counts.iter().map(|&e| e / n * n).collect();
            // Rebuild both the hot-block profile and the frequency
            // classes from the degraded counts.
            let mut degraded = run.result.clone();
            degraded.exec_counts = sampled.clone();
            let prof = profiling_set(run.program(), &degraded, HOT_FRACTION);
            let heuristic_set = h.classify(run.analysis(), &sampled);
            let scored = h.score_all(run.analysis(), &sampled);
            let combined = combine_with_profiling(&prof, &scored, &heuristic_set, 0.0);
            pis.push(pi(combined.len(), run.lambda()));
            // Coverage is always judged against the *true* misses.
            rhos.push(rho(&run.result, &combined));
        }
        t.push_row(vec![
            format!("1/{n}"),
            pct(avg(&pis), 2),
            pct(avg(&rhos), 2),
        ]);
    }
    t.set_note(
        "Beyond the paper (which assumes perfect profile fidelity and notes \
         real profiles won't have it). Expected shape: coverage degrades \
         gracefully as sampling coarsens, because the heuristic's structural \
         classes do not depend on the counts.",
    );
    t
}

/// Ablation: per-benchmark δ tuning (the paper's §8.6 'further
/// investigation'): pick the largest δ that keeps ρ ≥ 90%, per
/// benchmark, and compare against the fixed δ = 0.10.
#[must_use]
pub fn ablation_delta_tuning(p: &Pipeline) -> Table {
    let candidates: Vec<f64> = (1..=12).map(|i| f64::from(i) * 0.05).collect();
    let mut t = Table::new(
        "ablation-delta-tuning",
        "fixed δ=0.10 vs per-benchmark δ tuned for ρ ≥ 90%",
        &["Benchmark", "fixed π/ρ", "tuned δ", "tuned π/ρ"],
    );
    let mut acc = [vec![], vec![], vec![], vec![]];
    for b in dl_workloads::all() {
        let run = p.run(&b, OptLevel::O0, 1, CacheConfig::paper_baseline());
        let eval = |delta: f64| -> (f64, f64) {
            let h = Heuristic::default().with_threshold(delta);
            let set = delta_h(&run, &h);
            (pi(set.len(), run.lambda()), rho(&run.result, &set))
        };
        let (fp, fr) = eval(0.10);
        // Largest δ (fewest flagged loads) still covering 90%.
        let tuned = candidates
            .iter()
            .copied()
            .filter(|&d| eval(d).1 >= 0.90)
            .fold(0.05, f64::max);
        let (tp, tr) = eval(tuned);
        acc[0].push(fp);
        acc[1].push(fr);
        acc[2].push(tp);
        acc[3].push(tr);
        t.push_row(vec![
            b.name.to_owned(),
            format!("{} / {}", pct(fp, 2), pct(fr, 0)),
            format!("{tuned:.2}"),
            format!("{} / {}", pct(tp, 2), pct(tr, 0)),
        ]);
    }
    t.push_row(vec![
        "AVERAGE".into(),
        format!("{} / {}", pct(avg(&acc[0]), 2), pct(avg(&acc[1]), 2)),
        String::new(),
        format!("{} / {}", pct(avg(&acc[2]), 2), pct(avg(&acc[3]), 2)),
    ]);
    t.set_note(
        "Beyond the paper (§8.6 observes per-benchmark δ is promising). \
         Expected shape: tuning recovers precision on benchmarks whose miss \
         mass sits in high-φ loads, at no coverage cost below the 90% floor.",
    );
    t
}

/// Extension: the paper's motivating application. Attach a next-line
/// prefetcher to different site-selection policies and measure the
/// miss reduction each achieves against the overhead (prefetches
/// issued) it pays.
#[must_use]
pub fn extension_prefetch(p: &Pipeline) -> Table {
    let h = Heuristic::default();
    let mut t = Table::new(
        "extension-prefetch",
        "next-line prefetching guided by each site-selection policy",
        &[
            "Policy",
            "sites (avg π)",
            "avg miss reduction",
            "prefetches / removed miss",
        ],
    );
    // A miss-heavy subset keeps this table fast while covering the
    // three canonical behaviours (chase, gather, stream).
    let names = ["181.mcf", "183.equake", "179.art", "164.gzip"];
    struct PolicyAcc {
        pis: Vec<f64>,
        reductions: Vec<f64>,
        issued: u64,
        removed: u64,
    }
    let mut accs: Vec<PolicyAcc> = (0..3)
        .map(|_| PolicyAcc {
            pis: vec![],
            reductions: vec![],
            issued: 0,
            removed: 0,
        })
        .collect();
    for name in names {
        let bench = dl_workloads::by_name(name).expect("known benchmark");
        let base = p.run(&bench, OptLevel::O0, 1, CacheConfig::paper_baseline());
        let policies = [
            h.predict(base.ctx()),
            profiling_set(base.program(), &base.result, HOT_FRACTION),
            base.load_indices(),
        ];
        // The sites come from the base run's profile, so each run
        // derives from its spec (and keeps its input); requested
        // together, the three share one execution.
        let specs: Vec<RunSpec> = policies
            .iter()
            .map(|sites| RunSpec {
                memory: MemoryConfig {
                    prefetch: Some(Prefetch::NextLine(1)),
                    ..MemoryConfig::default()
                },
                prefetch_sites: Some(sites.clone()),
                ..base.spec().clone()
            })
            .collect();
        let runs = p.run_specs(&specs);
        for (acc, (sites, run)) in accs.iter_mut().zip(policies.iter().zip(&runs)) {
            acc.pis.push(pi(sites.len(), base.lambda()));
            let result = &run.result;
            let before = base.result.load_misses_total;
            let after = result.load_misses_total;
            let removed = before.saturating_sub(after);
            acc.reductions.push(removed as f64 / before.max(1) as f64);
            acc.issued += result.prefetches_issued;
            acc.removed += removed;
        }
    }
    for (slot, label) in [(0, "heuristic"), (1, "hot blocks"), (2, "all loads")] {
        let a = &accs[slot];
        t.push_row(vec![
            label.into(),
            pct(avg(&a.pis), 2),
            pct(avg(&a.reductions), 1),
            format!("{:.1}", a.issued as f64 / a.removed.max(1) as f64),
        ]);
    }
    t.set_note(
        "Beyond the paper (its motivation: 'performing a prefetch for every \
         load will be too costly'). Expected shape: the heuristic's sites get \
         nearly the miss reduction of prefetching everything while issuing a \
         small fraction of the prefetches — i.e. far fewer prefetches per \
         removed miss.",
    );
    t
}

/// Extension: the static reuse-distance estimator as a second
/// delinquency predictor, scored alone and hybridized with the
/// heuristic, against the simulated per-load miss ground truth of the
/// same runs the baselines use.
#[must_use]
pub fn extension_reuse(p: &Pipeline) -> Table {
    let h = Heuristic::default();
    let cache = CacheConfig::paper_baseline();
    let geometry = CacheGeometry::new(
        u64::from(cache.size_bytes()),
        u64::from(cache.block_bytes()),
        cache.assoc(),
    );
    let reuse = ReusePredictor::new(geometry);
    let inter = Hybrid::new(h.clone(), reuse, HybridMode::Intersect);
    let union = Hybrid::new(h.clone(), reuse, HybridMode::Union);
    let mut t = Table::new(
        "extension-reuse",
        "static reuse-distance estimation as a second predictor (8 KiB baseline)",
        &[
            "Benchmark",
            "heuristic π/ρ",
            "reuse π/ρ",
            "hybrid∩ π/ρ",
            "hybrid∪ π/ρ",
            "OKN π/ρ",
            "BDH π/ρ",
        ],
    );
    let mut acc: Vec<Vec<f64>> = vec![vec![]; 12];
    for b in dl_workloads::all() {
        let run = p.run(&b, OptLevel::O0, 1, cache);
        let sets: Vec<Vec<usize>> = [&h as &dyn Predictor, &reuse, &inter, &union, &Okn, &Bdh]
            .into_iter()
            .map(|pred| pred.predict(run.ctx()))
            .collect();
        let mut cells = vec![b.name.to_owned()];
        for (k, set) in sets.iter().enumerate() {
            let p_val = pi(set.len(), run.lambda());
            let r_val = rho(&run.result, set);
            acc[2 * k].push(p_val);
            acc[2 * k + 1].push(r_val);
            cells.push(format!("{} / {}", pct(p_val, 2), pct(r_val, 0)));
        }
        t.push_row(cells);
    }
    let mut avg_row = vec!["AVERAGE".to_owned()];
    for k in 0..6 {
        avg_row.push(format!(
            "{} / {}",
            pct(avg(&acc[2 * k]), 2),
            pct(avg(&acc[2 * k + 1]), 2)
        ));
    }
    t.push_row(avg_row);
    t.set_note(
        "Beyond the paper. The reuse estimator predicts per-load miss ratios from \
         loop trip counts, strides, and footprints (DESIGN.md, 'Loop & reuse \
         analysis'). Expected shape: reuse alone trades coverage for precision \
         against the pattern heuristic (it abstains on irregular addresses); \
         intersecting the two (hybrid∩) drives π far below either alone (a \
         high-confidence set, at reuse's coverage), and their union beats \
         OKN on both axes — higher ρ at lower π.",
    );
    t
}

/// Extension: the interprocedural reuse-*profile* estimator
/// (per-load reuse-distance histograms, `dl-analysis::profile`)
/// scored per benchmark against the same ground truth as
/// `extension-reuse`, alongside the point-estimate reuse predictor it
/// generalizes.
#[must_use]
pub fn extension_profile(p: &Pipeline) -> Table {
    let h = Heuristic::default();
    let cache = CacheConfig::paper_baseline();
    let geometry = CacheGeometry::new(
        u64::from(cache.size_bytes()),
        u64::from(cache.block_bytes()),
        cache.assoc(),
    );
    let profile = ProfilePredictor::new(geometry);
    let reuse = ReusePredictor::new(geometry);
    let inter = Hybrid::new(h.clone(), profile, HybridMode::Intersect);
    let union = Hybrid::new(h.clone(), profile, HybridMode::Union);
    let mut t = Table::new(
        "extension-profile",
        "static reuse-profile histograms as a predictor (8 KiB baseline)",
        &[
            "Benchmark",
            "heuristic π/ρ",
            "profile π/ρ",
            "hybrid∩ π/ρ",
            "hybrid∪ π/ρ",
            "reuse π/ρ",
            "xproc loads",
        ],
    );
    let mut acc: Vec<Vec<f64>> = vec![vec![]; 10];
    let mut xproc_total = 0usize;
    for b in dl_workloads::all() {
        let run = p.run(&b, OptLevel::O0, 1, cache);
        let sets: Vec<Vec<usize>> = [&h as &dyn Predictor, &profile, &inter, &union, &reuse]
            .into_iter()
            .map(|pred| pred.predict(run.ctx()))
            .collect();
        let xproc = run.ctx().reuse_profiles().interprocedural_count();
        xproc_total += xproc;
        let mut cells = vec![b.name.to_owned()];
        for (k, set) in sets.iter().enumerate() {
            let p_val = pi(set.len(), run.lambda());
            let r_val = rho(&run.result, set);
            acc[2 * k].push(p_val);
            acc[2 * k + 1].push(r_val);
            cells.push(format!("{} / {}", pct(p_val, 2), pct(r_val, 0)));
        }
        cells.push(format!("{xproc}"));
        t.push_row(cells);
    }
    let mut avg_row = vec!["AVERAGE".to_owned()];
    for k in 0..5 {
        avg_row.push(format!(
            "{} / {}",
            pct(avg(&acc[2 * k]), 2),
            pct(avg(&acc[2 * k + 1]), 2)
        ));
    }
    avg_row.push(format!("{xproc_total}"));
    t.push_row(avg_row);
    t.set_note(
        "Beyond the paper. The profile predictor prices each load's static \
         reuse-distance histogram (DESIGN.md, 'Static reuse profiles') against \
         the geometry; 'xproc loads' counts loads whose histogram needed the \
         interprocedural machinery (callee summaries / calling contexts) — \
         loads the intraprocedural reuse model could not see repeat. Expected \
         shape: profile tracks reuse closely at this geometry (same abstention \
         discipline) while additionally covering cross-function loads.",
    );
    t
}

/// Extension: one static analysis, nine geometries. Each benchmark is
/// simulated once with the shadow-LRU reuse measurement; the static
/// histograms and the measured stack distances are then priced
/// against every geometry of the 8–64 KiB × 2/4/8-way sweep with no
/// re-analysis and no re-simulation, next to the true set-associative
/// miss ratio of a real simulation at that geometry.
#[must_use]
pub fn profile_geometries(p: &Pipeline) -> Table {
    let mut t = Table::new(
        "profile-geometries",
        "static vs measured reuse-distance miss ratios across 9 geometries",
        &[
            "Geometry",
            "static miss",
            "shadow-LRU miss",
            "sim miss",
            "|static−shadow| wtd",
        ],
    );
    // The canonical behaviours (chase, gather, stream, mixed) keep
    // the table fast; the 18-workload validation test covers the rest.
    let names = ["181.mcf", "183.equake", "179.art", "164.gzip"];
    let shadows: Vec<Arc<BenchRun>> = names
        .iter()
        .map(|name| {
            let bench = dl_workloads::by_name(name).expect("known benchmark");
            let base = p.run(&bench, OptLevel::O0, 1, CacheConfig::paper_baseline());
            p.run_spec(&RunSpec {
                reuse: true,
                ..base.spec().clone()
            })
        })
        .collect();
    for kb in [8u32, 16, 64] {
        for assoc in [2u32, 4, 8] {
            let cap_blocks = u64::from(kb) * 1024 / 32;
            let geometry = CacheGeometry::new(u64::from(kb) * 1024, 32, assoc);
            let (mut stat, mut shadow, mut sim, mut err) = (vec![], vec![], vec![], vec![]);
            for run in &shadows {
                let measured = run.reuse.as_ref().expect("reuse measurement collected");
                let real = p.run(
                    &run.spec().bench,
                    OptLevel::O0,
                    1,
                    CacheConfig::kb(kb, assoc),
                );
                sim.push(real.result.load_misses_total as f64 / real.result.loads.max(1) as f64);
                shadow.push(measured.aggregate_miss_ratio(cap_blocks));
                // Static per-load ratios, weighted by the measured
                // access counts so both aggregates use one scale;
                // abstained loads are excluded from both sides.
                let (mut s_num, mut e_num, mut den) = (0.0f64, 0.0f64, 0u64);
                for pred in run.ctx().reuse_profiles().predict(&geometry) {
                    if pred.abstained {
                        continue;
                    }
                    let site = measured.site(pred.index);
                    let n = site.total();
                    if n == 0 {
                        continue;
                    }
                    s_num += pred.miss_ratio * n as f64;
                    e_num += (pred.miss_ratio - site.miss_ratio(cap_blocks)).abs() * n as f64;
                    den += n;
                }
                stat.push(s_num / den.max(1) as f64);
                err.push(e_num / den.max(1) as f64);
            }
            t.push_row(vec![
                format!("{kb}KB/{assoc}-way"),
                pct(avg(&stat), 2),
                pct(avg(&shadow), 2),
                pct(avg(&sim), 2),
                pct(avg(&err), 2),
            ]);
        }
    }
    t.set_note(
        "Beyond the paper. One histogram per load prices every geometry: the \
         'static' and 'shadow-LRU' columns re-use a single analysis and a \
         single instrumented simulation across all nine rows. The stack- \
         distance model is associativity-blind (fully-associative LRU), so \
         those columns vary only with capacity; the 'sim miss' column is the \
         real set-associative simulator at each geometry. Expected shape: \
         static tracks shadow-LRU within a few points (weighted |Δ| column), \
         and both bracket the set-associative truth.",
    );
    t
}

/// The workloads the memory-system matrix sweeps: the three extension
/// access-pattern families (B-tree lookups, hash join, BFS over CSR)
/// plus two canonical paper behaviours (pointer chase, hash probes)
/// as anchors.
#[must_use]
pub fn memmatrix_benches() -> Vec<&'static str> {
    vec![
        "ext.btree",
        "ext.hashjoin",
        "ext.bfs",
        "181.mcf",
        "129.compress",
    ]
}

/// The policy × hierarchy × prefetch grid behind
/// `extension-memmatrix`: every replacement policy with and without an
/// inclusive 64 KiB 8-way L2 and with and without a degree-2 stride
/// prefetcher, plus the exclusive-L2 pair under LRU — 14
/// configurations, the first of which is the paper default (LRU,
/// L1-only, no prefetch) shared with every other table.
#[must_use]
pub fn memmatrix_configs() -> Vec<MemoryConfig> {
    let mut v = Vec::new();
    for policy in [Policy::Lru, Policy::Plru, Policy::Random] {
        for l2 in [None, Some(L2Config::kb(64, 8, Inclusion::Inclusive))] {
            for prefetch in [None, Some(Prefetch::Stride(2))] {
                v.push(MemoryConfig {
                    policy,
                    l2,
                    prefetch,
                });
            }
        }
    }
    for prefetch in [None, Some(Prefetch::Stride(2))] {
        v.push(MemoryConfig {
            policy: Policy::Lru,
            l2: Some(L2Config::kb(64, 8, Inclusion::Exclusive)),
            prefetch,
        });
    }
    v
}

/// The static load with the most misses — the head of the delinquency
/// ranking — or `None` when nothing missed. Ties break to the lowest
/// instruction index so the reference is deterministic.
fn top_site(result: &dl_sim::RunResult) -> Option<usize> {
    result
        .load_misses
        .iter()
        .enumerate()
        .filter(|&(_, &m)| m > 0)
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(i, _)| i)
}

/// Extension: delinquency across the memory-system matrix. Each row is
/// one memory system (replacement policy / optional L2 / stride
/// prefetcher) over the five matrix workloads; columns report the
/// aggregate load-miss ratio, the share of would-be misses the
/// prefetcher hid, and every predictor's π/ρ against that system's
/// per-load miss ground truth.
#[must_use]
pub fn extension_memmatrix(p: &Pipeline) -> Table {
    let cache = CacheConfig::paper_baseline();
    let geometry = CacheGeometry::new(
        u64::from(cache.size_bytes()),
        u64::from(cache.block_bytes()),
        cache.assoc(),
    );
    let h = Heuristic::default();
    let profile = ProfilePredictor::new(geometry);
    let reuse = ReusePredictor::new(geometry);
    let inter = Hybrid::new(h.clone(), profile, HybridMode::Intersect);
    let union = Hybrid::new(h.clone(), profile, HybridMode::Union);
    let mut t = Table::new(
        "extension-memmatrix",
        "delinquency across the memory-system matrix (8 KiB L1)",
        &[
            "Memory system",
            "load miss",
            "pf hidden",
            "heuristic π/ρ",
            "OKN π/ρ",
            "BDH π/ρ",
            "reuse π/ρ",
            "profile π/ρ",
            "hybrid∩ π/ρ",
            "hybrid∪ π/ρ",
            "top moved",
        ],
    );
    let benches: Vec<Benchmark> = memmatrix_benches()
        .into_iter()
        .map(|n| dl_workloads::by_name(n).expect("known benchmark"))
        .collect();
    // Predictor sets are static — the profile they consume (execution
    // counts) is identical under every memory system — so compute them
    // once per benchmark from the default-configuration run, along
    // with that run's top miss site as the ranking reference.
    let preds: [&dyn Predictor; 7] = [&h, &Okn, &Bdh, &reuse, &profile, &inter, &union];
    let baseline_runs: Vec<Arc<BenchRun>> = benches
        .iter()
        .map(|b| p.run(b, OptLevel::O0, 1, cache))
        .collect();
    let sets: Vec<Vec<Vec<usize>>> = baseline_runs
        .iter()
        .map(|run| preds.iter().map(|pred| pred.predict(run.ctx())).collect())
        .collect();
    let top_ref: Vec<Option<usize>> = baseline_runs.iter().map(|r| top_site(&r.result)).collect();
    for memory in memmatrix_configs() {
        let (mut miss, mut hidden) = (vec![], vec![]);
        let mut pis: Vec<Vec<f64>> = vec![vec![]; preds.len()];
        let mut rhos: Vec<Vec<f64>> = vec![vec![]; preds.len()];
        let mut moved = 0usize;
        for (bi, b) in benches.iter().enumerate() {
            let run = p.run_spec(&RunSpec {
                memory,
                ..RunSpec::new(b.clone(), OptLevel::O0, 1, cache)
            });
            miss.push(run.result.load_misses_total as f64 / run.result.loads.max(1) as f64);
            let would_miss = run.result.dcache_misses + run.result.prefetch_useful;
            hidden.push(run.result.prefetch_useful as f64 / would_miss.max(1) as f64);
            for (k, set) in sets[bi].iter().enumerate() {
                pis[k].push(pi(set.len(), run.lambda()));
                rhos[k].push(rho(&run.result, set));
            }
            if top_site(&run.result) != top_ref[bi] {
                moved += 1;
            }
        }
        let mut cells = vec![memory.to_string(), pct(avg(&miss), 2), pct(avg(&hidden), 1)];
        for k in 0..preds.len() {
            cells.push(format!(
                "{} / {}",
                pct(avg(&pis[k]), 2),
                pct(avg(&rhos[k]), 1)
            ));
        }
        cells.push(format!("{moved}/{}", benches.len()));
        t.push_row(cells);
    }
    t.set_note(
        "Beyond the paper. π is constant down each column because every \
         predictor is static — only the ground truth moves. The reuse and \
         profile predictors price a fully-associative LRU model, so their ρ \
         degrading under plru/random is the model divergence DESIGN.md \
         documents, not a bug. 'pf hidden' is the share of would-be demand \
         misses the stride prefetcher converted to hits; 'top moved' counts \
         workloads whose single most delinquent load differs from the \
         default system's — non-zero prefetch rows mean the ranking a \
         compiler should target depends on the memory system it compiles \
         for.",
    );
    t
}

/// A table generator function.
pub type TableFn = fn(&Pipeline) -> Table;

/// Every table generator, in order, with ablations at the end.
#[must_use]
pub fn all_tables() -> Vec<(&'static str, TableFn)> {
    vec![
        ("table1", table1),
        ("table2", table2),
        ("table3", table3),
        ("table4", table4),
        ("table5", table5),
        ("table6", table6),
        ("table7", table7),
        ("table8", table8),
        ("table9", table9),
        ("table10", table10),
        ("table11", table11),
        ("table12", table12),
        ("table13", table13),
        ("table14", table14),
        ("ablation-classes", ablation_classes),
        ("ablation-patterns", ablation_patterns),
        ("extension-static-frequency", extension_static_frequency),
        ("extension-prefetch", extension_prefetch),
        ("extension-reuse", extension_reuse),
        ("extension-profile", extension_profile),
        ("extension-memmatrix", extension_memmatrix),
        ("profile-geometries", profile_geometries),
        ("ablation-profile-fidelity", ablation_profile_fidelity),
        ("ablation-delta-tuning", ablation_delta_tuning),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_registry_names_are_unique_and_well_formed() {
        let tables = all_tables();
        let mut names: Vec<&str> = tables.iter().map(|(n, _)| *n).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate table names");
        // Tables 1-14 are all present.
        for i in 1..=14 {
            assert!(
                names.contains(&format!("table{i}").as_str()),
                "table{i} missing from registry"
            );
        }
    }

    #[test]
    fn table6_is_metadata_only() {
        // Table 6 needs no simulation: it must not touch the pipeline.
        let p = Pipeline::new();
        let t = table6(&p);
        assert_eq!(p.simulations(), 0);
        assert_eq!(t.rows.len(), 18);
        assert!(t.to_markdown().contains("181.mcf"));
    }

    #[test]
    fn averages_helper() {
        assert_eq!(avg(&[]), 0.0);
        assert!((avg(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn memmatrix_grid_shape() {
        let configs = memmatrix_configs();
        assert!(configs.len() >= 12, "matrix must span at least 12 configs");
        assert_eq!(configs[0], MemoryConfig::default());
        let labels: std::collections::HashSet<String> =
            configs.iter().map(ToString::to_string).collect();
        assert_eq!(labels.len(), configs.len(), "duplicate matrix configs");
        for name in memmatrix_benches() {
            assert!(dl_workloads::by_name(name).is_some(), "{name} unknown");
        }
    }

    /// The acceptance demonstration: enabling the stride prefetcher
    /// must demonstrably reorder the delinquency ranking of at least
    /// one matrix workload — the streaming half of its misses is
    /// hidden, so a scatter-dominated site takes over the top of the
    /// list the compiler would target.
    #[test]
    fn prefetcher_shifts_the_delinquency_ranking() {
        let p = Pipeline::new().planned(&[]);
        let cache = CacheConfig::paper_baseline();
        let pf = MemoryConfig {
            prefetch: Some(Prefetch::Stride(2)),
            ..MemoryConfig::default()
        };
        let ranking = |result: &dl_sim::RunResult| -> Vec<usize> {
            let mut sites: Vec<(usize, u64)> = result
                .load_misses
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, m)| m > 0)
                .collect();
            sites.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            sites.into_iter().take(3).map(|(i, _)| i).collect()
        };
        let shifted = memmatrix_benches().into_iter().any(|name| {
            let b = dl_workloads::by_name(name).expect("known benchmark");
            let base = p.run(&b, OptLevel::O0, 1, cache);
            let with_pf = p.run_spec(&RunSpec {
                memory: pf,
                ..base.spec().clone()
            });
            assert!(
                with_pf.result.prefetch_fills > 0,
                "{name}: prefetcher never fired"
            );
            ranking(&base.result) != ranking(&with_pf.result)
        });
        assert!(
            shifted,
            "no matrix workload's top-3 delinquent loads moved under prefetching"
        );
    }

    /// A pipeline prewarmed like `repro --smoke table` on `jobs`
    /// workers: planning `table`, every spec of it with its inputs
    /// clamped small.
    fn smoke_pipeline(table: &str, jobs: usize) -> Pipeline {
        let p = Pipeline::new().planned(&[table]);
        let mut specs = crate::schedule::table_specs(table);
        for spec in &mut specs {
            spec.bench = spec.bench.smoke();
        }
        crate::schedule::prewarm(&p, &specs, jobs);
        p
    }

    /// The runs derived from a memoized run (the site-filtered prefetch
    /// runs, the shadow-LRU runs) take its spec, input included: after
    /// a smoke prewarm, rendering either table leaves every memo entry
    /// on the shrunk input, and adds only the prefetch runs, whose
    /// sites no spec registry can know before the base run.
    #[test]
    fn derived_runs_keep_the_memoized_input() {
        for (table, render, derived) in [
            ("extension-prefetch", extension_prefetch as TableFn, 12),
            ("profile-geometries", profile_geometries, 0),
        ] {
            let p = smoke_pipeline(table, 1);
            let warmed = p.simulations();
            let _ = render(&p);
            let runs = p.ready_runs();
            assert_eq!(runs.len(), warmed + derived, "{table}");
            for run in &runs {
                let spec = run.spec();
                let smoke = dl_workloads::by_name(spec.bench.name)
                    .expect("known benchmark")
                    .smoke();
                assert_eq!(
                    spec.bench.input(spec.input_set),
                    smoke.input(spec.input_set),
                    "{table}: a {} run used the full-size input",
                    spec.bench.name
                );
            }
            let filtered = runs
                .iter()
                .filter(|run| run.spec().prefetch_sites.is_some())
                .count();
            assert_eq!(filtered, derived, "{table}");
        }
    }

    /// A smoke request computes its whole planned execution on the
    /// smoke input: every sibling records the smoke benchmark in its
    /// spec, so `extension-prefetch`, which derives its runs from its
    /// base run's spec, keeps that input too.
    #[test]
    fn smoke_siblings_carry_their_input_into_derived_runs() {
        let p = Pipeline::new();
        let names = ["181.mcf", "183.equake", "179.art", "164.gzip"];
        for name in names {
            let smoke = dl_workloads::by_name(name).expect("known").smoke();
            let _ = p.run(&smoke, OptLevel::O0, 1, CacheConfig::paper_training());
        }
        assert_eq!(p.stats().misses, names.len() as u64);
        let _ = extension_prefetch(&p);
        // The base runs were siblings; the 12 filtered runs took one
        // execution per benchmark.
        assert_eq!(p.stats().misses, 2 * names.len() as u64);
        for run in p.ready_runs() {
            let spec = run.spec();
            let smoke = dl_workloads::by_name(spec.bench.name)
                .expect("known")
                .smoke();
            assert_eq!(spec.bench.input1, smoke.input1, "{spec:?}");
        }
    }

    /// Two fresh pipelines must render byte-identical memmatrix tables:
    /// the random replacement policy is seeded from the run
    /// configuration, never from ambient entropy, so the sweep is
    /// reproducible run to run (and, via the ci.sh gate, across
    /// engines and worker counts).
    #[test]
    fn memmatrix_table_is_deterministic() {
        let render = || {
            let p = smoke_pipeline("extension-memmatrix", 4);
            extension_memmatrix(&p).to_markdown()
        };
        let first = render();
        assert_eq!(first, render());
        assert!(first.contains("plru+l2:64KB-8w-incl+pf2"));
        assert!(first.contains("random"));
    }
}
