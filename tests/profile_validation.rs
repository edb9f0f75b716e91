//! Validation of the static reuse-profile engine against measured
//! shadow-LRU stack distances on the full 18-workload suite.
//!
//! One static analysis per workload produces per-load reuse-distance
//! histograms; one simulation per workload measures exact per-site
//! LRU stack-distance buckets (the marker-based shadow stack of
//! `dl_sim::reuse`). Pricing both at the same
//! nine cache geometries must agree within a documented tolerance —
//! the whole point of the engine is that the single geometry-free
//! histogram prices every geometry without re-analysis.
//!
//! Tolerance: the static side models *O0 code shapes* with assumed
//! trip counts, class-level novelty fractions, and abstention on
//! irregular accesses, so per-site agreement is approximate. We
//! assert the access-count-weighted mean absolute error between
//! static and shadow-LRU per-site miss ratios (abstained sites
//! excluded from both sides) stays below [`TOLERANCE`] at every
//! geometry, and that the mean of those errors over every
//! (workload, geometry) pair stays below [`SUITE_MEAN`]. Measured
//! values on the shrunk inputs (2026-08): 16 of 18 workloads sit
//! below 0.22 at every geometry; `300.twolf` peaks at 0.42 at 8KB,
//! where its footprint straddles the capacity boundary (the static
//! model prices a re-walk as thrashing that the measured stack just
//! fits) — an inherent knife-edge of interval footprints near
//! capacity, not a bucketing bug. The suite-mean gate is the tight
//! one: a one-bucket-off regression in either histogram moves it far
//! past 0.10.

use delinquent_loads::prelude::*;
use delinquent_loads::workloads::Benchmark;
use dl_analysis::CacheGeometry;
use dl_sim::run_full;

/// Maximum access-count-weighted mean |static − shadow-LRU| per-site
/// miss-ratio error, per workload per geometry.
const TOLERANCE: f64 = 0.45;

/// Maximum mean weighted MAE across all (workload, geometry) pairs.
const SUITE_MEAN: f64 = 0.10;

/// Reduced inputs so the whole suite runs in seconds even unoptimized
/// (mirrors `observatory_differential.rs`).
fn small_inputs(b: &Benchmark) -> Vec<i32> {
    match b.name {
        "008.espresso" => vec![48, 24, 1],
        "022.li" => vec![400, 2, 5],
        "072.sc" => vec![12, 10, 2],
        "099.go" => vec![2, 2, 3],
        "101.tomcatv" => vec![16, 2],
        "124.m88ksim" => vec![2000, 7],
        "126.gcc" => vec![8, 6, 2],
        "129.compress" => vec![2000, 3],
        "132.ijpeg" => vec![3, 2],
        "147.vortex" => vec![128, 2],
        "164.gzip" => vec![2000, 3],
        "175.vpr" => vec![10, 500, 3],
        "179.art" => vec![8, 1000, 3],
        "181.mcf" => vec![64, 128, 2],
        "183.equake" => vec![64, 4, 2],
        "188.ammp" => vec![64, 4, 2],
        "197.parser" => vec![400, 3],
        "300.twolf" => vec![10, 500, 2],
        other => panic!("unknown benchmark {other}"),
    }
}

#[test]
fn static_profiles_track_shadow_lru_on_all_workloads() {
    let mut interprocedural = 0usize;
    let mut maes: Vec<f64> = Vec::new();
    for b in delinquent_loads::workloads::all() {
        let program = b.compile(OptLevel::O0).expect("workload compiles");

        // ONE static analysis: geometry never enters histogram
        // construction, only the pricing below.
        let ctx = AnalysisCtx::new(program.clone());
        let profiles = ctx.reuse_profiles();
        interprocedural += profiles.interprocedural_count();

        // ONE simulation: the shadow LRU stack measures exact reuse
        // distances independent of the simulated cache's geometry.
        let config = RunConfig {
            input: small_inputs(&b),
            max_steps: 200_000_000,
            reuse_profile: true,
            ..RunConfig::default()
        };
        let out = run_full(&program, &config).expect("workload runs clean");
        let measured = out.reuse.expect("reuse measurement collected");

        for kb in [8u64, 16, 64] {
            for assoc in [2u32, 4, 8] {
                let geometry = CacheGeometry::new(kb * 1024, 32, assoc);
                let cap_blocks = kb * 1024 / 32;
                let (mut err, mut den) = (0.0f64, 0u64);
                for pred in profiles.predict(&geometry) {
                    if pred.abstained {
                        continue;
                    }
                    let site = measured.site(pred.index);
                    let n = site.total();
                    if n == 0 {
                        continue;
                    }
                    let m = site.miss_ratio(cap_blocks);
                    err += (pred.miss_ratio - m).abs() * n as f64;
                    den += n;
                }
                if den == 0 {
                    continue;
                }
                // The aggregate static-vs-shadow gap never exceeds
                // this weighted MAE (triangle inequality), so one
                // gate covers both.
                let mae = err / den as f64;
                assert!(
                    mae <= TOLERANCE,
                    "{}: {kb}KB/{assoc}-way weighted per-site MAE {mae:.3} exceeds {TOLERANCE}",
                    b.name
                );
                maes.push(mae);
            }
        }
    }
    let mean = maes.iter().sum::<f64>() / maes.len() as f64;
    assert!(
        mean <= SUITE_MEAN,
        "suite-wide mean weighted MAE {mean:.3} exceeds {SUITE_MEAN}"
    );

    // The interprocedural machinery must earn its keep somewhere in
    // the suite: at least one load only resolves through a callee
    // summary / call-site context.
    assert!(
        interprocedural >= 1,
        "no cross-function load resolved interprocedurally across the suite"
    );
}
