//! Determinism guarantees of the parallel pipeline: a document
//! rendered over a memo table warmed by N workers must be
//! byte-identical to one warmed sequentially, and racing threads on
//! one key must share a single simulation (planned or not).

use std::sync::Arc;

use dl_experiments::document::experiments_doc;
use dl_experiments::pipeline::{BenchRun, Pipeline};
use dl_experiments::schedule::{prewarm, union_specs, RunSpec};
use dl_experiments::tables::{all_tables, TableFn};
use dl_minic::OptLevel;
use dl_sim::CacheConfig;

/// A table subset spanning both input sets and two cache geometries,
/// excluding `extension-prefetch` (whose next-line prefetch runs would
/// dominate the test's runtime).
const SUBSET: &[&str] = &["table1", "table3", "table7"];

/// Shrinks benchmark inputs so the test stays fast; the memo key
/// ignores input *values*, so table generators hit these entries.
fn shrunk_specs(tables: &[&str]) -> Vec<RunSpec> {
    let mut specs = union_specs(tables.iter().copied());
    for spec in &mut specs {
        spec.bench = spec.bench.smoke();
    }
    specs
}

fn subset_tables() -> Vec<(&'static str, TableFn)> {
    all_tables()
        .into_iter()
        .filter(|(name, _)| SUBSET.contains(name))
        .collect()
}

fn render(jobs: usize) -> String {
    let pipeline = Pipeline::new().planned(SUBSET);
    prewarm(&pipeline, &shrunk_specs(SUBSET), jobs);
    experiments_doc(&pipeline, &subset_tables(), |_, _| {})
}

#[test]
fn parallel_prewarm_renders_byte_identical_documents() {
    let sequential = render(1);
    for jobs in [2, 4, 8] {
        let parallel = render(jobs);
        assert_eq!(
            sequential, parallel,
            "document differs between 1 and {jobs} prewarm workers"
        );
    }
}

#[test]
fn hammering_one_key_runs_one_simulation() {
    let pipeline = Pipeline::new().planned(&[]);
    let mut bench = dl_workloads::by_name("197.parser").expect("exists");
    bench.input1 = vec![200, 2];
    let runs: Vec<Arc<BenchRun>> = std::thread::scope(|scope| {
        (0..16)
            .map(|_| {
                let pipeline = &pipeline;
                let bench = &bench;
                scope.spawn(move || {
                    pipeline.run(bench, OptLevel::O0, 1, CacheConfig::paper_baseline())
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("worker joins"))
            .collect()
    });
    assert_eq!(pipeline.simulations(), 1);
    for run in &runs {
        assert!(Arc::ptr_eq(run, &runs[0]));
    }
}
