//! Observability must never perturb results: the experiment tables a
//! pipeline renders with miss classification (the `--profile` /
//! `--manifest` collection path) or span tracing (`--trace-out`)
//! enabled are byte-identical to an unobserved run. Instrumentation
//! only *labels or times* work the simulator already does — it must
//! not change what hits or misses, and none of its output flows into
//! the tables. The per-site miss observatory (`dlc top`) is held to
//! the same rule by `tests/observatory_differential.rs`.

use std::sync::Arc;

use dl_experiments::document::experiments_doc;
use dl_experiments::pipeline::Pipeline;
use dl_experiments::schedule::{prewarm, union_specs, RunSpec};
use dl_experiments::tables::{all_tables, TableFn};
use dl_obs::Spans;
use dl_sim::Engine;

const SUBSET: &[&str] = &["table3", "table7"];

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

/// Which instrumentation the pipeline runs under, one axis at a time.
#[derive(Debug, Clone, Copy)]
enum Instrument {
    Off,
    Classify,
    Trace,
}

fn render_instrumented(mode: Instrument, engine: Engine) -> String {
    let pipeline =
        Pipeline::with_config(engine, matches!(mode, Instrument::Classify)).planned(SUBSET);
    if matches!(mode, Instrument::Trace) {
        pipeline.set_trace_spans(Arc::new(Spans::default()));
    }
    prewarm(&pipeline, &shrunk_specs(SUBSET), 2);
    experiments_doc(&pipeline, &subset_tables(), |_, _| {})
}

fn render_with(classify: bool, engine: Engine) -> String {
    let mode = if classify {
        Instrument::Classify
    } else {
        Instrument::Off
    };
    render_instrumented(mode, engine)
}

fn render(classify: bool) -> String {
    render_with(classify, Engine::default())
}

#[test]
fn observed_tables_are_byte_identical_to_unobserved() {
    let off = render(false);
    let on = render(true);
    assert_eq!(
        off, on,
        "enabling miss classification changed rendered experiment tables"
    );
}

/// The zero-overhead guarantee holds under *both* simulator cores, and
/// the cores agree with each other: classification makes every model
/// replay the full access stream, so this also pins the stripped
/// stream the plain models replay and the full one to identical table
/// output.
#[test]
fn observed_tables_identical_across_engines() {
    let step_off = render_with(false, Engine::Step);
    let step_on = render_with(true, Engine::Step);
    let block_off = render_with(false, Engine::Block);
    let block_on = render_with(true, Engine::Block);
    assert_eq!(
        block_off, block_on,
        "classification changed tables under the block engine"
    );
    assert_eq!(
        step_off, block_off,
        "step and block engines render different tables"
    );
    assert_eq!(
        step_on, block_on,
        "step and block engines diverge under classification"
    );
}

/// The 4-way instrumentation matrix: both engines × {all off, tracing
/// on} render byte-identical tables. Tracing records wall-clock spans
/// off to the side — it may not change a single table byte.
#[test]
fn tracing_leaves_tables_byte_identical() {
    let baseline = render_instrumented(Instrument::Off, Engine::Step);
    for engine in [Engine::Step, Engine::Block] {
        for mode in [Instrument::Off, Instrument::Trace] {
            assert_eq!(
                baseline,
                render_instrumented(mode, engine),
                "{mode:?} under {engine:?} changed rendered experiment tables"
            );
        }
    }
}

/// The memory-system matrix table is covered by the zero-overhead
/// guarantee too: rendering `extension-memmatrix` — whose runs span
/// every replacement policy, both L2 inclusion modes, and the stride
/// prefetcher — with classification enabled under the block engine
/// must be byte-identical to an unclassified step-engine render.
#[test]
fn memmatrix_table_is_immune_to_instrumentation() {
    let memmatrix: Vec<(&str, TableFn)> = all_tables()
        .into_iter()
        .filter(|(name, _)| *name == "extension-memmatrix")
        .collect();
    assert_eq!(memmatrix.len(), 1, "extension-memmatrix is registered");
    let render = |classify: bool, engine: Engine| {
        let pipeline = Pipeline::with_config(engine, classify).planned(&["extension-memmatrix"]);
        prewarm(&pipeline, &shrunk_specs(&["extension-memmatrix"]), 2);
        experiments_doc(&pipeline, &memmatrix, |_, _| {})
    };
    let baseline = render(false, Engine::Step);
    assert!(
        baseline.contains("plru") && baseline.contains("random"),
        "memmatrix table missing non-default policies"
    );
    assert_eq!(
        baseline,
        render(true, Engine::Block),
        "classification under the block engine changed the memmatrix table"
    );
}

#[test]
fn classification_attaches_profiles_without_extra_simulations() {
    let pipeline = Pipeline::with_config(Engine::default(), true).planned(SUBSET);
    let specs = shrunk_specs(SUBSET);
    prewarm(&pipeline, &specs, 2);
    assert_eq!(pipeline.simulations(), specs.len());
    for run in pipeline.ready_runs() {
        let profile = run
            .result
            .cache_profile
            .as_ref()
            .expect("classified run carries a cache profile");
        assert_eq!(
            profile.classes.total(),
            profile.set_misses.iter().sum::<u64>(),
            "every set miss is classified"
        );
        run.result
            .check_consistency()
            .expect("observed run stays self-consistent");
    }
}
