//! Pipeline observability glue: assembles the `RUN_MANIFEST.json`
//! manifest and the human `--profile` report from a [`Pipeline`]'s
//! counters, a prewarm report, and the run's spans.
//!
//! The manifest is the machine-readable contract consumed by `ci.sh`
//! (which fails if mandatory keys go missing) and by future perf PRs
//! comparing before/after runs; the text report is the same data
//! formatted to answer "where did the time go?" at a glance.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dl_analysis::reuse::REUSE_DELTA;
use dl_analysis::{AddressClass, CacheGeometry, PassObserver};
use dl_obs::metrics::Histogram;
use dl_obs::span::Spans;
use dl_obs::{Json, Manifest};

use crate::pipeline::Pipeline;
use crate::schedule::PrewarmReport;

/// How many of the slowest configurations the manifest lists.
const SLOWEST: usize = 8;

/// Bridges the pass manager's [`PassObserver`] hook onto a run's
/// [`Spans`] timeline: every analysis pass that is actually *computed*
/// (cache misses only — hits are free and silent) lands as a span named
/// `<prefix>/<pass>`, positioned by its real start instant so it nests
/// correctly under the enclosing `compile/…` span in the exported
/// trace.
#[derive(Debug)]
pub struct SpanPassObserver {
    spans: Arc<Spans>,
    prefix: String,
}

impl SpanPassObserver {
    /// Records passes under `<prefix>/<pass>` on `spans`.
    #[must_use]
    pub fn new(spans: Arc<Spans>, prefix: String) -> Self {
        SpanPassObserver { spans, prefix }
    }
}

impl PassObserver for SpanPassObserver {
    fn pass_computed(&self, pass: &'static str, start: Instant, duration: Duration) {
        self.spans.record_at(
            &format!("{}/{pass}", self.prefix),
            start,
            duration.as_secs_f64(),
        );
    }
}

/// Top-level inputs that identify one observed run.
#[derive(Debug, Clone, Default)]
pub struct RunInfo {
    /// Binary name (`repro`, …).
    pub command: String,
    /// Worker count used for prewarming.
    pub jobs: usize,
    /// Whether inputs were shrunk to smoke-test size.
    pub smoke: bool,
    /// The table targets this run generated.
    pub tables: Vec<String>,
}

/// Builds the full run manifest. Mandatory sections (checked by
/// `ci.sh`): `stages` (per-stage wall times), `memo` (hit/miss/wait
/// counters and `hit_rate`), `workers` (per-worker simulation counts),
/// `sim` (including `insts_per_sec`), `miss_classes`, `memory`
/// (per-level hit/miss counters and prefetcher effectiveness summed
/// over every completed run), `reuse` (static reuse-analysis load
/// counts against the paper-baseline geometry), and `analysis`
/// (pass-manager cache counters: one analyzed context per
/// `(bench, opt)` pair, per-pass hits/misses and compute seconds).
#[must_use]
pub fn run_manifest(
    info: &RunInfo,
    pipeline: &Pipeline,
    prewarm: Option<&PrewarmReport>,
    spans: &Spans,
) -> Manifest {
    let stats = pipeline.stats();
    let timings = pipeline.config_timings();

    let memo = Json::obj()
        .with("hits", stats.hits.into())
        .with("misses", stats.misses.into())
        .with("waits", stats.waits.into())
        .with("hit_rate", stats.hit_rate().into())
        .with("compile_hits", stats.compile_hits.into())
        .with("compile_misses", stats.compile_misses.into());

    let workers = prewarm.map_or_else(Vec::new, |report| {
        report
            .workers
            .iter()
            .map(|w| {
                Json::obj()
                    .with("worker", w.worker.into())
                    .with("specs", w.specs.into())
                    .with("busy_secs", w.busy_secs.into())
            })
            .collect()
    });

    let total_sim_secs: f64 = timings.iter().map(|t| t.sim_secs).sum();
    let total_compile_secs: f64 = timings.iter().map(|t| t.compile_secs).sum();
    // Histogram of per-configuration instruction counts: deterministic
    // values (timings stay in `secs` fields only).
    let insts_hist = Histogram::default();
    for t in &timings {
        insts_hist.record(t.instructions);
    }
    let buckets = insts_hist
        .nonzero_buckets()
        .into_iter()
        .map(|(i, n)| Json::obj().with("bucket", i.into()).with("count", n.into()))
        .collect();
    // Per-configuration simulation latency percentiles. The histogram
    // buckets microseconds in log2 bins, so quantiles interpolate to
    // bucket midpoints — coarse but stable. Every key contains `sec`,
    // so `zero_timings` strips the section for golden comparisons.
    let lat_hist = Histogram::default();
    for t in &timings {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        lat_hist.record((t.sim_secs.max(0.0) * 1e6).round() as u64);
    }
    #[allow(clippy::cast_precision_loss)]
    let pct = |q: f64| lat_hist.quantile(q).map_or(0.0, |us| us as f64 / 1e6);
    let latency = Json::obj()
        .with("p50_secs", pct(0.50).into())
        .with("p90_secs", pct(0.90).into())
        .with("p99_secs", pct(0.99).into());
    let block_cache = Json::obj()
        .with("blocks_decoded", stats.block.blocks_decoded.into())
        .with("insts_decoded", stats.block.insts_decoded.into())
        .with("mean_block_len", stats.block.mean_block_len().into())
        .with("dispatches", stats.block.dispatches.into())
        .with("dispatch_hits", stats.block.dispatch_hits.into())
        .with("insts_retired", stats.block.insts_retired.into());
    let sim = Json::obj()
        .with("configurations", timings.len().into())
        .with("engine", pipeline.engine().name().into())
        .with("instructions", stats.sim_instructions.into())
        .with("total_sim_secs", total_sim_secs.into())
        .with("total_compile_secs", total_compile_secs.into())
        .with(
            "insts_per_sec",
            if total_sim_secs > 0.0 {
                (stats.sim_instructions as f64 / total_sim_secs).into()
            } else {
                Json::F64(0.0)
            },
        )
        .with("latency", latency)
        .with("block_cache", block_cache)
        .with("instructions_log2_histogram", Json::Arr(buckets));

    // Aggregate the miss-class breakdown over every completed run.
    let mut classes = dl_sim::MissClasses::default();
    let mut classified_runs = 0u64;
    for run in pipeline.ready_runs() {
        if let Some(profile) = &run.result.cache_profile {
            classes.compulsory += profile.classes.compulsory;
            classes.capacity += profile.classes.capacity;
            classes.conflict += profile.classes.conflict;
            classified_runs += 1;
        }
    }
    let miss_classes = Json::obj()
        .with("classified_runs", classified_runs.into())
        .with("compulsory", classes.compulsory.into())
        .with("capacity", classes.capacity.into())
        .with("conflict", classes.conflict.into())
        .with("total", classes.total().into());

    // Memory-system summary: per-level hit/miss counters and
    // prefetcher effectiveness summed over every completed run, plus
    // how many simulated configurations used a non-default memory
    // system. Pure counter sums — order-independent and deterministic
    // under any worker schedule.
    let mut l2_hits = 0u64;
    let mut l2_misses = 0u64;
    let mut prefetch_fills = 0u64;
    let mut prefetch_useful = 0u64;
    for run in pipeline.ready_runs() {
        l2_hits += run.result.l2_hits;
        l2_misses += run.result.l2_misses;
        prefetch_fills += run.result.prefetch_fills;
        prefetch_useful += run.result.prefetch_useful;
    }
    let non_default = timings.iter().filter(|t| !t.memory.is_default()).count();
    let memory = Json::obj()
        .with("non_default_configs", non_default.into())
        .with("l2_hits", l2_hits.into())
        .with("l2_misses", l2_misses.into())
        .with("prefetch_fills", prefetch_fills.into())
        .with("prefetch_useful", prefetch_useful.into());

    // Static reuse-analysis summary over every completed run, always
    // against the paper-baseline geometry so the numbers are
    // comparable across runs regardless of which caches were
    // simulated. Pure counts over sets — order-independent, so the
    // section is deterministic under any worker schedule.
    let baseline = dl_sim::CacheConfig::paper_baseline();
    let geometry = CacheGeometry::new(
        u64::from(baseline.size_bytes()),
        u64::from(baseline.block_bytes()),
        baseline.assoc(),
    );
    let mut reuse_runs = 0u64;
    let mut loads = 0u64;
    let mut in_loop = 0u64;
    let mut exact_trips = 0u64;
    let mut flagged = 0u64;
    let mut by_class = [0u64; 4]; // invariant, strided, pointer-chase, irregular
    for run in pipeline.ready_runs() {
        reuse_runs += 1;
        for p in run.ctx().reuse_predictions(&geometry) {
            loads += 1;
            if p.loop_depth > 0 {
                in_loop += 1;
                if p.trip_exact {
                    exact_trips += 1;
                }
            }
            if p.miss_ratio >= REUSE_DELTA {
                flagged += 1;
            }
            let slot = match p.class {
                AddressClass::Invariant => 0,
                AddressClass::Strided(_) => 1,
                AddressClass::PointerChase => 2,
                AddressClass::Irregular => 3,
            };
            by_class[slot] += 1;
        }
    }
    let reuse = Json::obj()
        .with("runs", reuse_runs.into())
        .with(
            "geometry",
            format!(
                "{}B/{}-way/{}B-line",
                geometry.capacity, geometry.assoc, geometry.line
            )
            .into(),
        )
        .with("loads", loads.into())
        .with("in_loop", in_loop.into())
        .with("exact_trips", exact_trips.into())
        .with("invariant", by_class[0].into())
        .with("strided", by_class[1].into())
        .with("pointer_chase", by_class[2].into())
        .with("irregular", by_class[3].into())
        .with("flagged", flagged.into());

    // Static reuse-profile summary (the interprocedural histogram
    // pass) against the same baseline geometry. Counts over cached
    // per-ctx artifacts — order-independent and deterministic.
    let mut profile_runs = 0u64;
    let mut profile_loads = 0u64;
    let mut modeled = 0u64;
    let mut abstained = 0u64;
    let mut interprocedural = 0u64;
    let mut profile_flagged = 0u64;
    for run in pipeline.ready_runs() {
        profile_runs += 1;
        let profiles = run.ctx().reuse_profiles();
        for p in profiles.predict(&geometry) {
            profile_loads += 1;
            if p.abstained {
                abstained += 1;
            } else {
                modeled += 1;
            }
            if p.interprocedural {
                interprocedural += 1;
            }
            if p.in_loop && !p.abstained && p.miss_ratio >= REUSE_DELTA {
                profile_flagged += 1;
            }
        }
    }
    let profile_section = Json::obj()
        .with("runs", profile_runs.into())
        .with(
            "geometry",
            format!(
                "{}B/{}-way/{}B-line",
                geometry.capacity, geometry.assoc, geometry.line
            )
            .into(),
        )
        .with("loads", profile_loads.into())
        .with("modeled", modeled.into())
        .with("abstained", abstained.into())
        .with("interprocedural", interprocedural.into())
        .with("flagged", profile_flagged.into());

    // Pass-manager cache counters: how much analysis the run actually
    // computed vs. how much the ctx cache absorbed. Timing lives in
    // `*_secs` keys only, so the zeroed manifest stays deterministic.
    let ctx_stats = pipeline.analysis_stats();
    let passes = ctx_stats
        .passes()
        .into_iter()
        .map(|(name, p)| {
            Json::obj()
                .with("pass", name.into())
                .with("hits", p.hits.into())
                .with("misses", p.misses.into())
                .with("compute_secs", p.secs.into())
        })
        .collect();
    let analysis = Json::obj()
        .with("contexts", pipeline.analysis_contexts().into())
        .with("hits", ctx_stats.hits().into())
        .with("misses", ctx_stats.misses().into())
        .with("hit_rate", ctx_stats.hit_rate().into())
        .with("total_compute_secs", ctx_stats.total_secs().into())
        .with("passes", Json::Arr(passes));

    // Ranked by instruction count, not measured seconds: instructions
    // are the deterministic proxy for simulation cost, so the zeroed
    // manifest (timings stripped) is byte-stable across runs.
    let mut slowest: Vec<_> = timings.iter().collect();
    slowest.sort_by(|a, b| {
        b.instructions
            .cmp(&a.instructions)
            .then_with(|| a.label().cmp(&b.label()))
    });
    let slowest = slowest
        .into_iter()
        .take(SLOWEST)
        .map(|t| {
            Json::obj()
                .with("config", t.label().into())
                .with("sim_secs", t.sim_secs.into())
                .with("compile_secs", t.compile_secs.into())
                .with("instructions", t.instructions.into())
        })
        .collect();

    let mut manifest = Manifest::new(&info.command)
        .with("smoke", info.smoke.into())
        .with("jobs", info.jobs.into())
        .with(
            "tables",
            Json::Arr(info.tables.iter().map(|t| t.as_str().into()).collect()),
        )
        .with_stages(spans)
        .with("memo", memo)
        .with("workers", Json::Arr(workers))
        .with("sim", sim)
        .with("miss_classes", miss_classes)
        .with("memory", memory)
        .with("reuse", reuse)
        .with("profile", profile_section)
        .with("analysis", analysis)
        .with("slowest", Json::Arr(slowest));
    if let Some(report) = prewarm {
        manifest.set(
            "prewarm",
            Json::obj()
                .with("processed", report.processed.into())
                .with("wall_secs", report.wall_secs.into())
                .with("imbalance", report.imbalance().into()),
        );
    }
    manifest
}

fn f(value: Option<&Json>) -> f64 {
    match value {
        Some(Json::F64(v)) => *v,
        Some(Json::U64(v)) => *v as f64,
        _ => 0.0,
    }
}

fn u(value: Option<&Json>) -> u64 {
    match value {
        Some(Json::U64(v)) => *v,
        _ => 0,
    }
}

fn s(value: Option<&Json>) -> String {
    match value {
        Some(Json::Str(v)) => v.clone(),
        _ => String::new(),
    }
}

/// Renders a manifest as the human `--profile` report: the same data,
/// formatted to answer where the time went.
#[must_use]
pub fn profile_text(manifest: &Manifest) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} profile (jobs: {}) ==",
        s(manifest.get("command")),
        u(manifest.get("jobs")),
    );
    if let Some(Json::Arr(stages)) = manifest.get("stages") {
        out.push_str("stages:\n");
        for stage in stages {
            let _ = writeln!(
                out,
                "  {:<40} {:>8.3}s",
                s(stage.get("name")),
                f(stage.get("secs"))
            );
        }
    }
    if let Some(memo) = manifest.get("memo") {
        let _ = writeln!(
            out,
            "memo: {} hits / {} misses ({:.1}% hit rate), {} in-flight waits",
            u(memo.get("hits")),
            u(memo.get("misses")),
            100.0 * f(memo.get("hit_rate")),
            u(memo.get("waits")),
        );
        let _ = writeln!(
            out,
            "compile cache: {} hits / {} compiles",
            u(memo.get("compile_hits")),
            u(memo.get("compile_misses")),
        );
    }
    if let Some(Json::Arr(workers)) = manifest.get("workers") {
        if !workers.is_empty() {
            out.push_str("workers:\n");
            for w in workers {
                let _ = writeln!(
                    out,
                    "  #{:<3} {:>5} specs  {:>8.3}s busy",
                    u(w.get("worker")),
                    u(w.get("specs")),
                    f(w.get("busy_secs")),
                );
            }
        }
    }
    if let Some(prewarm) = manifest.get("prewarm") {
        let _ = writeln!(
            out,
            "prewarm: {} specs in {:.3}s wall, imbalance {:.2}x",
            u(prewarm.get("processed")),
            f(prewarm.get("wall_secs")),
            f(prewarm.get("imbalance")),
        );
    }
    if let Some(sim) = manifest.get("sim") {
        let _ = writeln!(
            out,
            "sim: {} configurations, {} insts in {:.3}s sim + {:.3}s compile ({:.1}M insts/s)",
            u(sim.get("configurations")),
            u(sim.get("instructions")),
            f(sim.get("total_sim_secs")),
            f(sim.get("total_compile_secs")),
            f(sim.get("insts_per_sec")) / 1e6,
        );
        if let Some(latency) = sim.get("latency") {
            let _ = writeln!(
                out,
                "sim latency per config: p50 {:.3}s / p90 {:.3}s / p99 {:.3}s",
                f(latency.get("p50_secs")),
                f(latency.get("p90_secs")),
                f(latency.get("p99_secs")),
            );
        }
    }
    if let Some(mc) = manifest.get("miss_classes") {
        let total = u(mc.get("total"));
        if total > 0 {
            let pct = |k: &str| 100.0 * u(mc.get(k)) as f64 / total as f64;
            let _ = writeln!(
                out,
                "miss classes: {:.1}% compulsory / {:.1}% capacity / {:.1}% conflict \
                 ({total} classified misses over {} runs)",
                pct("compulsory"),
                pct("capacity"),
                pct("conflict"),
                u(mc.get("classified_runs")),
            );
        } else {
            out.push_str("miss classes: (classification off — rerun with --profile/--manifest)\n");
        }
    }
    if let Some(memory) = manifest.get("memory") {
        let _ = writeln!(
            out,
            "memory: {} non-default configs — L2 {} hits / {} misses; \
             prefetch {} fills, {} useful",
            u(memory.get("non_default_configs")),
            u(memory.get("l2_hits")),
            u(memory.get("l2_misses")),
            u(memory.get("prefetch_fills")),
            u(memory.get("prefetch_useful")),
        );
    }
    if let Some(reuse) = manifest.get("reuse") {
        let _ = writeln!(
            out,
            "reuse: {} loads over {} runs ({} in-loop, {} with exact trips) — \
             {} strided / {} pointer-chase / {} invariant / {} irregular, \
             {} flagged at {} ({})",
            u(reuse.get("loads")),
            u(reuse.get("runs")),
            u(reuse.get("in_loop")),
            u(reuse.get("exact_trips")),
            u(reuse.get("strided")),
            u(reuse.get("pointer_chase")),
            u(reuse.get("invariant")),
            u(reuse.get("irregular")),
            u(reuse.get("flagged")),
            REUSE_DELTA,
            s(reuse.get("geometry")),
        );
    }
    if let Some(profile) = manifest.get("profile") {
        let _ = writeln!(
            out,
            "profile: {} loads over {} runs — {} modeled / {} abstained, \
             {} interprocedural, {} flagged at {} ({})",
            u(profile.get("loads")),
            u(profile.get("runs")),
            u(profile.get("modeled")),
            u(profile.get("abstained")),
            u(profile.get("interprocedural")),
            u(profile.get("flagged")),
            REUSE_DELTA,
            s(profile.get("geometry")),
        );
    }
    if let Some(analysis) = manifest.get("analysis") {
        let _ = writeln!(
            out,
            "analysis: {} contexts, {} hits / {} misses ({:.1}% hit rate), {:.3}s compute",
            u(analysis.get("contexts")),
            u(analysis.get("hits")),
            u(analysis.get("misses")),
            100.0 * f(analysis.get("hit_rate")),
            f(analysis.get("total_compute_secs")),
        );
        if let Some(Json::Arr(passes)) = analysis.get("passes") {
            for p in passes {
                let _ = writeln!(
                    out,
                    "  {:<10} {:>6} hits {:>6} misses {:>8.3}s",
                    s(p.get("pass")),
                    u(p.get("hits")),
                    u(p.get("misses")),
                    f(p.get("compute_secs")),
                );
            }
        }
    }
    if let Some(Json::Arr(slowest)) = manifest.get("slowest") {
        if !slowest.is_empty() {
            out.push_str("slowest configurations:\n");
            for t in slowest {
                let _ = writeln!(
                    out,
                    "  {:<48} {:>8.3}s sim  {:>7.3}s compile  {:>12} insts",
                    s(t.get("config")),
                    f(t.get("sim_secs")),
                    f(t.get("compile_secs")),
                    u(t.get("instructions")),
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{prewarm_with_stats, table_specs};
    use dl_obs::manifest::SCHEMA;

    fn shrunk_table3() -> Vec<crate::schedule::RunSpec> {
        let mut specs = table_specs("table3");
        for spec in &mut specs {
            for v in spec
                .bench
                .input1
                .iter_mut()
                .chain(spec.bench.input2.iter_mut())
            {
                *v = (*v).clamp(1, 64);
            }
        }
        specs
    }

    #[test]
    fn manifest_has_mandatory_sections() {
        let pipeline = Pipeline::new();
        pipeline.set_classify_misses(true);
        let spans = Spans::default();
        let report = spans.time("warm", || {
            prewarm_with_stats(&pipeline, &shrunk_table3(), 2)
        });
        let info = RunInfo {
            command: "repro".into(),
            jobs: 2,
            smoke: true,
            tables: vec!["table3".into()],
        };
        let manifest = run_manifest(&info, &pipeline, Some(&report), &spans);
        assert_eq!(manifest.get("schema"), Some(&Json::Str(SCHEMA.into())));
        for key in [
            "stages",
            "memo",
            "workers",
            "sim",
            "miss_classes",
            "memory",
            "reuse",
            "profile",
            "analysis",
            "slowest",
            "prewarm",
        ] {
            assert!(manifest.get(key).is_some(), "manifest missing `{key}`");
        }
        let memo = manifest.get("memo").unwrap();
        assert_eq!(u(memo.get("misses")), report.processed as u64);
        let mc = manifest.get("miss_classes").unwrap();
        assert!(u(mc.get("total")) > 0, "classification produced no misses");
        let memory = manifest.get("memory").unwrap();
        for key in [
            "non_default_configs",
            "l2_hits",
            "l2_misses",
            "prefetch_fills",
            "prefetch_useful",
        ] {
            assert!(memory.get(key).is_some(), "memory missing `{key}`");
        }
        let sim = manifest.get("sim").unwrap();
        assert!(f(sim.get("insts_per_sec")) > 0.0);
        assert!(
            matches!(sim.get("engine"), Some(Json::Str(s)) if s == "step" || s == "block"),
            "sim section missing engine name"
        );
        let latency = sim.get("latency").expect("sim missing latency");
        for key in ["p50_secs", "p90_secs", "p99_secs"] {
            assert!(latency.get(key).is_some(), "latency missing `{key}`");
        }
        assert!(
            f(latency.get("p50_secs")) <= f(latency.get("p99_secs")),
            "latency percentiles not monotone"
        );
        let bc = sim.get("block_cache").expect("sim missing block_cache");
        for key in [
            "blocks_decoded",
            "insts_decoded",
            "mean_block_len",
            "dispatches",
            "dispatch_hits",
            "insts_retired",
        ] {
            assert!(bc.get(key).is_some(), "block_cache missing `{key}`");
        }
        if pipeline.engine() == dl_sim::Engine::Block {
            assert!(u(bc.get("dispatches")) > 0, "block engine never dispatched");
        }

        // The text report renders every section.
        let text = profile_text(&manifest);
        let reuse = manifest.get("reuse").unwrap();
        assert!(u(reuse.get("loads")) > 0, "reuse section saw no loads");
        for needle in [
            "stages:",
            "memo:",
            "workers:",
            "sim:",
            "miss classes:",
            "memory:",
            "reuse:",
            "profile:",
            "analysis:",
        ] {
            assert!(text.contains(needle), "profile text missing `{needle}`");
        }

        // The profile section models loads and counts are coherent.
        let profile = manifest.get("profile").unwrap();
        assert!(u(profile.get("loads")) > 0, "profile section saw no loads");
        assert_eq!(
            u(profile.get("modeled")) + u(profile.get("abstained")),
            u(profile.get("loads")),
            "modeled + abstained must partition the loads"
        );

        // The pass manager analyzed each program exactly once: table3
        // runs the training set at one opt level and one cache.
        let contexts = dl_workloads::training_set().len() as u64;
        let analysis = manifest.get("analysis").unwrap();
        assert_eq!(u(analysis.get("contexts")), contexts);
        let Some(Json::Arr(passes)) = analysis.get("passes") else {
            panic!("analysis section missing `passes`");
        };
        assert_eq!(passes.len(), 9);
        let patterns = passes
            .iter()
            .find(|p| s(p.get("pass")) == "patterns")
            .unwrap();
        assert_eq!(
            u(patterns.get("misses")),
            contexts,
            "each program's patterns computed exactly once"
        );
        assert!(
            u(analysis.get("hits")) > 0,
            "shared ctx produced no cache hits"
        );
    }

    #[test]
    fn zeroed_manifest_is_deterministic() {
        let build = || {
            let pipeline = Pipeline::new();
            let spans = Spans::default();
            let report = spans.time("warm", || {
                prewarm_with_stats(&pipeline, &shrunk_table3(), 1)
            });
            let info = RunInfo {
                command: "repro".into(),
                jobs: 1,
                smoke: true,
                tables: vec!["table3".into()],
            };
            let mut m = run_manifest(&info, &pipeline, Some(&report), &spans);
            m.zero_timings();
            m.render()
        };
        assert_eq!(build(), build());
    }
}
