//! The benchmark's own spans, and self time per layer.
//!
//! In a traced run the benchmark records a `dl_obs::Spans` span around
//! every call it makes into a layer. A span's last path segment names
//! its layer and entry point as `<layer>.<what>` (`minic.compile`,
//! `sim.plain`, `render.table11`, …); the segments before it name the
//! op it belongs to. Spans the program already records when asked
//! (`Pipeline::set_trace_spans`, `SpanPassObserver`) are classified by
//! their first segment: `compile/…` is the compiler, `analysis/…/<pass>`
//! one analysis pass, `sim/…` the simulator.
//!
//! All spans come from one thread, so nesting follows from time: a span
//! that starts inside another is its child. A span's self time is its
//! duration minus the time its children cover; a child overrunning its
//! parent (clock jitter at a boundary) is clipped to the parent, so
//! self times never sum past the outermost span.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dl_obs::json::Json;
use dl_obs::{SpanRecord, Spans};

/// The layers spans are attributed to, named after the modules.
pub const LAYERS: [&str; 7] = [
    "minic", "analysis", "predict", "sim", "instr", "pipeline", "render",
];

/// The most spans the exported Chrome trace holds: the first ones
/// recorded. A traced `static` run records a span per analysis pass
/// per function, hundreds of thousands in all, more than a trace
/// viewer loads comfortably.
pub const EXPORT_LIMIT: usize = 50_000;

/// Records spans when on; costs one branch per call when off.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    spans: Option<Arc<Spans>>,
    /// Receives a copy of the first [`EXPORT_LIMIT`] spans on export.
    /// Made before `spans`, so every span starts after its epoch.
    export: Option<Arc<Spans>>,
}

impl Tracer {
    /// A tracer that records nothing.
    #[must_use]
    pub fn off() -> Tracer {
        Tracer::default()
    }

    /// A tracer recording into a fresh collector.
    #[must_use]
    pub fn on() -> Tracer {
        let export = Some(Arc::new(Spans::default()));
        Tracer {
            spans: Some(Arc::new(Spans::default())),
            export,
        }
    }

    /// The collector, when tracing.
    #[must_use]
    pub fn spans(&self) -> Option<&Arc<Spans>> {
        self.spans.as_ref()
    }

    /// Runs `f` inside a span named by `path` (built only when on).
    pub fn span<T>(&self, path: impl FnOnce() -> String, f: impl FnOnce() -> T) -> T {
        match &self.spans {
            None => f(),
            Some(spans) => {
                let start = Instant::now();
                let out = f();
                spans.record_at(&path(), start, start.elapsed().as_secs_f64());
                out
            }
        }
    }

    /// Records a span that ended now and lasted `secs`.
    pub fn record(&self, path: impl FnOnce() -> String, secs: f64) {
        if let Some(spans) = &self.spans {
            spans.record(&path(), secs);
        }
    }
}

/// The `<layer>.<what>` key a span's time is attributed to, if any.
#[must_use]
pub fn layer_key(path: &str) -> Option<String> {
    let leaf = path.rsplit('/').next()?;
    match path.split('/').next()? {
        "compile" => return Some("minic.compile".to_owned()),
        "sim" => return Some("sim.pipeline".to_owned()),
        "analysis" => return Some(format!("analysis.{leaf}")),
        _ => {}
    }
    let (layer, _) = leaf.split_once('.')?;
    LAYERS.contains(&layer).then(|| leaf.to_owned())
}

/// Self time and parent of every span, indexed like `records`.
#[derive(Debug, Clone, Default)]
pub struct SelfTimes {
    /// Index of each span's parent (`None` for a root).
    pub parent: Vec<Option<usize>>,
    /// Each span's duration minus its children's, after clipping.
    pub self_secs: Vec<f64>,
}

/// Nests `records` by time and computes self times.
#[must_use]
pub fn self_times(records: &[SpanRecord]) -> SelfTimes {
    let n = records.len();
    let mut idx: Vec<usize> = (0..n).collect();
    // Parents sort before their children: earlier start first, and on
    // a tie the longer span first.
    idx.sort_by(|&a, &b| {
        let (ra, rb) = (&records[a], &records[b]);
        ra.start_secs
            .total_cmp(&rb.start_secs)
            .then(rb.secs.total_cmp(&ra.secs))
    });
    let mut parent = vec![None; n];
    let mut end = vec![0.0f64; n];
    let mut self_secs = vec![0.0f64; n];
    let mut stack: Vec<usize> = Vec::new();
    for &i in &idx {
        let start = records[i].start_secs;
        while stack.last().is_some_and(|&top| end[top] <= start) {
            stack.pop();
        }
        let mut stop = start + records[i].secs.max(0.0);
        if let Some(&top) = stack.last() {
            stop = stop.min(end[top]);
            parent[i] = Some(top);
            self_secs[top] -= stop - start;
        }
        end[i] = stop;
        self_secs[i] += stop - start;
        stack.push(i);
    }
    SelfTimes { parent, self_secs }
}

/// Self time summed per layer key, over the spans inside the span at
/// `root` (itself excluded).
#[must_use]
pub fn layer_self_secs(
    records: &[SpanRecord],
    times: &SelfTimes,
    root: usize,
) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        if i == root || !descends_from(times, i, root) {
            continue;
        }
        if let Some(key) = layer_key(&r.path) {
            *out.entry(key).or_insert(0.0) += times.self_secs[i];
        }
    }
    out
}

fn descends_from(times: &SelfTimes, mut i: usize, root: usize) -> bool {
    while let Some(p) = times.parent[i] {
        if p == root {
            return true;
        }
        i = p;
    }
    false
}

impl Tracer {
    /// The Chrome trace-event document of the first [`EXPORT_LIMIT`]
    /// spans (Perfetto loads it), each event carrying its parent's
    /// name and its self time in `args`. `None` when not tracing.
    #[must_use]
    pub fn chrome_trace(&self) -> Option<Json> {
        let (spans, export) = (self.spans.as_ref()?, self.export.as_ref()?);
        let records = spans.records();
        let times = self_times(&records);
        for r in records.iter().take(EXPORT_LIMIT) {
            let start = spans.epoch() + Duration::from_secs_f64(r.start_secs);
            export.record_at(&r.path, start, r.secs);
        }
        let mut doc = dl_obs::chrome_trace(export);
        if let Some(Json::Arr(events)) = doc.get("traceEvents").cloned() {
            let events = events
                .into_iter()
                .enumerate()
                .map(|(i, mut event)| {
                    let parent = times.parent[i].map_or("", |p| records[p].path.as_str());
                    event.set(
                        "args",
                        Json::obj()
                            .with("parent", parent.into())
                            .with("self_us", Json::F64(times.self_secs[i] * 1e6)),
                    );
                    event
                })
                .collect();
            doc.set("traceEvents", Json::Arr(events));
        }
        Some(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(path: &str, start: f64, secs: f64) -> SpanRecord {
        SpanRecord {
            path: path.to_owned(),
            secs,
            start_secs: start,
            tid: 0,
        }
    }

    #[test]
    fn nested_spans_subtract_children() {
        let records = vec![
            rec("exec/0/sim.plain", 1.0, 2.0),
            rec("exec", 0.0, 10.0),
            rec("exec/1/sim.plain", 4.0, 3.0),
        ];
        let t = self_times(&records);
        assert_eq!(t.parent, vec![Some(1), None, Some(1)]);
        assert!((t.self_secs[1] - 5.0).abs() < 1e-9);
        let layers = layer_self_secs(&records, &t, 1);
        assert!((layers["sim.plain"] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn overrunning_child_is_clipped_to_its_parent() {
        let records = vec![
            rec("root", 0.0, 4.0),
            rec("root/render.table1", 1.0, 2.0),
            // Starts inside table1 but ends after it.
            rec("analysis/x/O0/loops", 2.5, 1.0),
        ];
        let t = self_times(&records);
        assert_eq!(t.parent[2], Some(1));
        let total: f64 = t.self_secs.iter().sum();
        assert!((total - 4.0).abs() < 1e-9, "{total}");
        assert!(t.self_secs.iter().all(|&s| s >= -1e-12));
    }

    #[test]
    fn keys_follow_layer_and_program_span_names() {
        assert_eq!(
            layer_key("static/3/predict.okn").as_deref(),
            Some("predict.okn")
        );
        assert_eq!(
            layer_key("analysis/181.mcf/O0/cfg").as_deref(),
            Some("analysis.cfg")
        );
        assert_eq!(
            layer_key("compile/181.mcf/O0").as_deref(),
            Some("minic.compile")
        );
        assert_eq!(
            layer_key("sim/181.mcf/O0/in1/8KB").as_deref(),
            Some("sim.pipeline")
        );
        assert_eq!(layer_key("exec/4:181.mcf"), None);
    }
}
