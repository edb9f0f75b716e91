//! One benchmark run: set-up timing, the timed phase, and its metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::metrics::{per_layer, proc_status_mb, quantile, ratio, END_TO_END};
use crate::trace::{layer_key, layer_self_secs, self_times, Tracer};
use crate::workloads::{Timed, Workload};
use crate::{host, OpTime, Phase};

/// What a run reports.
#[derive(Debug)]
pub struct Report {
    /// Ops checked.
    pub attempted: u64,
    /// Ops that failed their check.
    pub failed: u64,
    /// (name, value, unit), in `BENCHMARK.json` order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// A comment line on how the run measured, for the log.
    pub info: String,
}

/// Times `reps` fresh set-ups, returning each one's time and the
/// last set-up's timed phase.
fn time_setups(w: Workload, seed: u64, passes: usize, reps: usize) -> (Phase, Timed) {
    let mut setups = Phase::default();
    let mut prepared: Option<Timed> = None;
    host::slice();
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let fresh = w.prepare(seed, passes, &Tracer::off());
        setups.time(t.elapsed().as_secs_f64());
        prepared = Some(fresh);
    }
    host::slice();
    (setups, prepared.expect("at least one set-up"))
}

/// An untraced run: the end-to-end metrics.
///
/// The run measures the host's speed beside the program (see
/// [`host`](crate::host)), and every time it reports is the measured
/// time divided by the host factor at that moment: seconds at the
/// calibrated host speed.
///
/// Set-up is short one-time work, so one window of it is too noisy to
/// compare. `setup_s` is therefore the median of `setup_reps` fresh
/// set-ups before the timed phase (the first of them cold) and as many
/// after it. `wall_s` is the sum of the phase's op latencies.
#[must_use]
pub fn end_to_end(w: Workload, seed: u64, seconds: u64) -> Report {
    let passes = w.passes(seconds);
    let ((setups, phase), probe) = host::probed(|| {
        let (mut setups, timed) = time_setups(w, seed, passes, w.setup_reps());
        let phase = timed(&Tracer::off());
        let (after, _) = time_setups(w, seed, passes, w.setup_reps());
        setups.ops.extend(after.ops);
        (setups, phase)
    });
    let normalised = |ops: &[OpTime]| -> Vec<f64> {
        ops.iter()
            .map(|op| op.secs / probe.factor(op.probe_mark))
            .collect()
    };
    let setup_secs = normalised(&setups.ops);
    let op_secs = normalised(&phase.ops);
    let wall_s: f64 = op_secs.iter().sum();
    let info = format!(
        "# host factor {:.4} (median of {} probe slices); measured op time {:.4} s; \
         probe resident {:.1} MB",
        quantile(probe.slices(), 0.5) / host::NOMINAL_SLICE_S,
        probe.slices().len(),
        phase.ops.iter().map(|op| op.secs).sum::<f64>(),
        probe.resident_mb()
    );
    let values = [
        quantile(&setup_secs, 0.5),
        wall_s,
        ratio(phase.insts as f64, wall_s),
        quantile(&op_secs, 0.5) * 1e3,
        quantile(&op_secs, 0.9) * 1e3,
        proc_status_mb("VmHWM") - probe.resident_mb(),
    ];
    Report {
        attempted: phase.attempted,
        failed: phase.failed,
        info,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_owned(), v, unit))
            .collect(),
    }
}

/// A traced run: the timed phase once untraced, then once more with
/// every layer call in a span; the per-layer metrics, with the
/// difference between the two as the tracing overhead. Returns the
/// report and the tracer holding the spans.
#[must_use]
pub fn traced(w: Workload, seed: u64, seconds: u64) -> (Report, Tracer) {
    let passes = w.passes(seconds);
    // Memory is read around the untraced phase, first in the process,
    // so the spans held in memory do not count.
    let timed = w.prepare(seed, passes, &Tracer::off());
    let rss_after_setup = proc_status_mb("VmRSS");
    let untraced = timed(&Tracer::off());
    let rss_after_warm = untraced.counter("rss.after_warm_mb");

    let tracer = Tracer::on();
    let timed = w.prepare(seed, passes, &tracer);
    let mut phase: Phase = tracer.span(|| w.name().to_owned(), || timed(&tracer));
    let spans = tracer.spans().expect("tracer is on");

    let records = spans.records();
    let times = self_times(&records);
    let root = records
        .iter()
        .rposition(|r| r.path == w.name())
        .expect("the phase span was recorded");
    let in_phase: f64 = layer_self_secs(&records, &times, root).values().sum();
    let mut self_secs: BTreeMap<String, f64> = BTreeMap::new();
    for (r, s) in records.iter().zip(&times.self_secs) {
        if let Some(key) = layer_key(&r.path) {
            *self_secs.entry(format!("{key}.s")).or_default() += s;
        }
    }

    phase
        .counters
        .insert("rss.after_setup_mb".to_owned(), rss_after_setup);
    phase
        .counters
        .insert("rss.after_warm_mb".to_owned(), rss_after_warm);
    let useful = phase.counter("mem.prefetch_useful");
    let fills = phase.counter("mem.prefetch_fills");
    phase.add("mem.prefetch_useful_ratio", ratio(useful, fills));
    phase.add("trace.wall_s", phase.wall_s);
    phase.add("trace.overhead_s", phase.wall_s - untraced.wall_s);
    phase.add(
        "trace.attributed_ratio",
        ratio(in_phase, records[root].secs),
    );

    let metrics = per_layer()
        .into_iter()
        .map(|(name, unit, _)| {
            let value = phase
                .counters
                .get(&name)
                .or_else(|| self_secs.get(&name))
                .copied()
                .unwrap_or(0.0);
            (name, value, unit)
        })
        .collect();
    let report = Report {
        attempted: untraced.attempted + phase.attempted,
        failed: untraced.failed + phase.failed,
        metrics,
        info: format!(
            "# untraced phase {:.4} s; traced phase {:.4} s",
            untraced.wall_s, phase.wall_s
        ),
    };
    (report, tracer)
}
