//! Metric names, units, and the helpers that compute them.
//!
//! The names here are the ones `BENCHMARK.json` declares; `run.py`
//! refuses a result whose names or units differ from it.

/// End-to-end metrics, reported by every untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("insts_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The 24 tables `tables` renders, in registry order.
pub const TABLES: [&str; 24] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "table10",
    "table11",
    "table12",
    "table13",
    "table14",
    "ablation-classes",
    "ablation-patterns",
    "extension-static-frequency",
    "extension-prefetch",
    "extension-reuse",
    "extension-profile",
    "extension-memmatrix",
    "profile-geometries",
    "ablation-profile-fidelity",
    "ablation-delta-tuning",
];

/// The analysis passes, as `CtxStats::passes` names them.
pub const PASSES: [&str; 9] = [
    "cfg",
    "dom",
    "reaching",
    "patterns",
    "loops",
    "indvar",
    "freq",
    "callgraph",
    "profile",
];

/// The predictors `static` runs, by metric name.
pub const PREDICTORS: [&str; 7] = [
    "heuristic",
    "okn",
    "bdh",
    "reuse",
    "profile",
    "hybrid-and",
    "hybrid-or",
];

/// Per-layer metrics, reported by every traced run: (name, unit,
/// better). A layer a workload does not reach reports 0.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut v: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut push = |name: String, unit: &'static str, better: &'static str| {
        v.push((name, unit, better));
    };
    push("minic.compile.s".into(), "s", "lower");
    push("minic.programs".into(), "count", "lower");
    push("minic.insts_emitted".into(), "count", "lower");
    for pass in PASSES {
        push(format!("analysis.{pass}.s"), "s", "lower");
    }
    push("analysis.computed".into(), "count", "lower");
    push("analysis.hit_rate".into(), "ratio", "higher");
    for p in PREDICTORS {
        push(format!("predict.{p}.s"), "s", "lower");
        push(format!("predict.{p}.flagged"), "count", "lower");
    }
    push("sim.plain.s".into(), "s", "lower");
    push("sim.plain.insts_per_s".into(), "1/s", "higher");
    push("block.blocks_decoded".into(), "count", "lower");
    push("block.dispatches".into(), "count", "lower");
    push("block.dispatch_hit_ratio".into(), "ratio", "higher");
    push("block.mean_block_len".into(), "insts", "higher");
    push("sim.l2.s".into(), "s", "lower");
    push("sim.policy.s".into(), "s", "lower");
    push("sim.stride_pf.s".into(), "s", "lower");
    push("mem.dcache_accesses".into(), "count", "lower");
    push("mem.dcache_misses".into(), "count", "lower");
    push("mem.l2_misses".into(), "count", "lower");
    push("mem.prefetch_fills".into(), "count", "lower");
    push("mem.prefetch_useful_ratio".into(), "ratio", "higher");
    push("sim.observed.s".into(), "s", "lower");
    push("sim.observed.insts_per_s".into(), "1/s", "higher");
    push("instr.classified_misses".into(), "count", "lower");
    push("instr.epochs".into(), "count", "lower");
    push("pipeline.simulations".into(), "count", "lower");
    push("pipeline.executions".into(), "count", "lower");
    push("pipeline.sim_insts".into(), "count", "lower");
    push("pipeline.exec_insts".into(), "count", "lower");
    push("pipeline.reexec_ratio".into(), "ratio", "lower");
    push("pipeline.memo_hits".into(), "count", "higher");
    push("pipeline.memo_misses".into(), "count", "lower");
    push("pipeline.compile_misses".into(), "count", "lower");
    push("pipeline.compile.s".into(), "s", "lower");
    push("pipeline.sim.s".into(), "s", "lower");
    push("pipeline.warm.s".into(), "s", "lower");
    for t in TABLES {
        push(format!("render.{t}.s"), "s", "lower");
    }
    push("render.s".into(), "s", "lower");
    push("render.new_simulations".into(), "count", "lower");
    push("rss.after_setup_mb".into(), "MB", "lower");
    push("rss.after_warm_mb".into(), "MB", "lower");
    push("trace.wall_s".into(), "s", "lower");
    push("trace.overhead_s".into(), "s", "lower");
    push("trace.attributed_ratio".into(), "ratio", "higher");
    v
}

/// The `q`-quantile of `values` by linear interpolation between the
/// closest ranks (0 for no values).
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// A `/proc/self/status` field (`VmHWM`, `VmRSS`) in MB, or 0 where
/// the kernel does not report it.
#[must_use]
pub fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed`, and each metric's value (all its digits) and unit.
#[must_use]
pub fn result_line(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert!((quantile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn per_layer_names_are_unique_and_valid() {
        let names = per_layer();
        let mut seen = std::collections::HashSet::new();
        for (name, _, _) in &names {
            assert!(seen.insert(name.clone()), "{name} twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert_eq!(names.len(), 88);
    }

    #[test]
    fn result_line_is_json_with_full_precision() {
        let line = result_line(3, 0, &[("wall_s".into(), 1.0 / 3.0, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 0.3333333333333333, \"unit\": \"s\"}}}"
        );
    }
}
