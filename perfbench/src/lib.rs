//! The repository benchmark: four single-threaded, closed-loop
//! workloads that call each layer of the delinquent-loads
//! reproduction through its public entry points, check every output,
//! and report end-to-end metrics (untraced) or per-layer metrics (a
//! separate traced run). `README.md` beside this crate lists every
//! metric and why each workload exists.

pub mod golden;
pub mod host;
pub mod measure;
pub mod metrics;
pub mod order;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;

/// What one timed phase of a workload did.
#[derive(Debug, Default)]
pub struct Phase {
    /// Checked operations (simulations, compiles, rendered tables).
    pub attempted: u64,
    /// Operations that trapped, panicked, or disagreed with their
    /// reference output.
    pub failed: u64,
    /// Wall time of the whole phase, checks included (and, when a
    /// host probe runs, its slices: end-to-end metrics use `ops`).
    pub wall_s: f64,
    /// Every op's latency, in the order run.
    pub ops: Vec<OpTime>,
    /// Instructions behind `insts_per_s`: simulated instructions, or
    /// on `static` the instructions compiled and analyzed.
    pub insts: u64,
    /// Counters the layers expose (per-layer metric name → value).
    pub counters: BTreeMap<String, f64>,
    /// Each op's checked output, keyed by op name, so tests can
    /// compare runs. Repeated ops overwrite their own entry.
    pub outputs: BTreeMap<String, String>,
}

impl Phase {
    /// Records one op's check: `Ok(output)` passes, `Err(why)` fails
    /// and is reported on stderr.
    pub fn check(&mut self, op: &str, outcome: Result<String, String>) {
        self.attempted += 1;
        match outcome {
            Ok(output) => {
                self.outputs.insert(op.to_owned(), output);
            }
            Err(why) => {
                self.failed += 1;
                eprintln!("perfbench: op {op} failed: {why}");
            }
        }
    }

    /// Records an op that just took `secs`. Between ops is where the
    /// host probe runs, when one is (see [`host`]).
    pub fn time(&mut self, secs: f64) {
        let probe_mark = host::tick();
        self.ops.push(OpTime { secs, probe_mark });
    }

    /// Counter `name`, or 0 when nothing was added to it.
    #[must_use]
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Adds `value` to counter `name`.
    pub fn add(&mut self, name: &str, value: f64) {
        *self.counters.entry(name.to_owned()).or_default() += value;
    }
}

/// One op's latency, and where it fell among the host probe's slices.
#[derive(Debug, Clone, Copy)]
pub struct OpTime {
    /// Wall time of the op.
    pub secs: f64,
    /// The host probe's slices run before the op (see
    /// [`host::Probe::factor`]).
    pub probe_mark: usize,
}

/// Runs `f`, turning a panic into an error naming it, so one broken
/// op counts as failed instead of ending the run.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(outcome) => outcome,
        Err(payload) => Err(match payload.downcast_ref::<&str>() {
            Some(msg) => format!("panic: {msg}"),
            None => match payload.downcast_ref::<String>() {
                Some(msg) => format!("panic: {msg}"),
                None => "panic".to_owned(),
            },
        }),
    }
}
