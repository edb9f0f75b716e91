//! The run manifest: a structured, machine-readable record of one
//! pipeline run (`RUN_MANIFEST.json`) plus its human text rendering.
//!
//! A manifest is an ordered JSON object with a fixed `schema` tag.
//! Wall-clock readings only ever appear under keys containing `sec`
//! (`secs`, `busy_secs`, `insts_per_sec`, …), so
//! [`Manifest::zero_timings`] can strip every nondeterministic byte;
//! golden tests assert the zeroed rendering is stable.

use crate::json::Json;
use crate::span::Spans;

/// Schema tag written into every manifest.
pub const SCHEMA: &str = "dl-obs/1";

/// Builder for `RUN_MANIFEST.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    root: Json,
}

impl Manifest {
    /// Creates a manifest for the named command (`repro`, …).
    #[must_use]
    pub fn new(command: &str) -> Self {
        Manifest {
            root: Json::obj()
                .with("schema", SCHEMA.into())
                .with("command", command.into()),
        }
    }

    /// Sets a top-level section.
    #[must_use]
    pub fn with(mut self, key: &str, value: Json) -> Self {
        self.root.set(key, value);
        self
    }

    /// Sets a top-level section in place.
    pub fn set(&mut self, key: &str, value: Json) {
        self.root.set(key, value);
    }

    /// Reads a top-level section.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.root.get(key)
    }

    /// Adds a `stages` section from finished spans: one entry per
    /// span, in completion order, as
    /// `{ "name": path, "secs": f, "start_secs": f }`. Thread ids are
    /// deliberately omitted — their assignment order is scheduling-
    /// dependent and would break deterministic byte-compares.
    #[must_use]
    pub fn with_stages(self, spans: &Spans) -> Self {
        // Spans complete in whatever order worker threads finish, so
        // the raw record order is nondeterministic under --jobs > 1.
        // Sort by path (then start time for repeated paths) so the
        // stage list — and the zeroed manifest built from it — is
        // byte-stable across schedules.
        let mut records = spans.records();
        records.sort_by(|a, b| {
            a.path
                .cmp(&b.path)
                .then_with(|| a.start_secs.total_cmp(&b.start_secs))
        });
        let stages = records
            .into_iter()
            .map(|r| {
                Json::obj()
                    .with("name", r.path.into())
                    .with("secs", r.secs.into())
                    .with("start_secs", r.start_secs.into())
            })
            .collect();
        self.with("stages", Json::Arr(stages))
    }

    /// Zeroes every number stored under a timing key — one containing
    /// `sec` or ending in `_us`/`_ms`/`_ns` — i.e. every
    /// wall-clock-derived value, leaving deterministic values
    /// untouched. Integer timestamps (e.g. trace-event `ts`/`dur`
    /// microseconds) are zeroed too, not just floats. Used by golden
    /// tests to pin the manifest *structure* without pinning timings.
    pub fn zero_timings(&mut self) {
        zero_timings_in(&mut self.root, false);
    }

    /// Renders the manifest as pretty-printed JSON.
    #[must_use]
    pub fn render(&self) -> String {
        self.root.render()
    }

    /// The underlying JSON value.
    #[must_use]
    pub fn json(&self) -> &Json {
        &self.root
    }
}

/// Whether values under `key` are wall-clock-derived and must be
/// zeroed for deterministic comparison.
fn is_timing_key(key: &str) -> bool {
    key.contains("sec") || key.ends_with("_us") || key.ends_with("_ms") || key.ends_with("_ns")
}

fn zero_timings_in(value: &mut Json, under_timing_key: bool) {
    match value {
        Json::F64(v) if under_timing_key => *v = 0.0,
        Json::U64(v) if under_timing_key => *v = 0,
        Json::I64(v) if under_timing_key => *v = 0,
        Json::Arr(items) => {
            for item in items {
                zero_timings_in(item, under_timing_key);
            }
        }
        Json::Obj(pairs) => {
            for (k, v) in pairs {
                zero_timings_in(v, is_timing_key(k));
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_and_command_are_first() {
        let m = Manifest::new("repro");
        let text = m.render();
        assert!(text.starts_with("{\n  \"schema\": \"dl-obs/1\",\n  \"command\": \"repro\""));
    }

    #[test]
    fn zero_timings_only_touches_sec_keys() {
        let mut m = Manifest::new("x")
            .with("hit_rate", Json::F64(0.75))
            .with("warm_secs", Json::F64(1.25))
            .with(
                "sim",
                Json::obj()
                    .with("insts_per_sec", Json::F64(1e6))
                    .with("instructions", Json::U64(5)),
            );
        m.zero_timings();
        assert_eq!(m.get("hit_rate"), Some(&Json::F64(0.75)));
        assert_eq!(m.get("warm_secs"), Some(&Json::F64(0.0)));
        let sim = m.get("sim").unwrap();
        assert_eq!(sim.get("insts_per_sec"), Some(&Json::F64(0.0)));
        assert_eq!(sim.get("instructions"), Some(&Json::U64(5)));
    }

    #[test]
    fn zero_timings_covers_integer_timestamps_and_unit_suffixes() {
        let mut m = Manifest::new("x")
            .with("ts_us", Json::U64(123_456))
            .with("skew_ns", Json::I64(-40))
            .with("lat_ms", Json::F64(1.5))
            .with("bucket_us", Json::Arr(vec![Json::U64(3), Json::U64(9)]))
            .with("focus", Json::U64(7)) // "us" not a suffix match
            .with("instructions", Json::U64(5));
        m.zero_timings();
        assert_eq!(m.get("ts_us"), Some(&Json::U64(0)));
        assert_eq!(m.get("skew_ns"), Some(&Json::I64(0)));
        assert_eq!(m.get("lat_ms"), Some(&Json::F64(0.0)));
        assert_eq!(
            m.get("bucket_us"),
            Some(&Json::Arr(vec![Json::U64(0), Json::U64(0)]))
        );
        assert_eq!(m.get("focus"), Some(&Json::U64(7)));
        assert_eq!(m.get("instructions"), Some(&Json::U64(5)));
    }

    #[test]
    fn zeroed_stage_timeline_is_deterministic() {
        let spans = Spans::default();
        spans.record("warm", 0.25);
        let mut m = Manifest::new("repro").with_stages(&spans);
        m.zero_timings();
        let Some(Json::Arr(stages)) = m.get("stages") else {
            panic!("stages missing");
        };
        assert_eq!(stages[0].get("secs"), Some(&Json::F64(0.0)));
        assert_eq!(stages[0].get("start_secs"), Some(&Json::F64(0.0)));
    }

    #[test]
    fn stages_come_from_spans() {
        let spans = Spans::default();
        spans.record("warm", 1.0);
        spans.record("tables/table3", 2.0);
        let m = Manifest::new("repro").with_stages(&spans);
        let Some(Json::Arr(stages)) = m.get("stages") else {
            panic!("stages missing");
        };
        assert_eq!(stages.len(), 2);
        // Stages are sorted by path, not completion order, so the
        // list is deterministic under any worker schedule.
        assert_eq!(
            stages[0].get("name"),
            Some(&Json::Str("tables/table3".into()))
        );
        assert_eq!(stages[0].get("secs"), Some(&Json::F64(2.0)));
        assert_eq!(stages[1].get("name"), Some(&Json::Str("warm".into())));

        // Recording the same spans in the opposite order renders the
        // identical stage list.
        let reversed = Spans::default();
        reversed.record("tables/table3", 2.0);
        reversed.record("warm", 1.0);
        let m2 = Manifest::new("repro").with_stages(&reversed);
        assert_eq!(m.get("stages"), m2.get("stages"));
    }
}
