//! Wall-clock spans with `/`-separated hierarchical names.
//!
//! A [`Spans`] collector accumulates finished [`SpanRecord`]s; a
//! [`SpanGuard`] times one region and records itself on drop. Nesting
//! is expressed through `/`-separated paths such as `repro/warm/sim`.
//! Guards can be created and dropped on any thread — the collector is
//! behind a mutex that is only taken when a span *finishes*.
//!
//! Every record also carries a *timeline position*: `start_secs` is
//! the span's start offset from the collector's construction instant
//! (its epoch), and `tid` is a small dense id for the recording
//! thread. Together they let [`crate::trace::chrome_trace`] lay the
//! whole run out on a Perfetto-loadable timeline. Thread ids are
//! assigned in first-use order and are therefore *not* deterministic
//! across runs — deterministic outputs (manifests, golden tables)
//! must ignore them.
//!
//! Spans are the only place dl-obs stores wall-clock readings; see the
//! crate docs for why timings are segregated from metric values.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Process-wide source of dense thread ids for span records.
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// A small dense id for the calling thread, assigned on first use.
///
/// Ids are stable for the life of the thread but their *assignment
/// order* depends on scheduling — treat them as display labels, never
/// as deterministic data.
#[must_use]
pub fn current_tid() -> u64 {
    THREAD_TID.with(|t| *t)
}

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// `/`-separated hierarchical name, e.g. `repro/warm/sim`.
    pub path: String,
    /// Wall-clock duration in seconds.
    pub secs: f64,
    /// Start offset in seconds from the collector's epoch.
    pub start_secs: f64,
    /// Dense id of the thread that recorded the span (see
    /// [`current_tid`]; not deterministic across runs).
    pub tid: u64,
}

/// A thread-safe collector of finished spans.
#[derive(Debug)]
pub struct Spans {
    records: Mutex<Vec<SpanRecord>>,
    epoch: Instant,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            records: Mutex::new(Vec::new()),
            epoch: Instant::now(),
        }
    }
}

impl Spans {
    /// The instant all `start_secs` offsets are measured from (the
    /// collector's construction time).
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Starts a root span at `path`.
    #[must_use]
    pub fn enter<'a>(&'a self, path: &str) -> SpanGuard<'a> {
        SpanGuard {
            spans: self,
            path: path.to_owned(),
            start: Instant::now(),
        }
    }

    /// Times `f` under a root span at `path`.
    pub fn time<T>(&self, path: &str, f: impl FnOnce() -> T) -> T {
        let _guard = self.enter(path);
        f()
    }

    /// Records an externally measured duration (for callers that
    /// already hold a wall-clock reading). The span is positioned on
    /// the timeline as if it started `secs` ago.
    ///
    /// # Panics
    ///
    /// Panics if the collector lock is poisoned.
    pub fn record(&self, path: &str, secs: f64) {
        let now_offset = self.epoch.elapsed().as_secs_f64();
        self.push(SpanRecord {
            path: path.to_owned(),
            secs,
            start_secs: (now_offset - secs).max(0.0),
            tid: current_tid(),
        });
    }

    /// Records a span that started at `start` (measured on this
    /// collector's clock) and lasted `secs`.
    ///
    /// # Panics
    ///
    /// Panics if the collector lock is poisoned.
    pub fn record_at(&self, path: &str, start: Instant, secs: f64) {
        let start_secs = start
            .checked_duration_since(self.epoch)
            .map_or(0.0, |d| d.as_secs_f64());
        self.push(SpanRecord {
            path: path.to_owned(),
            secs,
            start_secs,
            tid: current_tid(),
        });
    }

    fn push(&self, record: SpanRecord) {
        self.records.lock().expect("span lock").push(record);
    }

    /// All finished spans, in completion order.
    ///
    /// # Panics
    ///
    /// Panics if the collector lock is poisoned.
    #[must_use]
    pub fn records(&self) -> Vec<SpanRecord> {
        self.records.lock().expect("span lock").clone()
    }
}

/// An in-progress span; records itself into the collector on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    spans: &'a Spans,
    path: String,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let secs = self.start.elapsed().as_secs_f64();
        self.spans.record_at(&self.path, self.start, secs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_on_drop() {
        let spans = Spans::default();
        {
            let _g = spans.enter("root");
        }
        let records = spans.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].path, "root");
        assert!(records[0].secs >= 0.0);
        assert!(records[0].start_secs >= 0.0);
    }

    #[test]
    fn time_returns_closure_value() {
        let spans = Spans::default();
        let v = spans.time("calc", || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(spans.records()[0].path, "calc");
    }

    #[test]
    fn record_at_positions_span_on_timeline() {
        let spans = Spans::default();
        let start = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let secs = start.elapsed().as_secs_f64();
        spans.record_at("timed", start, secs);
        let r = &spans.records()[0];
        assert!(r.start_secs >= 0.0);
        // The span must end no later than "now" on the collector clock.
        assert!(r.start_secs + r.secs <= spans.epoch().elapsed().as_secs_f64() + 1e-6);
    }

    #[test]
    fn start_before_epoch_clamps_to_zero() {
        let early = Instant::now();
        let spans = Spans::default();
        spans.record_at("pre-epoch", early, 0.0);
        assert_eq!(spans.records()[0].start_secs, 0.0);
    }

    #[test]
    fn tid_is_stable_within_a_thread() {
        assert_eq!(current_tid(), current_tid());
        let spans = Spans::default();
        spans.record("a", 0.0);
        spans.record("b", 0.0);
        let records = spans.records();
        assert_eq!(records[0].tid, records[1].tid);
    }
}
