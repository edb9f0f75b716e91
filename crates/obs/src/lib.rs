//! # dl-obs
//!
//! Zero-dependency observability for the delinquent-loads pipeline:
//! wall-clock [`span`]s, a lock-free log2-bucket [`metrics::Histogram`],
//! a minimal [`json`] value model, and a [`manifest`] builder that
//! renders both the machine-readable `RUN_MANIFEST.json` and a human
//! `--profile` text report.
//!
//! Design rule: **timings are segregated**. Wall-clock readings live
//! only in span records and in manifest fields whose key contains
//! `sec`, so [`manifest::Manifest::zero_timings`] can strip every
//! nondeterministic byte and golden tests can assert the full
//! manifest structure.
//!
//! # Example
//!
//! ```
//! use dl_obs::metrics::Histogram;
//! use dl_obs::span::Spans;
//!
//! let spans = Spans::default();
//! let insts = Histogram::default();
//! let total = spans.time("repro/warm", || {
//!     insts.record(1000);
//!     insts.record(3000);
//!     insts.sum()
//! });
//! assert_eq!(total, 4000);
//! assert_eq!(insts.count(), 2);
//! assert_eq!(spans.records()[0].path, "repro/warm");
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod manifest;
pub mod metrics;
pub mod span;
pub mod trace;

pub use json::Json;
pub use manifest::Manifest;
pub use metrics::Histogram;
pub use span::{current_tid, SpanGuard, SpanRecord, Spans};
pub use trace::chrome_trace;
