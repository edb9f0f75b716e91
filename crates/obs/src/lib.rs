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

/// Output mode selected by the `DL_OBS` environment variable.
///
/// * `off` (or unset / unrecognized) — no observability output.
/// * `text` — a human-readable profile report on stderr.
/// * `json` — a `RUN_MANIFEST.json` written next to the other outputs.
///
/// Explicit CLI flags (`--profile`, `--manifest`) override the
/// environment in the binaries that support them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsMode {
    /// No observability output (the default).
    #[default]
    Off,
    /// Human-readable text report on stderr.
    Text,
    /// Machine-readable JSON manifest.
    Json,
}

impl ObsMode {
    /// Parses a `DL_OBS` value. Unrecognized values fall back to `Off`.
    #[must_use]
    pub fn parse(value: &str) -> Self {
        match value.trim().to_ascii_lowercase().as_str() {
            "text" | "1" | "on" => ObsMode::Text,
            "json" => ObsMode::Json,
            _ => ObsMode::Off,
        }
    }

    /// Reads the mode from the `DL_OBS` environment variable.
    #[must_use]
    pub fn from_env() -> Self {
        std::env::var("DL_OBS").map_or(ObsMode::Off, |v| ObsMode::parse(&v))
    }

    /// Whether any observability output is enabled.
    #[must_use]
    pub fn enabled(self) -> bool {
        self != ObsMode::Off
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing() {
        assert_eq!(ObsMode::parse("off"), ObsMode::Off);
        assert_eq!(ObsMode::parse(""), ObsMode::Off);
        assert_eq!(ObsMode::parse("bogus"), ObsMode::Off);
        assert_eq!(ObsMode::parse("text"), ObsMode::Text);
        assert_eq!(ObsMode::parse("TEXT"), ObsMode::Text);
        assert_eq!(ObsMode::parse("json"), ObsMode::Json);
        assert!(ObsMode::Json.enabled());
        assert!(!ObsMode::Off.enabled());
    }
}
