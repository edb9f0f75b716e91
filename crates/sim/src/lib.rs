//! # dl-sim
//!
//! A functional simulator for the `dl-mips` instruction set with a
//! configurable L1 data-cache model and per-instruction profiling.
//!
//! This crate replaces SimpleScalar's `sim-cache` in the paper's
//! pipeline: it executes a [`dl_mips::Program`], simulates a
//! set-associative LRU data cache, and records — per static
//! instruction — execution counts and (for loads) hit/miss counts.
//! Those measurements are exactly what the training phase (deriving
//! class weights) and the evaluation metrics (π, ρ, ξ, the ideal set,
//! the profiling set) consume.
//!
//! # Example
//!
//! ```
//! use dl_mips::parse::parse_asm;
//! use dl_sim::{run, RunConfig};
//!
//! let p = parse_asm(
//!     "main:\n\
//!      \tli $t0, 100\n\
//!      .Lloop:\n\
//!      \taddiu $t0, $t0, -1\n\
//!      \tbgtz $t0, .Lloop\n\
//!      \tli $v0, 10\n\
//!      \tsyscall\n",
//! ).unwrap();
//! let result = run(&p, &RunConfig::default()).unwrap();
//! assert_eq!(result.exit_code, 0);
//! assert!(result.instructions >= 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod cache;
pub mod cpu;
pub mod mem;
pub mod memory;
pub mod observe;
pub mod reuse;
pub mod stats;
pub mod trace;

pub use block::{BlockStats, Engine};
pub use cache::{Cache, CacheConfig, CacheProfile, MissClass, MissClasses};
pub use cpu::{run, run_full, run_many, run_with_stats, RunConfig, SimOutput, Trap};
pub use memory::{Inclusion, L2Config, MemoryConfig, Policy, Prefetch};
pub use observe::{EpochMisses, MissObservatory, ObserveConfig};
pub use reuse::{ReuseMeasurement, SiteHistogram};
pub use stats::RunResult;
