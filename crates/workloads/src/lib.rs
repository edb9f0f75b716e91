//! # dl-workloads
//!
//! Eighteen synthetic benchmarks written in MiniC, one per SPEC program
//! used in the paper's evaluation. Each is engineered to exhibit the
//! documented memory-behaviour class of its SPEC counterpart —
//! pointer-chasing for `181.mcf` and `022.li`, stencil streaming for
//! `101.tomcatv`, hash-table compression for `129.compress`/`164.gzip`,
//! struct-heavy object traversal for `147.vortex`, sparse gathers for
//! `183.equake`, and so on — scaled to run in a few million simulated
//! instructions instead of SPEC's 10⁸–10¹².
//!
//! The paper trains its heuristic on eleven benchmarks and holds out
//! seven (`022.li`, `072.sc`, `101.tomcatv`, `124.m88ksim`, `126.gcc`,
//! `132.ijpeg`, `300.twolf`) as a generalization test (its Table 10);
//! [`Benchmark::training`] carries that split. Each benchmark has two
//! input sets (Table 6): programs read their parameters with the
//! `read()` intrinsic.
//!
//! # Example
//!
//! ```
//! use dl_workloads::{by_name, training_set, test_set};
//!
//! assert_eq!(training_set().len(), 11);
//! assert_eq!(test_set().len(), 7);
//! let mcf = by_name("181.mcf").unwrap();
//! assert!(mcf.training);
//! assert!(!mcf.input1.is_empty());
//! ```

#![warn(missing_docs)]

use dl_minic::{compile, CompileError, OptLevel};

/// The cold library source linked into every benchmark.
const COLD_LIB: &str = include_str!("../programs/_coldlib.mc");
use dl_mips::program::Program;

/// One synthetic benchmark: MiniC source plus its two input sets.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// SPEC-style name (e.g. `"181.mcf"`).
    pub name: &'static str,
    /// What the synthetic program models.
    pub description: &'static str,
    /// MiniC source text.
    pub source: &'static str,
    /// "Input 1" — the training/reference input (paper Table 6).
    pub input1: Vec<i32>,
    /// "Input 2" — the alternative input used in the stability test.
    pub input2: Vec<i32>,
    /// `true` for the eleven training benchmarks.
    pub training: bool,
}

impl Benchmark {
    /// Compiles the benchmark at the given optimization level.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] — which for the bundled benchmarks
    /// indicates a bug, covered by tests.
    pub fn compile(&self, opt: OptLevel) -> Result<Program, CompileError> {
        compile(&self.full_source(), opt)
    }

    /// The complete translation unit: two renamed copies of the cold
    /// library (see `programs/_coldlib.mc`), the `cold_boot` wrapper
    /// every program calls once, and the benchmark source itself.
    #[must_use]
    pub fn full_source(&self) -> String {
        let mut s = String::with_capacity(COLD_LIB.len() * 2 + self.source.len() + 128);
        s.push_str(COLD_LIB);
        s.push_str(&COLD_LIB.replace("cold_", "coldx_"));
        s.push_str("int cold_boot(int s) { return cold_entry(s) + coldx_entry(s + 3); }\n");
        s.push_str(self.source);
        s
    }

    /// The input vector for input set 1 or 2.
    ///
    /// # Panics
    ///
    /// Panics if `which` is not 1 or 2.
    #[must_use]
    pub fn input(&self, which: u8) -> &[i32] {
        match which {
            1 => &self.input1,
            2 => &self.input2,
            _ => panic!("input set must be 1 or 2"),
        }
    }

    /// A copy with both input sets clamped to `[1, 64]`: the shrunk
    /// workload `repro --smoke` and the fast tests simulate.
    #[must_use]
    pub fn smoke(&self) -> Benchmark {
        let mut b = self.clone();
        for v in b.input1.iter_mut().chain(b.input2.iter_mut()) {
            *v = (*v).clamp(1, 64);
        }
        b
    }
}

macro_rules! bench {
    ($name:literal, $file:literal, $desc:literal, $training:literal,
     in1: [$($i1:expr),* $(,)?], in2: [$($i2:expr),* $(,)?]) => {
        Benchmark {
            name: $name,
            description: $desc,
            source: include_str!(concat!("../programs/", $file)),
            input1: vec![$($i1),*],
            input2: vec![$($i2),*],
            training: $training,
        }
    };
}

/// All eighteen benchmarks, in the paper's Table 1 order.
#[must_use]
pub fn all() -> Vec<Benchmark> {
    vec![
        bench!("008.espresso", "espresso.mc",
               "boolean minimization: cube tables, bitwise set operations",
               true, in1: [1024, 24, 1], in2: [640, 32, 2]),
        bench!("022.li", "li.mc",
               "lisp interpreter: cons-cell lists, shuffled pointer chasing",
               false, in1: [12000, 18, 5], in2: [9000, 12, 9]),
        bench!("072.sc", "sc.mc",
               "spreadsheet: cell grid with dependency recomputation",
               false, in1: [72, 60, 6], in2: [56, 44, 8]),
        bench!("099.go", "go.mc",
               "game playing: board scans, pattern lookup tables",
               true, in1: [40, 9, 3], in2: [60, 11, 5]),
        bench!("101.tomcatv", "tomcatv.mc",
               "mesh generation: 2-D stencil sweeps over large arrays",
               false, in1: [110, 8], in2: [90, 6]),
        bench!("124.m88ksim", "m88ksim.mc",
               "CPU simulator: fetch/decode/execute over a code image",
               false, in1: [40000, 7], in2: [28000, 11]),
        bench!("126.gcc", "gcc.mc",
               "compiler: IR lists, symbol hashing, per-function passes",
               false, in1: [160, 28, 4], in2: [120, 20, 7]),
        bench!("129.compress", "compress.mc",
               "LZW compression: large hash table, scattered probes",
               true, in1: [60000, 4], in2: [40000, 5]),
        bench!("132.ijpeg", "ijpeg.mc",
               "image codec: blocked 2-D transforms with quantization",
               false, in1: [40, 6], in2: [28, 8]),
        bench!("147.vortex", "vortex.mc",
               "object database: wide structs, indexed object tables",
               true, in1: [2600, 9], in2: [1800, 12]),
        bench!("164.gzip", "gzip.mc",
               "LZ77 compression: sliding window, hash chains",
               true, in1: [50000, 5], in2: [36000, 7]),
        bench!("175.vpr", "vpr.mc",
               "FPGA placement: grid arrays, random swap annealing",
               true, in1: [52, 26000, 3], in2: [40, 18000, 6]),
        bench!("179.art", "art.mc",
               "neural network: streaming weight-matrix products",
               true, in1: [56, 9000, 10], in2: [44, 7000, 12]),
        bench!("181.mcf", "mcf.mc",
               "network simplex: node/arc structs, pointer walking",
               true, in1: [2800, 5600, 6], in2: [2000, 4000, 9]),
        bench!("183.equake", "equake.mc",
               "earthquake FEM: sparse matrix-vector gathers",
               true, in1: [2400, 14, 8], in2: [1800, 10, 11]),
        bench!("188.ammp", "ammp.mc",
               "molecular dynamics: atom structs, neighbor gathers",
               true, in1: [1900, 8, 7], in2: [1400, 6, 10]),
        bench!("197.parser", "parser.mc",
               "link parser: dictionary hashing, chained lookups",
               true, in1: [9000, 11], in2: [6500, 13]),
        bench!("300.twolf", "twolf.mc",
               "standard-cell placement: grid + net structs, annealing",
               false, in1: [44, 20000, 4], in2: [36, 14000, 8]),
    ]
}

/// The three extension benchmarks added for the memory-system matrix
/// (DESIGN.md "Memory-system matrix"): access-pattern families the
/// paper's SPEC-derived eighteen under-represent, chosen so the policy
/// × hierarchy × prefetch sweep actually discriminates. Not part of
/// the paper's training/test split ([`all`] stays at eighteen).
#[must_use]
pub fn extension_benchmarks() -> Vec<Benchmark> {
    vec![
        bench!("ext.btree", "btree.mc",
               "B-tree point lookups: per-node key scans, scattered descents",
               false, in1: [24000, 4000, 3], in2: [15000, 2600, 5]),
        bench!("ext.hashjoin", "hashjoin.mc",
               "hash join: streaming probes into chained buckets",
               false, in1: [4000, 6000, 3], in2: [2800, 4200, 5]),
        bench!("ext.bfs", "bfs.mc",
               "graph BFS over CSR: edge-slice streams, visited gathers",
               false, in1: [3000, 8, 4], in2: [2200, 6, 6]),
    ]
}

/// The full suite: the paper's eighteen plus the extension
/// benchmarks — what the differential and matrix sweeps iterate.
#[must_use]
pub fn all_with_extensions() -> Vec<Benchmark> {
    let mut v = all();
    v.extend(extension_benchmarks());
    v
}

/// The eleven training benchmarks (paper §8.2).
#[must_use]
pub fn training_set() -> Vec<Benchmark> {
    all().into_iter().filter(|b| b.training).collect()
}

/// The seven held-out benchmarks (paper Table 10).
#[must_use]
pub fn test_set() -> Vec<Benchmark> {
    all().into_iter().filter(|b| !b.training).collect()
}

/// Looks up a benchmark by name, extension benchmarks included.
#[must_use]
pub fn by_name(name: &str) -> Option<Benchmark> {
    all_with_extensions().into_iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_eleven_seven() {
        assert_eq!(all().len(), 18);
        assert_eq!(training_set().len(), 11);
        assert_eq!(test_set().len(), 7);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = all_with_extensions().iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 21);
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("181.mcf").is_some());
        assert!(by_name("ext.bfs").is_some());
        assert!(by_name("999.nope").is_none());
    }

    #[test]
    fn extensions_ride_outside_the_paper_split() {
        assert_eq!(extension_benchmarks().len(), 3);
        assert_eq!(all_with_extensions().len(), 21);
        for b in extension_benchmarks() {
            assert!(b.name.starts_with("ext."), "{}", b.name);
            assert!(!b.training, "{} must stay out of training", b.name);
            assert!(all().iter().all(|p| p.name != b.name));
        }
    }

    #[test]
    fn every_benchmark_compiles_at_both_levels() {
        for b in all_with_extensions() {
            for opt in [OptLevel::O0, OptLevel::O1] {
                b.compile(opt)
                    .unwrap_or_else(|e| panic!("{} fails at {opt}: {e}", b.name));
            }
        }
    }

    #[test]
    fn inputs_are_distinct() {
        for b in all_with_extensions() {
            assert_ne!(b.input1, b.input2, "{} inputs identical", b.name);
        }
    }

    #[test]
    #[should_panic(expected = "input set")]
    fn bad_input_selector_panics() {
        let b = by_name("181.mcf").unwrap();
        let _ = b.input(3);
    }
}
