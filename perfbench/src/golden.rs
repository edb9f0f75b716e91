//! Reference outputs the ops are checked against.
//!
//! `golden/exec.txt` holds one `RunResult` digest per execution,
//! produced by the step interpreter (`Engine::Step`), which shares no
//! code with the block engine the benchmark times. `golden/static.txt`
//! holds each program's flagged sets. Both are regenerated with
//! `perfbench golden` (see `README.md`).

use std::collections::HashMap;

use dl_sim::RunResult;

/// The committed execution digests.
pub const EXEC: &str = include_str!("../golden/exec.txt");
/// The committed static flagged sets.
pub const STATIC: &str = include_str!("../golden/static.txt");
/// The committed tables document every `tables` run must reproduce.
pub const EXPERIMENTS_MD: &str = include_str!("../../EXPERIMENTS.md");

/// A golden file: one `key value…` line per op.
#[derive(Debug, Clone, Default)]
pub struct Golden {
    entries: HashMap<String, String>,
    accept_all: bool,
}

impl Golden {
    /// Parses `key value…` lines; blank lines and `#` comments are
    /// skipped.
    #[must_use]
    pub fn parse(text: &str) -> Golden {
        let entries = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| l.split_once(' '))
            .map(|(k, v)| (k.to_owned(), v.to_owned()))
            .collect();
        Golden {
            entries,
            accept_all: false,
        }
    }

    /// A golden that accepts every value: what `perfbench golden`
    /// records from.
    #[must_use]
    pub fn accept_all() -> Golden {
        Golden {
            entries: HashMap::new(),
            accept_all: true,
        }
    }

    /// `Ok(actual)` when `actual` is the recorded value for `key`.
    ///
    /// # Errors
    ///
    /// Names the key and both values on a mismatch or a missing key.
    pub fn expect(&self, key: &str, actual: String) -> Result<String, String> {
        match self.entries.get(key) {
            _ if self.accept_all => Ok(actual),
            Some(want) if *want == actual => Ok(actual),
            Some(want) => Err(format!("{key}: want `{want}`, got `{actual}`")),
            None => Err(format!("{key}: no golden entry")),
        }
    }
}

/// FNV-1a over a sequence of 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The architectural and memory-system digest of one run: what must
/// not change between engines, with observation on or off, or across
/// a speed-only change.
#[must_use]
pub fn run_digest(r: &RunResult) -> String {
    format!(
        "insts={} exit={} output={}:{:016x} dcache_accesses={} dcache_misses={} \
         loads={} stores={} load_misses_total={} load_misses={:016x}",
        r.instructions,
        r.exit_code,
        r.output.len(),
        fnv(r.output.iter().map(|&v| u64::from(v as u32))),
        r.dcache_accesses,
        r.dcache_misses,
        r.loads,
        r.stores,
        r.load_misses_total,
        fnv(r.load_misses.iter().copied()),
    )
}

/// A flagged set as `count:hash`.
#[must_use]
pub fn set_digest(set: &[usize]) -> String {
    format!("{}:{:016x}", set.len(), fnv(set.iter().map(|&i| i as u64)))
}

/// The mismatching sections of a rendered `EXPERIMENTS.md`: each
/// table (`### <id> — …` through the next heading) is one section,
/// named by its id, and the preamble plus the closing summary form a
/// section named `document`.
#[must_use]
pub fn document_mismatches(want: &str, got: &str) -> Vec<String> {
    let want = sections(want);
    let got = sections(got);
    let mut bad: Vec<String> = want
        .iter()
        .filter(|&(name, text)| got.get(name.as_str()) != Some(text))
        .map(|(name, _)| name.clone())
        .collect();
    bad.extend(got.keys().filter(|k| !want.contains_key(*k)).cloned());
    bad.sort();
    bad
}

/// Splits a document into named sections (see [`document_mismatches`]).
#[must_use]
pub fn sections(doc: &str) -> HashMap<String, String> {
    let mut out: HashMap<String, String> = HashMap::new();
    let mut current = "document".to_owned();
    for line in doc.split_inclusive('\n') {
        if let Some(rest) = line.strip_prefix("### ") {
            current = rest.split(' ').next().unwrap_or("").to_owned();
        } else if line.starts_with("---") && !line.starts_with("---|") {
            current = "document".to_owned();
        }
        out.entry(current.clone()).or_default().push_str(line);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_document_splits_into_every_table() {
        let s = sections(EXPERIMENTS_MD);
        assert_eq!(s.len(), 25, "{:?}", s.keys().collect::<Vec<_>>());
        assert!(s["document"].contains("Total distinct simulations"));
        assert!(document_mismatches(EXPERIMENTS_MD, EXPERIMENTS_MD).is_empty());
    }

    #[test]
    fn golden_lookup_reports_mismatch_and_missing() {
        let g = Golden::parse("# comment\na 1 2\nb x\n");
        assert_eq!(g.expect("a", "1 2".into()), Ok("1 2".into()));
        assert!(g.expect("b", "y".into()).is_err());
        assert!(g.expect("c", "x".into()).is_err());
    }
}
