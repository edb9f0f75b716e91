//! The OKN method (Ozawa, Kimura & Nishizaki, MICRO-28 1995).
//!
//! Three simple classes — pointer-dereferencing loads, strided loads,
//! and everything else — with the first two reported as possibly
//! delinquent. The paper reports this reaches ~92% coverage but flags
//! 30–60% of all static loads.

use dl_analysis::extract::{LoadInfo, ProgramAnalysis};
use dl_analysis::pattern::Ap;

/// The OKN classification of one load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OknClass {
    /// The address computation dereferences memory (pointer use).
    PointerDeref,
    /// The address advances by a constant stride per loop iteration.
    Strided,
    /// Neither.
    Other,
}

impl OknClass {
    /// Whether the OKN method flags this class as possibly delinquent.
    #[must_use]
    pub fn is_delinquent(self) -> bool {
        !matches!(self, OknClass::Other)
    }
}

impl std::fmt::Display for OknClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OknClass::PointerDeref => "pointer",
            OknClass::Strided => "strided",
            OknClass::Other => "other",
        })
    }
}

/// Classifies one load: pointer dereference wins over strided when
/// both apply (the pointer class is the stronger signal in the OKN
/// scheme).
#[must_use]
pub fn okn_classify(load: &LoadInfo) -> OknClass {
    if load.patterns.iter().any(|p| p.deref_nesting() >= 1) {
        OknClass::PointerDeref
    } else if load.patterns.iter().any(|p| p.stride().is_some()) {
        OknClass::Strided
    } else {
        OknClass::Other
    }
}

/// The OKN possibly-delinquent set: indices of loads classified as
/// pointer-dereferencing or strided, in program order.
///
/// # Example
///
/// ```
/// use dl_mips::parse::parse_asm;
/// use dl_analysis::extract::{analyze_program, AnalysisConfig};
/// use dl_baselines::okn_delinquent_set;
///
/// let p = parse_asm(
///     "main:\n\
///      \tlw $t0, 16($sp)\n\
///      \tlw $t1, 0($t0)\n\
///      \tjr $ra\n",
/// ).unwrap();
/// let a = analyze_program(&p, &AnalysisConfig::default());
/// // Only the second load dereferences a pointer.
/// assert_eq!(okn_delinquent_set(&a), vec![1]);
/// ```
#[must_use]
pub fn okn_delinquent_set(analysis: &ProgramAnalysis) -> Vec<usize> {
    analysis
        .loads
        .iter()
        .filter(|l| okn_classify(l).is_delinquent())
        .map(|l| l.index)
        .collect()
}

/// Convenience: `true` when any pattern has a constant stride.
#[must_use]
pub fn is_strided(patterns: &[Ap]) -> bool {
    patterns.iter().any(|p| p.stride().is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_mips::reg::BaseReg;

    fn load_with(patterns: Vec<Ap>) -> LoadInfo {
        LoadInfo {
            index: 0,
            patterns,
            truncated: false,
        }
    }

    fn sp() -> Ap {
        Ap::Base(BaseReg::Sp)
    }

    #[test]
    fn plain_scalar_is_other() {
        let l = load_with(vec![Ap::add(sp(), Ap::Const(8))]);
        assert_eq!(okn_classify(&l), OknClass::Other);
        assert!(!okn_classify(&l).is_delinquent());
    }

    #[test]
    fn deref_is_pointer() {
        let l = load_with(vec![Ap::deref(Ap::add(sp(), Ap::Const(8)))]);
        assert_eq!(okn_classify(&l), OknClass::PointerDeref);
    }

    #[test]
    fn linear_recurrence_is_strided() {
        let l = load_with(vec![Ap::add(Ap::Rec, Ap::Const(4))]);
        assert_eq!(okn_classify(&l), OknClass::Strided);
        assert!(okn_classify(&l).is_delinquent());
    }

    #[test]
    fn pointer_wins_over_strided() {
        // A strided pattern that also dereferences: pointer class.
        let l = load_with(vec![Ap::deref(Ap::add(Ap::Rec, Ap::Const(4)))]);
        assert_eq!(okn_classify(&l), OknClass::PointerDeref);
    }

    #[test]
    fn any_pattern_suffices() {
        let l = load_with(vec![
            Ap::add(sp(), Ap::Const(8)),
            Ap::add(Ap::Rec, Ap::Const(8)),
        ]);
        assert_eq!(okn_classify(&l), OknClass::Strided);
    }

    #[test]
    fn display_names() {
        assert_eq!(OknClass::PointerDeref.to_string(), "pointer");
        assert_eq!(OknClass::Strided.to_string(), "strided");
        assert_eq!(OknClass::Other.to_string(), "other");
    }
}
