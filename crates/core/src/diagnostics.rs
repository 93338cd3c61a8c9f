//! Typed, severity-ranked lints produced by the static query analyzer.
//!
//! Every finding of [`crate::analyze`] is reported as a [`Diagnostic`]: a
//! stable lint name (kebab-case, the identifier a CLI user can grep for), a
//! [`Severity`], the affected atom, and a one-line explanation. The
//! collection type [`Diagnostics`] keeps entries sorted most-severe-first
//! so renderers can print them top-down without re-ranking.

use std::fmt;

/// How much a finding matters.
///
/// `Error` findings make the query statically unsatisfiable (the solver
/// answers empty without searching); `Warning` findings are semantics-
/// preserving rewrites of a suboptimal query; `Info` findings are purely
/// observational.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Observational: nothing was rewritten or refuted.
    Info,
    /// The query carries avoidable work (a redundant atom was dropped, a
    /// check was abandoned).
    Warning,
    /// The query is statically unsatisfiable against this database.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The closed set of lints the analyzer (and, for [`Lint::ResourceAbort`],
/// the evaluation runtime) can raise.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Lint {
    /// An atom's language is `∅`: no path can ever witness it.
    EmptyAtom,
    /// An atom's language requires alphabet letters the database has no
    /// arcs for (graph-aware footprint check).
    FootprintMiss,
    /// An atom's language is `{ε}`: its endpoints are the same node, so the
    /// variables were unified and the atom dropped.
    EpsilonAtom,
    /// An atom's language is `Σ*`: it never filters anything and is
    /// deprioritized by the planner.
    UniversalAtom,
    /// An atom's language contains a parallel atom's language over the same
    /// endpoint pair: the superset atom is redundant and was dropped.
    SubsumedAtom,
    /// A containment check exceeded its state budget and was abandoned;
    /// both atoms were kept.
    ContainmentCapped,
    /// Some connected component of the constraint graph is cyclic (at
    /// least as many atoms as variables) — the backtracker's worst shape.
    CyclicPattern,
    /// An existential variable between exactly one in-atom and one
    /// out-atom was contracted away: the two atoms became one atom over
    /// the concatenated language.
    ContractedVar,
    /// Evaluation stopped early because a resource limit tripped (deadline,
    /// fuel, memory, or cancellation); reported answers are a sound partial
    /// under-approximation.
    ResourceAbort,
}

impl Lint {
    /// The stable kebab-case lint name.
    pub fn name(self) -> &'static str {
        match self {
            Lint::EmptyAtom => "empty-atom",
            Lint::FootprintMiss => "footprint-miss",
            Lint::EpsilonAtom => "epsilon-atom",
            Lint::UniversalAtom => "universal-atom",
            Lint::SubsumedAtom => "subsumed-atom",
            Lint::ContainmentCapped => "containment-capped",
            Lint::CyclicPattern => "cyclic-pattern",
            Lint::ContractedVar => "contracted-var",
            Lint::ResourceAbort => "resource-abort",
        }
    }
}

/// Which atom of the problem a diagnostic points at.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AtomRef {
    /// A single-walker constraint, by free-edge index.
    Edge(usize),
    /// A synchronized group constraint, by `(group, member)` index.
    GroupMember(usize, usize),
    /// The whole pattern (structural findings).
    Pattern,
}

impl fmt::Display for AtomRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtomRef::Edge(i) => write!(f, "atom #{i}"),
            AtomRef::GroupMember(g, m) => write!(f, "group #{g} member #{m}"),
            AtomRef::Pattern => f.write_str("pattern"),
        }
    }
}

/// One analyzer finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// The lint raised.
    pub lint: Lint,
    /// How much it matters.
    pub severity: Severity,
    /// The affected atom.
    pub atom: AtomRef,
    /// One-line human explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity,
            self.lint.name(),
            self.atom,
            self.message
        )
    }
}

/// The analyzer's report: findings ordered most-severe-first.
#[derive(Clone, Debug, Default)]
pub struct Diagnostics {
    entries: Vec<Diagnostic>,
}

impl Diagnostics {
    /// Records a finding (ordering is restored lazily by [`Self::iter`]).
    pub fn push(&mut self, lint: Lint, severity: Severity, atom: AtomRef, message: String) {
        self.entries.push(Diagnostic {
            lint,
            severity,
            atom,
            message,
        });
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are no findings.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Findings, most severe first (stable within one severity).
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_by(|&a, &b| self.entries[b].severity.cmp(&self.entries[a].severity));
        order.into_iter().map(|i| &self.entries[i])
    }

    /// Whether some finding raised `lint`.
    pub fn has(&self, lint: Lint) -> bool {
        self.entries.iter().any(|d| d.lint == lint)
    }

    /// The most severe finding's severity, if any.
    pub fn max_severity(&self) -> Option<Severity> {
        self.entries.iter().map(|d| d.severity).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_and_renders() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        assert_eq!(Severity::Error.to_string(), "error");
    }

    #[test]
    fn iter_ranks_most_severe_first() {
        let mut d = Diagnostics::default();
        d.push(
            Lint::UniversalAtom,
            Severity::Info,
            AtomRef::Edge(0),
            "x".into(),
        );
        d.push(
            Lint::EmptyAtom,
            Severity::Error,
            AtomRef::Edge(1),
            "y".into(),
        );
        d.push(
            Lint::SubsumedAtom,
            Severity::Warning,
            AtomRef::Edge(2),
            "z".into(),
        );
        let sevs: Vec<Severity> = d.iter().map(|e| e.severity).collect();
        assert_eq!(
            sevs,
            vec![Severity::Error, Severity::Warning, Severity::Info]
        );
        assert_eq!(d.max_severity(), Some(Severity::Error));
        assert!(d.has(Lint::EmptyAtom));
        assert!(!d.has(Lint::EpsilonAtom));
    }

    #[test]
    fn diagnostic_renders_one_line() {
        let d = Diagnostic {
            lint: Lint::EmptyAtom,
            severity: Severity::Error,
            atom: AtomRef::Edge(3),
            message: "language is empty".into(),
        };
        assert_eq!(
            d.to_string(),
            "error [empty-atom] atom #3: language is empty"
        );
    }
}
