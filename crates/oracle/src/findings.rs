//! What one run has found, kept the same way by both oracles.

use std::fmt;

use crate::rules::{Breach, Check};
use crate::{TheoremId, Tightness, Violation};

/// Keep at most this many violations verbatim; the total is still counted.
pub(crate) const MAX_STORED_VIOLATIONS: usize = 64;

/// What one run has found: the first [`MAX_STORED_VIOLATIONS`]
/// violations verbatim, how many there were, and each predicate's
/// tightest margin. Both oracles keep one, and [`Findings::flag`] is the
/// only code that builds a [`Violation`].
#[derive(Debug)]
pub(crate) struct Findings {
    seed: u64,
    pub(crate) stored: Vec<Violation>,
    pub(crate) total: usize,
    pub(crate) tightness: Tightness,
}

impl Findings {
    pub(crate) fn new(seed: u64) -> Self {
        Findings {
            seed,
            stored: Vec::new(),
            total: 0,
            tightness: Tightness::default(),
        }
    }

    /// Records a numeric row's margin, then its breach, if any.
    #[inline]
    pub(crate) fn measure(
        &mut self,
        event: usize,
        server: usize,
        theorem: TheoremId,
        check: impl Into<Option<Check>>,
    ) {
        let Some(check) = check.into() else {
            return;
        };
        self.tightness.record(theorem, check.margin);
        self.flag(event, server, theorem, check.breach);
    }

    /// Records a row's breach, if it found one, as `server` violating
    /// `theorem` at `event`.
    #[inline]
    pub(crate) fn flag(
        &mut self,
        event: usize,
        server: usize,
        theorem: TheoremId,
        breach: Option<Breach>,
    ) {
        let Some(breach) = breach else {
            return;
        };
        self.total += 1;
        if self.stored.len() < MAX_STORED_VIOLATIONS {
            self.stored.push(Violation {
                seed: self.seed,
                event,
                server,
                theorem,
                observed: breach.observed,
                bound: breach.bound,
                detail: breach.detail,
            });
        }
    }
}

/// Writes a report's stored violations, one per line, then how many
/// more its `total` counted.
pub(crate) fn write_violations(
    f: &mut fmt::Formatter<'_>,
    stored: &[Violation],
    total: usize,
) -> fmt::Result {
    for v in stored {
        writeln!(f, "  {v}")?;
    }
    if total > stored.len() {
        writeln!(f, "  … and {} more", total - stored.len())?;
    }
    Ok(())
}
