//! Dependency certificates.
//!
//! The abstract-interpretation layer ([`crate::absint`]) proves two kinds of
//! facts about an instrumented UDF and records them here, attached to
//! [`crate::DepInfo`]:
//!
//! * a **value range** per carried local (interval domain with widening),
//!   which lets the wire encoding ship certified-narrow values — a k-core
//!   counter proven to stay in `[0, k]` travels as one byte instead of
//!   eight;
//! * a **monotonicity/latch** fact — "once the break condition triggers it
//!   stays triggered for the rest of the neighbour loop". It decides
//!   whether the engine audits a skipped segment in release builds: a
//!   segment whose vertex is already latched is skipped either way, and
//!   without the certificate it is also re-run under a no-emission audit
//!   (debug builds audit every guarded program).
//!
//! Certificates are plain data, built once per instrumented program.
//! Soundness is checked dynamically in debug builds: the dependency state
//! asserts every concrete carried value it observes stays inside the
//! certified interval.

use crate::types::Ty;
use std::fmt;

/// Inferred value range of a carried local.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueRange {
    /// Proven to stay within `[lo, hi]` (inclusive, over the value's
    /// integer image: bools as 0/1, vertex ids as their raw index).
    Interval {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// Nothing narrower than the type's full range could be proven
    /// (floats are always unbounded — the interval domain tracks only
    /// integer-like values).
    Unbounded,
}

impl ValueRange {
    /// Whether the concrete integer image `x` is inside the range.
    pub fn contains(&self, x: i64) -> bool {
        match *self {
            ValueRange::Interval { lo, hi } => lo <= x && x <= hi,
            ValueRange::Unbounded => true,
        }
    }
}

impl fmt::Display for ValueRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueRange::Interval { lo, hi } => write!(f, "[{lo}, {hi}]"),
            ValueRange::Unbounded => f.write_str("unbounded"),
        }
    }
}

/// Direction of change of a carried local across neighbour-loop
/// iterations, as proven by the monotonicity domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Monotonicity {
    /// Never reassigned inside the loop.
    Constant,
    /// Every loop assignment can only increase the value.
    NonDecreasing,
    /// Every loop assignment can only decrease the value.
    NonIncreasing,
    /// No direction could be proven.
    Unknown,
}

impl fmt::Display for Monotonicity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Monotonicity::Constant => "constant",
            Monotonicity::NonDecreasing => "non-decreasing",
            Monotonicity::NonIncreasing => "non-increasing",
            Monotonicity::Unknown => "unknown",
        };
        f.write_str(s)
    }
}

/// Certificate entry for one carried local, in the same order as
/// [`crate::DepInfo::carried`].
#[derive(Debug, Clone, PartialEq)]
pub struct CarriedCert {
    /// Local variable name.
    pub name: String,
    /// Declared type.
    pub ty: Ty,
    /// Proven value range.
    pub range: ValueRange,
    /// Certified wire width in bytes (1, 2, 4 or 8): the narrowest
    /// little-endian encoding the range provably fits. Integers
    /// sign-extend on decode; bools and vertex ids zero-extend.
    pub width: u8,
    /// Proven monotonicity across loop iterations.
    pub mono: Monotonicity,
}

/// The dependency certificate [`crate::analyze`]'s abstract interpretation
/// emits and attaches to [`crate::DepInfo`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DepCertificate {
    /// Per-carried-local facts, index-aligned with `DepInfo::carried`.
    pub carried: Vec<CarriedCert>,
    /// Structural latch: the instrumented program's receive guard returns
    /// before any observable work when the skip bit is set, so a latched
    /// segment can be skipped without re-running it. True for the
    /// analyzer's minimized instrumentation, false for naive
    /// instrumentation (kept inert so naive measurements match the
    /// uncertified baseline).
    pub skip_latch: bool,
    /// Every reachable break condition is proven monotone-toward-true:
    /// once it triggers, re-scanning the remaining neighbours would
    /// trigger it again. Vacuously true when there are no reachable
    /// breaks.
    pub stable_breaks: bool,
}

/// Narrowest byte width that provably holds every value of `range` at
/// type `ty`. Bools are one byte and vertex ids four regardless of the
/// range (their types bound them); floats are always eight; integers
/// narrow to the smallest signed width the interval fits.
pub fn width_for(ty: Ty, range: ValueRange) -> u8 {
    match ty {
        Ty::Bool => 1,
        Ty::Vertex => 4,
        Ty::Float => 8,
        Ty::Int => match range {
            ValueRange::Unbounded => 8,
            ValueRange::Interval { lo, hi } => {
                for w in [1u8, 2, 4] {
                    let min = -(1i64 << (8 * w - 1));
                    let max = (1i64 << (8 * w - 1)) - 1;
                    if lo >= min && hi <= max {
                        return w;
                    }
                }
                8
            }
        },
    }
}

impl DepCertificate {
    /// The inert certificate: nothing proven, everything ships at the
    /// full eight-byte width. Byte-for-byte this reproduces the
    /// pre-certificate wire format, so naive instrumentation (which gets
    /// this) measures identically to the uncertified engine.
    pub fn wide(carried: &[(String, Ty)]) -> Self {
        DepCertificate {
            carried: carried
                .iter()
                .map(|(name, ty)| CarriedCert {
                    name: name.clone(),
                    ty: *ty,
                    range: ValueRange::Unbounded,
                    width: 8,
                    mono: Monotonicity::Unknown,
                })
                .collect(),
            skip_latch: false,
            stable_breaks: false,
        }
    }

    /// Sum of the certified per-value widths — the value-payload bytes
    /// one dependency record carries on the wire.
    pub fn payload_width(&self) -> usize {
        self.carried.iter().map(|c| usize::from(c.width)).sum()
    }

    /// Whether a skipped segment provably stays inert, so release builds
    /// need not audit it: the structural skip latch holds *and* every
    /// reachable break is monotone-stable.
    pub fn latches(&self) -> bool {
        self.skip_latch && self.stable_breaks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_narrow_by_type_and_range() {
        assert_eq!(width_for(Ty::Bool, ValueRange::Unbounded), 1);
        assert_eq!(width_for(Ty::Vertex, ValueRange::Unbounded), 4);
        assert_eq!(width_for(Ty::Float, ValueRange::Unbounded), 8);
        assert_eq!(width_for(Ty::Int, ValueRange::Unbounded), 8);
        let itv = |lo, hi| ValueRange::Interval { lo, hi };
        assert_eq!(width_for(Ty::Int, itv(0, 4)), 1);
        assert_eq!(width_for(Ty::Int, itv(-128, 127)), 1);
        assert_eq!(width_for(Ty::Int, itv(-129, 0)), 2);
        assert_eq!(width_for(Ty::Int, itv(0, 40_000)), 4);
        assert_eq!(width_for(Ty::Int, itv(0, 1 << 40)), 8);
        // Float intervals never narrow: only the type sets the width.
        assert_eq!(width_for(Ty::Float, itv(0, 1)), 8);
    }

    #[test]
    fn range_containment() {
        let r = ValueRange::Interval { lo: -2, hi: 7 };
        assert!(r.contains(-2) && r.contains(7) && r.contains(0));
        assert!(!r.contains(-3) && !r.contains(8));
        assert!(ValueRange::Unbounded.contains(i64::MIN));
    }

    #[test]
    fn wide_is_inert() {
        let c = DepCertificate::wide(&[("cnt".into(), Ty::Int), ("acc".into(), Ty::Float)]);
        assert_eq!(c.payload_width(), 16);
        assert!(c.carried.iter().all(|cc| cc.width == 8));
        assert!(!c.latches());
        assert_eq!(c.carried[0].mono, Monotonicity::Unknown);
    }
}
