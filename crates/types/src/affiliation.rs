//! Blue/red/gray affiliation taxonomy from §II of the paper.

use std::fmt;

/// Ownership/control category of an IoBT entity.
///
/// The paper (§II, "Extreme heterogeneity") distinguishes military devices
/// controlled by friendly forces (*blue*), adversary-controlled devices
/// (*red*), and devices owned by neutral entities such as the civilian
/// population (*gray*).
///
/// ```
/// use iobt_types::Affiliation;
///
/// assert!(Affiliation::Blue.is_friendly());
/// assert!(!Affiliation::Red.is_friendly());
/// assert!(!Affiliation::Gray.is_friendly());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Affiliation {
    /// Friendly, certified, and controlled by the mission owner.
    Blue,
    /// Owned or compromised by the adversary.
    Red,
    /// Neutral/civilian; usable but untrusted by default.
    Gray,
}

impl Affiliation {
    /// All affiliations, in a stable order.
    pub const ALL: [Affiliation; 3] = [Affiliation::Blue, Affiliation::Red, Affiliation::Gray];

    /// Returns `true` for blue assets.
    pub const fn is_friendly(self) -> bool {
        matches!(self, Affiliation::Blue)
    }

    /// Baseline prior trust associated with the affiliation, used to seed
    /// [`TrustScore`](crate::trust::TrustScore) ledgers before any evidence
    /// is observed.
    pub const fn prior_trust(self) -> f64 {
        match self {
            Affiliation::Blue => 0.9,
            Affiliation::Red => 0.05,
            Affiliation::Gray => 0.5,
        }
    }

    /// A dense index in `0..3`, handy for confusion matrices.
    pub const fn index(self) -> usize {
        match self {
            Affiliation::Blue => 0,
            Affiliation::Red => 1,
            Affiliation::Gray => 2,
        }
    }

    /// Inverse of [`Affiliation::index`]. Returns `None` for indices ≥ 3.
    pub const fn from_index(index: usize) -> Option<Self> {
        match index {
            0 => Some(Affiliation::Blue),
            1 => Some(Affiliation::Red),
            2 => Some(Affiliation::Gray),
            _ => None,
        }
    }
}

impl fmt::Display for Affiliation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Affiliation::Blue => "blue",
            Affiliation::Red => "red",
            Affiliation::Gray => "gray",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for a in Affiliation::ALL {
            assert_eq!(Affiliation::from_index(a.index()), Some(a));
        }
        assert_eq!(Affiliation::from_index(3), None);
    }

    #[test]
    fn prior_trust_ranks_blue_over_gray_over_red() {
        assert!(Affiliation::Blue.prior_trust() > Affiliation::Gray.prior_trust());
        assert!(Affiliation::Gray.prior_trust() > Affiliation::Red.prior_trust());
    }

    #[test]
    fn display_names() {
        assert_eq!(Affiliation::Blue.to_string(), "blue");
        assert_eq!(Affiliation::Red.to_string(), "red");
        assert_eq!(Affiliation::Gray.to_string(), "gray");
    }
}
