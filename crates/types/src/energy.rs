//! Energy accounting for disadvantaged assets.
//!
//! §II of the paper: "many networks will be forward-deployed and will consist
//! of disadvantaged assets with limitations on energy, power, storage, and
//! bandwidth". The simulator charges every transmission, reception, sensing
//! action, and compute burst against a node's [`EnergyBudget`].

use std::fmt;

use iobt_ckpt::{Dec, DecodeError, Enc, Wire};

/// A finite battery, measured in joules.
///
/// The budget never goes negative; draining past zero leaves the budget
/// empty and reports how much demand was unmet.
///
/// ```
/// # use iobt_types::EnergyBudget;
/// let mut b = EnergyBudget::new(10.0);
/// assert_eq!(b.drain(4.0), 0.0);
/// assert_eq!(b.remaining_j(), 6.0);
/// assert_eq!(b.drain(10.0), 4.0); // 4 J of unmet demand
/// assert!(b.is_depleted());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBudget {
    capacity_j: f64,
    remaining_j: f64,
}

/// Capacity, then what remains of it; decoding goes through
/// [`EnergyBudget::from_parts`].
impl Wire for EnergyBudget {
    fn put(&self, e: &mut Enc) {
        let Self { capacity_j, remaining_j } = self;
        e.f64(*capacity_j);
        e.f64(*remaining_j);
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(EnergyBudget::from_parts(d.f64()?, d.f64()?))
    }
}

impl EnergyBudget {
    /// Creates a full battery with `capacity_j` joules. Negative capacities
    /// are clamped to zero.
    pub fn new(capacity_j: f64) -> Self {
        let capacity_j = capacity_j.max(0.0);
        EnergyBudget {
            capacity_j,
            remaining_j: capacity_j,
        }
    }

    /// An effectively unlimited supply (mains- or vehicle-powered nodes).
    pub fn unlimited() -> Self {
        EnergyBudget::new(f64::INFINITY)
    }

    /// Rebuilds a budget at an exact state previously read back via
    /// [`EnergyBudget::capacity_j`] / [`EnergyBudget::remaining_j`]
    /// (checkpoint restore). Negative capacity clamps to zero and
    /// `remaining_j` clamps into `[0, capacity_j]`, so a corrupted
    /// snapshot can never produce an invalid budget.
    pub fn from_parts(capacity_j: f64, remaining_j: f64) -> Self {
        let capacity_j = capacity_j.max(0.0);
        EnergyBudget {
            capacity_j,
            remaining_j: remaining_j.clamp(0.0, capacity_j),
        }
    }

    /// Total capacity in joules.
    pub const fn capacity_j(&self) -> f64 {
        self.capacity_j
    }

    /// Energy left in joules.
    pub const fn remaining_j(&self) -> f64 {
        self.remaining_j
    }

    /// Fraction of capacity remaining in `[0, 1]`; `1.0` for unlimited
    /// budgets and `0.0` for zero-capacity budgets.
    pub fn fraction_remaining(&self) -> f64 {
        if self.capacity_j == 0.0 {
            0.0
        } else if self.capacity_j.is_infinite() {
            1.0
        } else {
            self.remaining_j / self.capacity_j
        }
    }

    /// Consumes `joules` of energy, clamping at empty. Returns the unmet
    /// demand (zero when the budget covered the request).
    ///
    /// Negative demands are treated as zero.
    pub fn drain(&mut self, joules: f64) -> f64 {
        let joules = joules.max(0.0);
        if joules <= self.remaining_j {
            self.remaining_j -= joules;
            0.0
        } else {
            let unmet = joules - self.remaining_j;
            self.remaining_j = 0.0;
            unmet
        }
    }

    /// Adds `joules` (harvesting/recharge), clamped to capacity. Negative
    /// amounts are treated as zero.
    pub fn recharge(&mut self, joules: f64) {
        self.remaining_j = (self.remaining_j + joules.max(0.0)).min(self.capacity_j);
    }

    /// Whether the budget covers a demand of `joules`.
    pub fn can_afford(&self, joules: f64) -> bool {
        self.remaining_j >= joules.max(0.0)
    }

    /// Whether the battery is exhausted.
    pub fn is_depleted(&self) -> bool {
        self.remaining_j <= 0.0 && self.capacity_j.is_finite()
    }
}

impl Default for EnergyBudget {
    /// A modest 1 kJ battery, roughly a coin-cell-powered mote.
    fn default() -> Self {
        EnergyBudget::new(1_000.0)
    }
}

impl fmt::Display for EnergyBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.capacity_j.is_infinite() {
            write!(f, "unlimited")
        } else {
            write!(f, "{:.1}/{:.1} J", self.remaining_j, self.capacity_j)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn drain_and_recharge_clamp() {
        let mut b = EnergyBudget::new(100.0);
        assert_eq!(b.drain(-5.0), 0.0);
        assert_eq!(b.remaining_j(), 100.0);
        b.drain(30.0);
        b.recharge(1_000.0);
        assert_eq!(b.remaining_j(), 100.0);
    }

    #[test]
    fn unlimited_never_depletes() {
        let mut b = EnergyBudget::unlimited();
        assert_eq!(b.drain(1e12), 0.0);
        assert!(!b.is_depleted());
        assert_eq!(b.fraction_remaining(), 1.0);
    }

    #[test]
    fn zero_capacity_reports_everything_unmet() {
        let mut b = EnergyBudget::new(0.0);
        assert_eq!(b.drain(5.0), 5.0);
        assert!(b.is_depleted());
        assert_eq!(b.fraction_remaining(), 0.0);
    }

    #[test]
    fn can_afford_boundary() {
        let b = EnergyBudget::new(10.0);
        assert!(b.can_afford(10.0));
        assert!(!b.can_afford(10.1));
        assert!(b.can_afford(-1.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(EnergyBudget::unlimited().to_string(), "unlimited");
        assert_eq!(EnergyBudget::new(5.0).to_string(), "5.0/5.0 J");
    }

    proptest! {
        #[test]
        fn remaining_never_negative_or_above_capacity(
            capacity in 0.0..1e6f64,
            ops in proptest::collection::vec((-1e5..1e5f64, proptest::bool::ANY), 0..50),
        ) {
            let mut b = EnergyBudget::new(capacity);
            for (amount, is_drain) in ops {
                if is_drain { b.drain(amount); } else { b.recharge(amount); }
                prop_assert!(b.remaining_j() >= 0.0);
                prop_assert!(b.remaining_j() <= b.capacity_j() + 1e-9);
            }
        }

        #[test]
        fn drain_conserves_energy(capacity in 1.0..1e6f64, demand in 0.0..2e6f64) {
            let mut b = EnergyBudget::new(capacity);
            let unmet = b.drain(demand);
            prop_assert!((b.remaining_j() + (demand - unmet) - capacity).abs() < 1e-6);
        }
    }
}
