//! Modality-switching reflex.
//!
//! §IV-B: "seismic sensing may be used when smoke or other phenomena
//! render visual tracking unreliable, or when connection is lost with the
//! camera due to a wireless jamming attack." The [`ModalitySwitcher`]
//! tracks a smoothed health signal per available sensing modality and
//! selects the best healthy one, with hysteresis so the selection does not
//! flap on noisy health estimates.

use iobt_types::SensorKind;
use std::collections::BTreeMap;

/// Configuration of the switching reflex.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchPolicy {
    /// EMA weight of new health observations, in `(0, 1]`.
    pub smoothing: f64,
    /// A challenger modality must beat the incumbent's health by this
    /// margin to take over (hysteresis).
    pub switch_margin: f64,
    /// Health below which a modality is considered unusable.
    pub min_health: f64,
}

impl Default for SwitchPolicy {
    fn default() -> Self {
        SwitchPolicy {
            smoothing: 0.3,
            switch_margin: 0.15,
            min_health: 0.2,
        }
    }
}

/// Tracks modality health and picks the active one.
#[derive(Debug, Clone, PartialEq)]
pub struct ModalitySwitcher {
    policy: SwitchPolicy,
    health: BTreeMap<SensorKind, f64>,
    active: Option<SensorKind>,
    switches: usize,
}

impl ModalitySwitcher {
    /// Creates a switcher over the available modalities, all starting at
    /// full health; the first listed modality starts active.
    pub fn new(available: &[SensorKind], policy: SwitchPolicy) -> Self {
        let health: BTreeMap<SensorKind, f64> =
            available.iter().map(|&k| (k, 1.0)).collect();
        ModalitySwitcher {
            policy,
            active: available.first().copied(),
            health,
            switches: 0,
        }
    }

    /// The currently active modality, if any is usable.
    pub const fn active(&self) -> Option<SensorKind> {
        self.active
    }

    /// Number of switches performed so far.
    pub const fn switches(&self) -> usize {
        self.switches
    }

    /// Feeds one health observation (e.g. tracking confidence, link
    /// quality) for a modality and re-evaluates the selection. Returns the
    /// active modality after the update.
    ///
    /// Observations for unknown modalities are ignored.
    pub fn observe(&mut self, kind: SensorKind, health: f64) -> Option<SensorKind> {
        let health = health.clamp(0.0, 1.0);
        if let Some(h) = self.health.get_mut(&kind) {
            *h = *h * (1.0 - self.policy.smoothing) + health * self.policy.smoothing;
        } else {
            return self.active;
        }
        self.reselect();
        self.active
    }

    fn reselect(&mut self) {
        let incumbent_health = self
            .active
            .and_then(|k| self.health.get(&k).copied())
            .unwrap_or(0.0);
        // Find the healthiest modality (deterministic tie-break by the
        // BTreeMap ordering).
        let best = self
            .health
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&k, &h)| (k, h));
        let Some((best_kind, best_health)) = best else {
            self.active = None;
            return;
        };
        let incumbent_usable = incumbent_health >= self.policy.min_health;
        if !incumbent_usable {
            // Incumbent is dead: switch immediately if anything usable.
            if best_health >= self.policy.min_health {
                if self.active != Some(best_kind) {
                    self.active = Some(best_kind);
                    self.switches += 1;
                }
            } else {
                if self.active.is_some() {
                    self.switches += 1;
                }
                self.active = None;
            }
        } else if best_health > incumbent_health + self.policy.switch_margin
            && self.active != Some(best_kind)
        {
            // Challenger clearly better: switch with hysteresis margin.
            self.active = Some(best_kind);
            self.switches += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn switcher() -> ModalitySwitcher {
        ModalitySwitcher::new(
            &[SensorKind::Visual, SensorKind::Seismic, SensorKind::Acoustic],
            SwitchPolicy::default(),
        )
    }

    #[test]
    fn starts_on_first_modality() {
        let s = switcher();
        assert_eq!(s.active(), Some(SensorKind::Visual));
        assert_eq!(s.health.get(&SensorKind::Seismic).copied(), Some(1.0));
        assert_eq!(s.health.get(&SensorKind::Radar).copied(), None);
    }

    #[test]
    fn smoke_degrades_visual_and_switches_to_seismic() {
        let mut s = switcher();
        // Smoke rolls in: visual health collapses over several updates.
        for _ in 0..10 {
            s.observe(SensorKind::Visual, 0.0);
        }
        let active = s.active().unwrap();
        assert_ne!(active, SensorKind::Visual, "must abandon blinded camera");
        assert!(s.switches() >= 1);
    }

    #[test]
    fn hysteresis_prevents_flapping() {
        let mut s = switcher();
        // Two modalities oscillating within the margin: no switches.
        for i in 0..50 {
            let wobble = if i % 2 == 0 { 0.95 } else { 0.9 };
            s.observe(SensorKind::Visual, wobble);
            s.observe(SensorKind::Seismic, 1.0 - (wobble - 0.9));
        }
        assert_eq!(s.active(), Some(SensorKind::Visual));
        assert_eq!(s.switches(), 0, "within-margin noise must not flap");
    }

    #[test]
    fn recovery_can_win_back_with_clear_margin() {
        let mut s = switcher();
        for _ in 0..10 {
            s.observe(SensorKind::Visual, 0.0);
        }
        assert_ne!(s.active(), Some(SensorKind::Visual));
        // Smoke clears; seismic degrades badly.
        for _ in 0..20 {
            s.observe(SensorKind::Visual, 1.0);
            s.observe(SensorKind::Seismic, 0.3);
            s.observe(SensorKind::Acoustic, 0.3);
        }
        assert_eq!(s.active(), Some(SensorKind::Visual));
    }

    #[test]
    fn all_dead_means_no_active_modality() {
        let mut s = switcher();
        for _ in 0..10 {
            s.observe(SensorKind::Visual, 0.0);
            s.observe(SensorKind::Seismic, 0.0);
            s.observe(SensorKind::Acoustic, 0.0);
        }
        assert_eq!(s.active(), None);
    }

    #[test]
    fn unknown_modality_observations_are_ignored() {
        let mut s = switcher();
        let active = s.observe(SensorKind::Radar, 0.0);
        assert_eq!(active, Some(SensorKind::Visual));
        assert_eq!(s.health.get(&SensorKind::Radar).copied(), None);
    }

    #[test]
    fn empty_switcher_has_no_active() {
        let s = ModalitySwitcher::new(&[], SwitchPolicy::default());
        assert_eq!(s.active(), None);
    }
}
