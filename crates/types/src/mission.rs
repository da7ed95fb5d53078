//! Missions and commander's intent.
//!
//! §I of the paper describes *command by intent*: "a commander specifies
//! their intent (such as evacuating non-combatants along safe routes),
//! leaving it largely to the subordinate units to fill-in the details."
//! A [`CommanderIntent`] is that high-level statement; the synthesis engine
//! refines it into a [`Mission`] with quantified requirements
//! (coverage, modalities, latency, bandwidth, resilience).

use std::fmt;

use crate::{ActuatorKind, MissionId, Rect, SensorKind};

/// Category of military operation (§I spans "the entire gamut of military
/// operations", §II lists representative tasks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MissionKind {
    /// Non-combatant evacuation from a hostile zone (§I vignette).
    Evacuation,
    /// Wide-area persistent surveillance.
    Surveillance,
    /// Tracking a dispersed group through clutter.
    Tracking,
    /// Disaster relief / humanitarian response.
    DisasterRelief,
    /// Peacekeeping presence and monitoring.
    Peacekeeping,
    /// Monitoring soldier physiological/psychological state.
    ForceHealth,
}

impl MissionKind {
    /// All mission kinds, in a stable order.
    pub const ALL: [MissionKind; 6] = [
        MissionKind::Evacuation,
        MissionKind::Surveillance,
        MissionKind::Tracking,
        MissionKind::DisasterRelief,
        MissionKind::Peacekeeping,
        MissionKind::ForceHealth,
    ];

    /// Default sensing modalities a mission of this kind needs, used when a
    /// commander's intent does not spell them out.
    pub fn default_modalities(self) -> Vec<SensorKind> {
        match self {
            MissionKind::Evacuation => vec![SensorKind::Visual, SensorKind::Acoustic],
            MissionKind::Surveillance => vec![SensorKind::Visual, SensorKind::Radar],
            MissionKind::Tracking => vec![SensorKind::Visual, SensorKind::Seismic],
            MissionKind::DisasterRelief => vec![SensorKind::Infrared, SensorKind::Chemical],
            MissionKind::Peacekeeping => vec![SensorKind::Visual],
            MissionKind::ForceHealth => vec![SensorKind::Physiological],
        }
    }
}

impl fmt::Display for MissionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MissionKind::Evacuation => "evacuation",
            MissionKind::Surveillance => "surveillance",
            MissionKind::Tracking => "tracking",
            MissionKind::DisasterRelief => "disaster-relief",
            MissionKind::Peacekeeping => "peacekeeping",
            MissionKind::ForceHealth => "force-health",
        };
        f.write_str(s)
    }
}

/// Relative importance used when missions compete for assets (§II: "many
/// networks operating simultaneously, possibly competing for resources").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Background tasking.
    Low,
    /// Ordinary operations.
    #[default]
    Normal,
    /// Lives immediately at stake.
    Critical,
}

impl Priority {
    /// Numeric weight for schedulers (higher wins).
    pub const fn weight(self) -> u32 {
        match self {
            Priority::Low => 1,
            Priority::Normal => 4,
            Priority::Critical => 16,
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::Critical => "critical",
        };
        f.write_str(s)
    }
}

/// A high-level goal statement, before refinement into requirements.
///
/// ```
/// # use iobt_types::{CommanderIntent, MissionKind, Point, Priority, Rect};
/// let intent = CommanderIntent::new(
///     MissionKind::Tracking,
///     Rect::new(Point::new(0.0, 0.0), Point::new(2_000.0, 2_000.0)),
///     "track insurgent group, report rendezvous points",
/// )
/// .with_priority(Priority::Critical);
/// assert_eq!(intent.priority(), Priority::Critical);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CommanderIntent {
    kind: MissionKind,
    area: Rect,
    statement: String,
    priority: Priority,
}

impl CommanderIntent {
    /// Creates an intent over an area with a free-text statement.
    pub fn new(kind: MissionKind, area: Rect, statement: impl Into<String>) -> Self {
        CommanderIntent {
            kind,
            area,
            statement: statement.into(),
            priority: Priority::default(),
        }
    }

    /// Sets the priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// The mission category.
    pub const fn kind(&self) -> MissionKind {
        self.kind
    }

    /// The geographic area of interest.
    pub const fn area(&self) -> Rect {
        self.area
    }

    /// The free-text statement of intent.
    pub fn statement(&self) -> &str {
        &self.statement
    }

    /// The priority.
    pub const fn priority(&self) -> Priority {
        self.priority
    }
}

impl fmt::Display for CommanderIntent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} {}] {}", self.priority, self.kind, self.statement)
    }
}

/// A fully-specified mission: intent refined into quantified requirements.
///
/// Requirements follow §III-B: "what sensors and actuators are needed …,
/// what in-network compute elements must be present to achieve the desired
/// latency, and what network capacity and resilience must exist".
#[derive(Debug, Clone, PartialEq)]
pub struct Mission {
    id: MissionId,
    kind: MissionKind,
    area: Rect,
    priority: Priority,
    required_modalities: Vec<SensorKind>,
    required_actuators: Vec<ActuatorKind>,
    coverage_fraction: f64,
    latency_bound_ms: f64,
    bandwidth_kbps: f64,
    resilience: usize,
    min_trust: f64,
    deadline_s: Option<f64>,
}

impl Mission {
    /// Starts building a mission.
    pub fn builder(id: MissionId, kind: MissionKind) -> MissionBuilder {
        MissionBuilder {
            mission: Mission {
                id,
                kind,
                area: Rect::square(1_000.0),
                priority: Priority::default(),
                required_modalities: Vec::new(),
                required_actuators: Vec::new(),
                coverage_fraction: 0.9,
                latency_bound_ms: 1_000.0,
                bandwidth_kbps: 64.0,
                resilience: 1,
                min_trust: 0.6,
                deadline_s: None,
            },
        }
    }

    /// Mission identifier.
    pub const fn id(&self) -> MissionId {
        self.id
    }

    /// Mission category.
    pub const fn kind(&self) -> MissionKind {
        self.kind
    }

    /// Area of operations.
    pub const fn area(&self) -> Rect {
        self.area
    }

    /// Scheduling priority.
    pub const fn priority(&self) -> Priority {
        self.priority
    }

    /// Sensing modalities that must cover the area. Falls back to
    /// [`MissionKind::default_modalities`] when none were specified.
    pub fn required_modalities(&self) -> Vec<SensorKind> {
        if self.required_modalities.is_empty() {
            self.kind.default_modalities()
        } else {
            self.required_modalities.clone()
        }
    }

    /// Actuators the mission needs at least one of, each.
    pub fn required_actuators(&self) -> &[ActuatorKind] {
        &self.required_actuators
    }

    /// Fraction of the area's coverage cells that must be sensed, in `[0,1]`.
    pub const fn coverage_fraction(&self) -> f64 {
        self.coverage_fraction
    }

    /// End-to-end report latency bound in milliseconds.
    pub const fn latency_bound_ms(&self) -> f64 {
        self.latency_bound_ms
    }

    /// Sustained bandwidth demand in kbps.
    pub const fn bandwidth_kbps(&self) -> f64 {
        self.bandwidth_kbps
    }

    /// `k`-redundancy: the composite must survive any `k - 1` node losses.
    pub const fn resilience(&self) -> usize {
        self.resilience
    }

    /// Minimum trust score for recruited assets, in `[0, 1]`.
    pub const fn min_trust(&self) -> f64 {
        self.min_trust
    }

    /// Completion deadline in seconds since mission start, if any.
    pub const fn deadline_s(&self) -> Option<f64> {
        self.deadline_s
    }
}

impl fmt::Display for Mission {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} over {} (cover {:.0}%, ≤{:.0} ms, k={})",
            self.id,
            self.kind,
            self.area,
            self.coverage_fraction * 100.0,
            self.latency_bound_ms,
            self.resilience
        )
    }
}

/// Builder for [`Mission`]. See [`Mission::builder`].
#[derive(Debug, Clone)]
pub struct MissionBuilder {
    mission: Mission,
}

impl MissionBuilder {
    /// Sets the area of operations.
    pub fn area(mut self, area: Rect) -> Self {
        self.mission.area = area;
        self
    }

    /// Sets the priority.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.mission.priority = priority;
        self
    }

    /// Adds a required sensing modality.
    pub fn require_modality(mut self, kind: SensorKind) -> Self {
        if !self.mission.required_modalities.contains(&kind) {
            self.mission.required_modalities.push(kind);
        }
        self
    }

    /// Sets the required coverage fraction (clamped to `[0, 1]`).
    pub fn coverage_fraction(mut self, fraction: f64) -> Self {
        self.mission.coverage_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Sets the latency bound in milliseconds (clamped to ≥ 1 ms).
    pub fn latency_bound_ms(mut self, ms: f64) -> Self {
        self.mission.latency_bound_ms = ms.max(1.0);
        self
    }

    /// Sets the bandwidth demand in kbps (clamped to ≥ 0).
    pub fn bandwidth_kbps(mut self, kbps: f64) -> Self {
        self.mission.bandwidth_kbps = kbps.max(0.0);
        self
    }

    /// Sets the `k`-redundancy requirement (at least 1).
    pub fn resilience(mut self, k: usize) -> Self {
        self.mission.resilience = k.max(1);
        self
    }

    /// Sets the minimum trust for recruited assets (clamped to `[0, 1]`).
    pub fn min_trust(mut self, trust: f64) -> Self {
        self.mission.min_trust = trust.clamp(0.0, 1.0);
        self
    }

    /// Sets a completion deadline in seconds.
    pub fn deadline_s(mut self, seconds: f64) -> Self {
        self.mission.deadline_s = Some(seconds.max(0.0));
        self
    }

    /// Finishes the mission.
    pub fn build(self) -> Mission {
        self.mission
    }
}

/// Derives a concrete [`Mission`] from a [`CommanderIntent`] using the
/// kind's default requirement profile — the "reasoning from goals to means"
/// entry point of §III-B. The id is supplied by the caller so missions stay
/// unique across a running system.
pub fn refine_intent(id: MissionId, intent: &CommanderIntent) -> Mission {
    let mut builder = Mission::builder(id, intent.kind())
        .area(intent.area())
        .priority(intent.priority());
    for m in intent.kind().default_modalities() {
        builder = builder.require_modality(m);
    }
    // Stricter requirements for critical missions: tighter latency and
    // double redundancy.
    if intent.priority() == Priority::Critical {
        builder = builder.latency_bound_ms(250.0).resilience(2);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Point;

    #[test]
    fn builder_clamps_requirements() {
        let m = Mission::builder(MissionId::new(1), MissionKind::Surveillance)
            .coverage_fraction(1.5)
            .latency_bound_ms(0.0)
            .bandwidth_kbps(-3.0)
            .resilience(0)
            .min_trust(7.0)
            .build();
        assert_eq!(m.coverage_fraction(), 1.0);
        assert_eq!(m.latency_bound_ms(), 1.0);
        assert_eq!(m.bandwidth_kbps(), 0.0);
        assert_eq!(m.resilience(), 1);
        assert_eq!(m.min_trust(), 1.0);
    }

    #[test]
    fn modalities_default_by_kind() {
        let m = Mission::builder(MissionId::new(2), MissionKind::DisasterRelief).build();
        assert_eq!(
            m.required_modalities(),
            vec![SensorKind::Infrared, SensorKind::Chemical]
        );
        let m2 = Mission::builder(MissionId::new(3), MissionKind::DisasterRelief)
            .require_modality(SensorKind::Acoustic)
            .build();
        assert_eq!(m2.required_modalities(), vec![SensorKind::Acoustic]);
    }

    #[test]
    fn require_modality_deduplicates() {
        let m = Mission::builder(MissionId::new(4), MissionKind::Tracking)
            .require_modality(SensorKind::Visual)
            .require_modality(SensorKind::Visual)
            .build();
        assert_eq!(m.required_modalities().len(), 1);
    }

    #[test]
    fn refine_intent_critical_tightens_requirements() {
        let area = Rect::new(Point::new(0.0, 0.0), Point::new(500.0, 500.0));
        let normal = refine_intent(
            MissionId::new(5),
            &CommanderIntent::new(MissionKind::Evacuation, area, "evacuate sector 4"),
        );
        let critical = refine_intent(
            MissionId::new(6),
            &CommanderIntent::new(MissionKind::Evacuation, area, "evacuate sector 4")
                .with_priority(Priority::Critical),
        );
        assert!(critical.latency_bound_ms() < normal.latency_bound_ms());
        assert!(critical.resilience() > normal.resilience());
        assert_eq!(critical.area(), area);
    }

    #[test]
    fn priority_weights_are_ordered() {
        assert!(Priority::Critical.weight() > Priority::Normal.weight());
        assert!(Priority::Normal.weight() > Priority::Low.weight());
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn every_kind_has_default_modalities() {
        for k in MissionKind::ALL {
            assert!(!k.default_modalities().is_empty(), "{k} lacks modalities");
        }
    }

    #[test]
    fn display_formats_are_informative() {
        let m = Mission::builder(MissionId::new(7), MissionKind::Peacekeeping).build();
        let s = m.to_string();
        assert!(s.contains("m7"));
        assert!(s.contains("peacekeeping"));
        let intent = CommanderIntent::new(
            MissionKind::Surveillance,
            Rect::square(10.0),
            "watch the market square",
        );
        assert!(intent.to_string().contains("watch the market square"));
    }
}
