//! Actuation safety: human authority and occupancy interlocks.
//!
//! §VI: "One prime example of a human decision in a military context is
//! the decision to fire a weapon. … smarter ammunition used in disaster
//! response might be authorized to impact only a specific category of
//! things … Demolition charges may use (or communicate with) sensors and
//! computational elements to withhold from activation where humans are
//! present, thereby reducing unintended loss of life."
//!
//! The [`ActuationController`] enforces exactly that: actuators flagged
//! [`requires_human_authorization`](iobt_types::ActuatorKind::requires_human_authorization)
//! fire only with a live human authorization token, and *any* actuation is
//! withheld while the zone's occupancy belief — fed by occupancy sensors
//! and decaying over time — exceeds a threshold. Every decision goes to
//! the controller's recorder as a [`TraceEvent::Actuation`] carrying its
//! time, requester, actuator, zone and outcome: the trace is the audit
//! log (liability, §VI's legal concern).

use std::collections::BTreeMap;

use iobt_obs::{Recorder, TraceEvent};
use iobt_types::{ActuatorKind, NodeId};

/// Stable numeric code for an actuator kind in trace events: its index in
/// [`ActuatorKind::ALL`].
fn actuator_code(kind: ActuatorKind) -> u64 {
    ActuatorKind::ALL
        .iter()
        .position(|&k| k == kind)
        .unwrap_or(ActuatorKind::ALL.len()) as u64
}

/// A time-limited human authorization for one actuator kind in one zone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HumanAuthorization {
    /// Actuator kind authorized.
    pub actuator: ActuatorKind,
    /// Zone the authorization covers.
    pub zone: u32,
    /// Expiry time, seconds.
    pub expires_at_s: f64,
}

/// Outcome of an actuation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActuationDecision {
    /// Cleared to fire.
    Approved,
    /// Withheld: the zone's occupancy belief is above threshold.
    WithheldOccupied,
    /// Denied: the actuator needs a human authorization that is missing
    /// or expired.
    DeniedNoAuthorization,
}

/// Enforces the §VI safety rules for a set of zones.
///
/// ```
/// # use iobt_adapt::safety::{ActuationController, ActuationDecision};
/// # use iobt_types::{ActuatorKind, NodeId};
/// let mut gate = ActuationController::new(0.3, 60.0);
/// // Route markers need no human in the loop; demolition does.
/// assert_eq!(
///     gate.request(NodeId::new(1), ActuatorKind::Marker, 0, 0.0),
///     ActuationDecision::Approved
/// );
/// assert_eq!(
///     gate.request(NodeId::new(1), ActuatorKind::Demolition, 0, 0.0),
///     ActuationDecision::DeniedNoAuthorization
/// );
/// ```
#[derive(Debug, Clone)]
pub struct ActuationController {
    occupancy_threshold: f64,
    occupancy_tau_s: f64,
    /// Per-zone `(last_detection_s, belief_at_detection)`.
    occupancy: BTreeMap<u32, (f64, f64)>,
    authorizations: Vec<HumanAuthorization>,
    recorder: Recorder,
}

impl ActuationController {
    /// Creates a controller: actuation is withheld while a zone's
    /// occupancy belief exceeds `occupancy_threshold`; beliefs decay with
    /// time constant `occupancy_tau_s`.
    pub fn new(occupancy_threshold: f64, occupancy_tau_s: f64) -> Self {
        ActuationController {
            occupancy_threshold: occupancy_threshold.clamp(0.0, 1.0),
            occupancy_tau_s: occupancy_tau_s.max(1e-9),
            occupancy: BTreeMap::new(),
            authorizations: Vec::new(),
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches a [`Recorder`]; every decision from [`request`](Self::request)
    /// is then emitted as an [`TraceEvent::Actuation`] trace event stamped
    /// with the request time.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Feeds an occupancy detection for `zone` with confidence in
    /// `[0, 1]` at time `now_s`. Beliefs merge by maximum (one confident
    /// detection is enough to withhold).
    pub fn report_occupancy(&mut self, zone: u32, confidence: f64, now_s: f64) {
        let confidence = confidence.clamp(0.0, 1.0);
        let current = self.occupancy_belief(zone, now_s);
        self.occupancy
            .insert(zone, (now_s, current.max(confidence)));
    }

    /// Current occupancy belief for a zone (decayed).
    pub fn occupancy_belief(&self, zone: u32, now_s: f64) -> f64 {
        match self.occupancy.get(&zone) {
            Some(&(t, b)) => b * (-(now_s - t).max(0.0) / self.occupancy_tau_s).exp(),
            None => 0.0,
        }
    }

    /// Registers a human authorization.
    pub fn grant(&mut self, authorization: HumanAuthorization) {
        self.authorizations.push(authorization);
    }

    /// Handles an actuation request; traces and returns the decision.
    pub fn request(
        &mut self,
        requester: NodeId,
        actuator: ActuatorKind,
        zone: u32,
        now_s: f64,
    ) -> ActuationDecision {
        let authorized = self.authorizations.iter().any(|a| {
            a.actuator == actuator && a.zone == zone && a.expires_at_s >= now_s
        });
        let decision = if self.occupancy_belief(zone, now_s) > self.occupancy_threshold {
            // The occupancy interlock overrides even authorized fires.
            ActuationDecision::WithheldOccupied
        } else if actuator.requires_human_authorization() && !authorized {
            ActuationDecision::DeniedNoAuthorization
        } else {
            ActuationDecision::Approved
        };
        self.recorder.record_at(
            (now_s.max(0.0) * 1e6) as u64,
            TraceEvent::Actuation {
                requester: requester.raw(),
                actuator: actuator_code(actuator),
                zone: u64::from(zone),
                decision: match decision {
                    ActuationDecision::Approved => "approved",
                    ActuationDecision::WithheldOccupied => "withheld_occupied",
                    ActuationDecision::DeniedNoAuthorization => "denied_no_authorization",
                },
            },
        );
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> ActuationController {
        ActuationController::new(0.3, 60.0)
    }

    #[test]
    fn markers_fire_without_authorization() {
        let mut c = controller();
        let d = c.request(NodeId::new(1), ActuatorKind::Marker, 0, 10.0);
        assert_eq!(d, ActuationDecision::Approved);
    }

    #[test]
    fn demolition_requires_live_human_authorization() {
        let mut c = controller();
        let d = c.request(NodeId::new(1), ActuatorKind::Demolition, 0, 10.0);
        assert_eq!(d, ActuationDecision::DeniedNoAuthorization);
        c.grant(HumanAuthorization {
            actuator: ActuatorKind::Demolition,
            zone: 0,
            expires_at_s: 100.0,
        });
        let d = c.request(NodeId::new(1), ActuatorKind::Demolition, 0, 50.0);
        assert_eq!(d, ActuationDecision::Approved);
        // Expired token is no token.
        let d = c.request(NodeId::new(1), ActuatorKind::Demolition, 0, 200.0);
        assert_eq!(d, ActuationDecision::DeniedNoAuthorization);
    }

    #[test]
    fn decisions_are_traced_with_request_time() {
        let (recorder, ring) = Recorder::memory(8);
        let mut c = controller().with_recorder(recorder.clone());
        c.request(NodeId::new(4), ActuatorKind::Marker, 0, 2.5);
        c.request(NodeId::new(4), ActuatorKind::Demolition, 0, 3.0);
        let records = ring.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].t_us, 2_500_000);
        assert_eq!(
            records[0].event,
            TraceEvent::Actuation {
                requester: 4,
                actuator: actuator_code(ActuatorKind::Marker),
                zone: 0,
                decision: "approved",
            }
        );
        assert_eq!(
            records[1].event,
            TraceEvent::Actuation {
                requester: 4,
                actuator: actuator_code(ActuatorKind::Demolition),
                zone: 0,
                decision: "denied_no_authorization",
            }
        );
        let digest = recorder.metrics_digest();
        assert_eq!(digest.counter("adapt.actuations"), Some(2));
        assert_eq!(digest.counter("adapt.actuation.approved"), Some(1));
    }

    #[test]
    fn authorization_is_zone_scoped() {
        let mut c = controller();
        c.grant(HumanAuthorization {
            actuator: ActuatorKind::Demolition,
            zone: 7,
            expires_at_s: 100.0,
        });
        let other_zone = c.request(NodeId::new(1), ActuatorKind::Demolition, 8, 10.0);
        assert_eq!(other_zone, ActuationDecision::DeniedNoAuthorization);
    }

    #[test]
    fn occupancy_withholds_even_authorized_fires() {
        let mut c = controller();
        c.grant(HumanAuthorization {
            actuator: ActuatorKind::Demolition,
            zone: 0,
            expires_at_s: 1_000.0,
        });
        c.report_occupancy(0, 0.9, 10.0);
        let d = c.request(NodeId::new(1), ActuatorKind::Demolition, 0, 11.0);
        assert_eq!(d, ActuationDecision::WithheldOccupied);
        // Belief decays: after ~3 time constants the zone clears.
        let d = c.request(NodeId::new(1), ActuatorKind::Demolition, 0, 11.0 + 200.0);
        assert_eq!(d, ActuationDecision::Approved);
    }

    #[test]
    fn occupancy_belief_merges_by_max_and_decays() {
        let mut c = controller();
        c.report_occupancy(3, 0.5, 0.0);
        c.report_occupancy(3, 0.2, 1.0); // weaker detection must not lower belief
        assert!(c.occupancy_belief(3, 1.0) > 0.45);
        assert!(c.occupancy_belief(3, 500.0) < 0.01);
        assert_eq!(c.occupancy_belief(99, 0.0), 0.0);
    }

    #[test]
    fn every_request_is_audited() {
        let (recorder, ring) = Recorder::memory(8);
        let mut c = controller().with_recorder(recorder);
        c.request(NodeId::new(1), ActuatorKind::Marker, 0, 1.0);
        c.request(NodeId::new(2), ActuatorKind::Demolition, 5, 2.0);
        let log: Vec<_> = ring.records().into_iter().map(|r| (r.t_us, r.event)).collect();
        assert_eq!(
            log,
            [
                (
                    1_000_000,
                    TraceEvent::Actuation {
                        requester: 1,
                        actuator: actuator_code(ActuatorKind::Marker),
                        zone: 0,
                        decision: "approved",
                    }
                ),
                (
                    2_000_000,
                    TraceEvent::Actuation {
                        requester: 2,
                        actuator: actuator_code(ActuatorKind::Demolition),
                        zone: 5,
                        decision: "denied_no_authorization",
                    }
                ),
            ]
        );
    }
}
