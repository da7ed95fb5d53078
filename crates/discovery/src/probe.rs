//! Active probing of intermittently-connected cyberphysical assets.
//!
//! §III-A: mobile wireless assets "may be intermittently connected, so may
//! not consistently respond to probes or emit traffic". The [`Prober`]
//! issues probe rounds against nodes with duty-cycled availability,
//! returns each response's latency in its [`ProbeRecord`], and builds
//! per-node availability [`ProbeProfile`]s that feed capability
//! characterization.

use std::collections::BTreeMap;

use iobt_types::{ComputeClass, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ground-truth responsiveness of one probed node (the simulator side).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeTarget {
    /// Node identity.
    pub id: NodeId,
    /// Probability the node is awake for any given probe, in `[0, 1]`.
    pub availability: f64,
    /// True compute class (drives response latency).
    pub compute: ComputeClass,
}

/// One probe outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeRecord {
    /// Node probed.
    pub id: NodeId,
    /// Whether a response arrived.
    pub responded: bool,
    /// Response latency in milliseconds (meaningful only when `responded`).
    pub latency_ms: f64,
}

/// Accumulated observations about one node.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProbeProfile {
    probes: u64,
    responses: u64,
}

impl ProbeProfile {
    /// Estimated availability (response fraction), or `0.0` when unprobed.
    pub fn availability(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.responses as f64 / self.probes as f64
        }
    }

    fn record(&mut self, r: ProbeRecord) {
        self.probes += 1;
        if r.responded {
            self.responses += 1;
        }
    }
}

/// Issues probe rounds and accumulates [`ProbeProfile`]s.
#[derive(Debug)]
pub struct Prober {
    rng: StdRng,
    profiles: BTreeMap<NodeId, ProbeProfile>,
}

/// Nominal probe-response latency by compute class, in ms.
fn base_latency_ms(compute: ComputeClass) -> f64 {
    match compute {
        ComputeClass::EdgeCloud => 1.0,
        ComputeClass::EdgeServer => 5.0,
        ComputeClass::Embedded => 20.0,
        ComputeClass::Disposable => 80.0,
    }
}

impl Prober {
    /// Creates a prober with a deterministic seed.
    // lint: allow(unused-pub) — the only constructor of the active prober DESIGN.md:56 lists
    pub fn new(seed: u64) -> Self {
        Prober {
            rng: StdRng::seed_from_u64(seed),
            profiles: BTreeMap::new(),
        }
    }

    /// Probes every target once, returning this round's records and
    /// folding them into the profiles.
    // lint: allow(unused-pub) — the only way to probe; DESIGN.md:56 lists active probing
    pub fn probe_round(&mut self, targets: &[ProbeTarget]) -> Vec<ProbeRecord> {
        let mut records = Vec::with_capacity(targets.len());
        for t in targets {
            let responded = self.rng.gen::<f64>() < t.availability;
            let latency_ms = if responded {
                let base = base_latency_ms(t.compute);
                // Multiplicative jitter in [0.7, 1.6).
                base * self.rng.gen_range(0.7..1.6)
            } else {
                0.0
            };
            let record = ProbeRecord {
                id: t.id,
                responded,
                latency_ms,
            };
            self.profiles.entry(t.id).or_default().record(record);
            records.push(record);
        }
        records
    }

    /// Profile of one node, if it has ever been probed.
    pub fn profile(&self, id: NodeId) -> Option<&ProbeProfile> {
        self.profiles.get(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target(id: u64, availability: f64, compute: ComputeClass) -> ProbeTarget {
        ProbeTarget { id: NodeId::new(id), availability, compute }
    }

    fn targets() -> Vec<ProbeTarget> {
        vec![
            target(1, 0.95, ComputeClass::EdgeCloud),
            target(2, 0.5, ComputeClass::Embedded),
            target(3, 0.05, ComputeClass::Disposable),
        ]
    }

    fn probe_rounds(p: &mut Prober, targets: &[ProbeTarget], rounds: usize) {
        for _ in 0..rounds {
            p.probe_round(targets);
        }
    }

    #[test]
    fn availability_estimates_converge() {
        let mut p = Prober::new(1);
        probe_rounds(&mut p, &targets(), 400);
        let est1 = p.profile(NodeId::new(1)).unwrap().availability();
        let est2 = p.profile(NodeId::new(2)).unwrap().availability();
        let est3 = p.profile(NodeId::new(3)).unwrap().availability();
        assert!((est1 - 0.95).abs() < 0.06, "{est1}");
        assert!((est2 - 0.5).abs() < 0.08, "{est2}");
        assert!((est3 - 0.05).abs() < 0.05, "{est3}");
    }

    #[test]
    fn unresponsive_nodes_have_no_latency_estimate() {
        let t = [target(9, 0.0, ComputeClass::Embedded)];
        let mut p = Prober::new(3);
        probe_rounds(&mut p, &t, 50);
        let profile = p.profile(NodeId::new(9)).unwrap();
        assert_eq!(profile.availability(), 0.0);
        assert_eq!(profile.responses, 0);
    }

    #[test]
    fn probing_is_deterministic_per_seed() {
        let mut a = Prober::new(7);
        let mut b = Prober::new(7);
        let ra = a.probe_round(&targets());
        let rb = b.probe_round(&targets());
        assert_eq!(ra, rb);
    }

    #[test]
    fn clamped_availability() {
        // Out-of-range availabilities probe as always / never awake.
        let t = [target(1, 1.7, ComputeClass::Embedded), target(2, -0.3, ComputeClass::Embedded)];
        let mut p = Prober::new(5);
        probe_rounds(&mut p, &t, 50);
        assert_eq!(p.profile(NodeId::new(1)).unwrap().availability(), 1.0);
        assert_eq!(p.profile(NodeId::new(2)).unwrap().availability(), 0.0);
    }
}
