//! Seeded random fault campaigns.
//!
//! [`generate_campaign`] turns one `u64` seed plus a [`CampaignConfig`]
//! into a [`FaultPlan`]: the whole chaos schedule — which nodes crash,
//! where the blackout lands, how the groups partition — is a pure
//! function of the seed, so the chaos harness can rerun a campaign
//! bit-for-bit and compare end-state digests.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use iobt_netsim::sim::{CompromiseSpec, LinkDegradation, PartitionSpec};
use iobt_netsim::{SimDuration, SimTime};
use iobt_types::{NodeId, Point, Rect};

use crate::plan::FaultPlan;

/// Shape of a generated campaign: how many of each fault kind, over
/// what horizon, in what area.
///
/// Transient faults start inside `[0.1, 0.5] × horizon` and are sized
/// so every one of them clears by `0.7 × horizon`, leaving the final
/// 30% of the run as the recovery tail the chaos harness measures.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Run horizon; onsets and durations are scaled to it.
    pub horizon: SimDuration,
    /// Operating area; blackout rects are sampled inside it.
    pub area: Rect,
    /// Fail-stop crashes (permanent attrition).
    pub crashes: usize,
    /// Fail-recover crashes (transient).
    pub recoveries: usize,
    /// Region blackouts, each lifted before the recovery tail.
    pub blackouts: usize,
    /// Network partitions (transient).
    pub partitions: usize,
    /// Link degradations (transient).
    pub degradations: usize,
    /// Relay compromises (transient, tampering).
    pub compromises: usize,
}

impl CampaignConfig {
    /// A light default campaign: mostly-transient chaos sized for a
    /// small squad over `horizon` in `area`.
    pub fn light(horizon: SimDuration, area: Rect) -> Self {
        CampaignConfig {
            horizon,
            area,
            crashes: 1,
            recoveries: 2,
            blackouts: 1,
            partitions: 1,
            degradations: 1,
            compromises: 1,
        }
    }

    /// Total number of fault events this config generates.
    pub fn total(&self) -> usize {
        self.crashes
            + self.recoveries
            + self.blackouts
            + self.partitions
            + self.degradations
            + self.compromises
    }
}

/// Fraction of the horizon where transient onsets start (inclusive low).
const ONSET_LO: f64 = 0.1;
/// Fraction of the horizon where transient onsets stop (exclusive high).
const ONSET_HI: f64 = 0.5;
/// Fraction of the horizon by which every transient fault has cleared.
const CLEAR_BY: f64 = 0.7;

/// Generates a deterministic fault campaign over `nodes`.
///
/// The same `(seed, nodes, cfg)` triple always yields the same plan.
/// Node-targeting faults (crashes, partitions, compromises) draw from
/// `nodes` without replacement where possible; an empty `nodes` slice
/// yields only node-independent faults (blackouts, degradations).
///
/// # Examples
///
/// ```
/// use iobt_faults::{generate_campaign, CampaignConfig};
/// use iobt_netsim::SimDuration;
/// use iobt_types::{NodeId, Rect};
///
/// let nodes: Vec<NodeId> = (0..8).map(NodeId::new).collect();
/// let cfg = CampaignConfig::light(SimDuration::from_secs_f64(60.0), Rect::square(1_000.0));
/// let a = generate_campaign(7, &nodes, &cfg);
/// let b = generate_campaign(7, &nodes, &cfg);
/// assert_eq!(a.len(), b.len());
/// assert_eq!(a.transient_clear_time(), b.transient_clear_time());
/// ```
pub fn generate_campaign(seed: u64, nodes: &[NodeId], cfg: &CampaignConfig) -> FaultPlan {
    // Domain-separate the campaign stream from the simulator stream so
    // sharing one scenario seed between them is safe.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17_5EED);
    let h = cfg.horizon.as_secs_f64();
    let mut plan = FaultPlan::new();

    // One shuffled deck of targets shared by the node-targeting fault
    // kinds so a small squad is not crashed, partitioned, AND
    // compromised all at once unless the deck wraps.
    let mut deck: Vec<NodeId> = nodes.to_vec();
    deck.shuffle(&mut rng);
    let mut next = 0usize;
    let mut draw = |rng: &mut StdRng, deck: &mut Vec<NodeId>| -> Option<NodeId> {
        if deck.is_empty() {
            return None;
        }
        if next >= deck.len() {
            deck.shuffle(rng);
            next = 0;
        }
        next += 1;
        Some(deck[next - 1])
    };

    let onset = |rng: &mut StdRng| SimTime::from_secs_f64(h * rng.gen_range(ONSET_LO..ONSET_HI));
    // A duration that, started at `at`, is guaranteed to clear by
    // CLEAR_BY × horizon (and is at least 5% of the horizon).
    let clearing = |rng: &mut StdRng, at: SimTime| {
        let room = (h * CLEAR_BY - at.as_secs_f64()).max(0.05 * h);
        SimDuration::from_secs_f64(room * rng.gen_range(0.3..1.0))
    };

    for _ in 0..cfg.crashes {
        if let Some(node) = draw(&mut rng, &mut deck) {
            let at = onset(&mut rng);
            plan = plan.crash(at, node);
        }
    }
    for _ in 0..cfg.recoveries {
        if let Some(node) = draw(&mut rng, &mut deck) {
            let at = onset(&mut rng);
            let dur = clearing(&mut rng, at);
            plan = plan.crash_recover(at, node, dur);
        }
    }
    for _ in 0..cfg.blackouts {
        let at = onset(&mut rng);
        let dur = clearing(&mut rng, at);
        let frac: f64 = rng.gen_range(0.15..0.4);
        let side = (cfg.area.width().min(cfg.area.height()) * frac).max(1.0);
        let min = cfg.area.min();
        let cx = min.x + rng.gen_range(0.0..(cfg.area.width() - side).max(1e-9));
        let cy = min.y + rng.gen_range(0.0..(cfg.area.height() - side).max(1e-9));
        let rect = Rect::new(Point::new(cx, cy), Point::new(cx + side, cy + side));
        plan = plan.blackout(at, rect, Some(dur));
    }
    for _ in 0..cfg.partitions {
        if nodes.len() < 2 {
            break;
        }
        let mut shuffled: Vec<NodeId> = nodes.to_vec();
        shuffled.shuffle(&mut rng);
        let cut = rng.gen_range(1..shuffled.len());
        let (a, b) = shuffled.split_at(cut);
        let at = onset(&mut rng);
        let dur = clearing(&mut rng, at);
        plan = plan.partition(
            at,
            PartitionSpec::new(a.iter().copied(), b.iter().copied()),
            dur,
        );
    }
    for _ in 0..cfg.degradations {
        let at = onset(&mut rng);
        let dur = clearing(&mut rng, at);
        let spec = LinkDegradation::new(rng.gen_range(3.0..12.0), rng.gen_range(1.2..2.5));
        plan = plan.degrade(at, spec, dur);
    }
    for _ in 0..cfg.compromises {
        if let Some(relay) = draw(&mut rng, &mut deck) {
            let at = onset(&mut rng);
            let dur = clearing(&mut rng, at);
            let spec = CompromiseSpec::new([relay], SimDuration::from_millis(20), true);
            plan = plan.compromise(at, spec, dur);
        }
    }

    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultKind;

    fn nodes(n: u64) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    fn cfg() -> CampaignConfig {
        CampaignConfig::light(SimDuration::from_secs_f64(100.0), Rect::square(1_000.0))
    }

    #[test]
    fn same_seed_yields_identical_campaigns() {
        let a = generate_campaign(42, &nodes(10), &cfg());
        let b = generate_campaign(42, &nodes(10), &cfg());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.len(), cfg().total());
    }

    #[test]
    fn different_seeds_diverge() {
        let a = generate_campaign(1, &nodes(10), &cfg());
        let b = generate_campaign(2, &nodes(10), &cfg());
        assert_ne!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn transients_start_and_clear_inside_the_window() {
        let cfg = cfg();
        let h = cfg.horizon.as_secs_f64();
        for seed in 0..20 {
            let plan = generate_campaign(seed, &nodes(12), &cfg);
            for ev in plan.events() {
                let at = ev.at.as_secs_f64();
                assert!(at >= ONSET_LO * h - 1e-9, "onset too early: {at}");
                assert!(at < ONSET_HI * h, "onset too late: {at}");
            }
            let clear = plan.transient_clear_time().as_secs_f64();
            assert!(
                clear <= CLEAR_BY * h + 1e-6,
                "seed {seed}: transients clear at {clear}, past {}",
                CLEAR_BY * h
            );
        }
    }

    #[test]
    fn blackout_rects_stay_inside_the_area() {
        let cfg = cfg();
        for seed in 0..20 {
            let plan = generate_campaign(seed, &nodes(6), &cfg);
            for ev in plan.events() {
                if let FaultKind::RegionBlackout { rect, .. } = &ev.kind {
                    assert!(rect.min().x >= cfg.area.min().x - 1e-9);
                    assert!(rect.min().y >= cfg.area.min().y - 1e-9);
                    assert!(rect.max().x <= cfg.area.max().x + 1e-9);
                    assert!(rect.max().y <= cfg.area.max().y + 1e-9);
                }
            }
        }
    }

    #[test]
    fn empty_node_set_yields_only_node_independent_faults() {
        let plan = generate_campaign(3, &[], &cfg());
        for ev in plan.events() {
            assert!(
                matches!(
                    ev.kind,
                    FaultKind::RegionBlackout { .. } | FaultKind::Degrade { .. }
                ),
                "unexpected node-targeting fault: {:?}",
                ev.kind
            );
        }
        assert_eq!(plan.len(), cfg().blackouts + cfg().degradations);
    }

    #[test]
    fn partition_groups_are_disjoint_and_nonempty() {
        for seed in 0..10 {
            let plan = generate_campaign(seed, &nodes(5), &cfg());
            let has_partition = plan
                .events()
                .iter()
                .any(|ev| matches!(ev.kind, FaultKind::Partition { .. }));
            assert!(has_partition, "seed {seed} generated no partition");
        }
    }
}
