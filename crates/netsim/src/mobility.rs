//! Mobility models.
//!
//! §III-A: cyberphysical assets "may move frequently, so their discovery
//! needs to be continuous". The simulator advances positions in fixed
//! mobility steps; each node carries one [`MobilityModel`].

use iobt_ckpt::{wire_struct, Dec, DecodeError, Enc, Wire};
use iobt_types::{Point, Rect};
use rand::Rng;

/// How a node moves.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum MobilityModel {
    /// The node never moves (emplaced sensors, infrastructure).
    #[default]
    Static,
    /// Random waypoint inside `area`: pick a destination uniformly, move at
    /// `speed_mps`, pause `pause_s`, repeat. The classic MANET model.
    RandomWaypoint {
        /// Area the node roams in.
        area: Rect,
        /// Travel speed in meters per second.
        speed_mps: f64,
        /// Pause at each waypoint in seconds.
        pause_s: f64,
    },
    /// Follow a fixed route of waypoints at constant speed, stopping at the
    /// last one (convoys, patrol routes, evacuation columns).
    Route {
        /// Ordered waypoints to visit.
        waypoints: Vec<Point>,
        /// Travel speed in meters per second.
        speed_mps: f64,
    },
}

/// A tag byte, then the variant's parameters. Tags are the format: a new
/// variant takes the next free one.
impl Wire for MobilityModel {
    fn put(&self, e: &mut Enc) {
        match self {
            MobilityModel::Static => e.u8(0),
            MobilityModel::RandomWaypoint {
                area,
                speed_mps,
                pause_s,
            } => {
                e.u8(1);
                e.put(area);
                e.f64(*speed_mps);
                e.f64(*pause_s);
            }
            MobilityModel::Route {
                waypoints,
                speed_mps,
            } => {
                e.u8(2);
                e.put(waypoints);
                e.f64(*speed_mps);
            }
        }
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
            0 => Ok(MobilityModel::Static),
            1 => Ok(MobilityModel::RandomWaypoint {
                area: d.get()?,
                speed_mps: d.f64()?,
                pause_s: d.f64()?,
            }),
            2 => Ok(MobilityModel::Route {
                waypoints: d.get()?,
                speed_mps: d.f64()?,
            }),
            tag => Err(DecodeError::UnknownTag {
                what: "mobility model",
                tag,
            }),
        }
    }
}

/// Per-node mobility state advanced by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct MobilityState {
    model: MobilityModel,
    position: Point,
    target: Option<Point>,
    pause_left_s: f64,
    route_index: usize,
}

wire_struct!(MobilityState {
    model,
    position,
    target,
    pause_left_s,
    route_index,
});

impl MobilityState {
    /// Creates mobility state at an initial position.
    pub fn new(model: MobilityModel, position: Point) -> Self {
        MobilityState {
            model,
            position,
            target: None,
            pause_left_s: 0.0,
            route_index: 0,
        }
    }

    /// Current position.
    pub const fn position(&self) -> Point {
        self.position
    }

    /// Advances the node by `dt_s` seconds, sampling any new waypoints from
    /// `rng`. Returns the new position.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R, dt_s: f64) -> Point {
        let dt_s = dt_s.max(0.0);
        match self.model.clone() {
            MobilityModel::Static => {}
            MobilityModel::RandomWaypoint {
                area,
                speed_mps,
                pause_s,
            } => {
                let mut remaining = dt_s;
                while remaining > 1e-12 {
                    if self.pause_left_s > 0.0 {
                        let wait = self.pause_left_s.min(remaining);
                        self.pause_left_s -= wait;
                        remaining -= wait;
                        continue;
                    }
                    let target = match self.target {
                        Some(t) => t,
                        None => {
                            let t = Point::new(
                                rng.gen_range(area.min().x..=area.max().x),
                                rng.gen_range(area.min().y..=area.max().y),
                            );
                            self.target = Some(t);
                            t
                        }
                    };
                    let dist = self.position.distance_to(target);
                    let step = speed_mps * remaining;
                    if step >= dist {
                        self.position = target;
                        self.target = None;
                        self.pause_left_s = pause_s;
                        remaining -= if speed_mps > 0.0 { dist / speed_mps } else { remaining };
                        if speed_mps <= 0.0 {
                            break;
                        }
                    } else {
                        let t = if dist > 0.0 { step / dist } else { 1.0 };
                        self.position = self.position.lerp(target, t);
                        remaining = 0.0;
                    }
                }
            }
            MobilityModel::Route {
                waypoints,
                speed_mps,
            } => {
                let mut remaining = dt_s;
                while remaining > 1e-12 && self.route_index < waypoints.len() {
                    let target = waypoints[self.route_index];
                    let dist = self.position.distance_to(target);
                    let step = speed_mps * remaining;
                    if step >= dist {
                        self.position = target;
                        self.route_index += 1;
                        remaining -= if speed_mps > 0.0 { dist / speed_mps } else { remaining };
                        if speed_mps <= 0.0 {
                            break;
                        }
                    } else {
                        let t = if dist > 0.0 { step / dist } else { 1.0 };
                        self.position = self.position.lerp(target, t);
                        remaining = 0.0;
                    }
                }
            }
        }
        self.position
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn static_nodes_never_move() {
        let mut m = MobilityState::new(MobilityModel::Static, Point::new(3.0, 4.0));
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(m.step(&mut rng, 5.0), Point::new(3.0, 4.0));
        }
    }

    #[test]
    fn route_visits_waypoints_in_order_then_stops() {
        let wps = vec![Point::new(10.0, 0.0), Point::new(10.0, 10.0)];
        let mut m = MobilityState::new(
            MobilityModel::Route {
                waypoints: wps,
                speed_mps: 1.0,
            },
            Point::ORIGIN,
        );
        let mut rng = StdRng::seed_from_u64(0);
        // After 5 s at 1 m/s: halfway to the first waypoint.
        m.step(&mut rng, 5.0);
        assert!((m.position().x - 5.0).abs() < 1e-9);
        // After another 15 s: reached both waypoints (10 + 10 = 20 m total).
        m.step(&mut rng, 15.0);
        assert_eq!(m.position(), Point::new(10.0, 10.0));
        // Further steps stay put.
        m.step(&mut rng, 100.0);
        assert_eq!(m.position(), Point::new(10.0, 10.0));
    }

    #[test]
    fn waypoint_speed_bounds_displacement() {
        let area = Rect::square(1_000.0);
        let mut m = MobilityState::new(
            MobilityModel::RandomWaypoint {
                area,
                speed_mps: 3.0,
                pause_s: 0.0,
            },
            Point::new(500.0, 500.0),
        );
        let mut rng = StdRng::seed_from_u64(1);
        let mut prev = m.position();
        for _ in 0..200 {
            let next = m.step(&mut rng, 1.0);
            assert!(prev.distance_to(next) <= 3.0 + 1e-9);
            assert!(area.contains(next));
            prev = next;
        }
    }

    #[test]
    fn waypoint_pause_holds_position() {
        let area = Rect::square(100.0);
        let mut m = MobilityState::new(
            MobilityModel::RandomWaypoint {
                area,
                speed_mps: 1_000.0, // reach waypoint within one step
                pause_s: 10.0,
            },
            Point::new(50.0, 50.0),
        );
        let mut rng = StdRng::seed_from_u64(2);
        m.step(&mut rng, 1.0); // arrives and begins pause
        let at_waypoint = m.position();
        let after_pause_step = m.step(&mut rng, 5.0); // still pausing
        assert_eq!(at_waypoint, after_pause_step);
    }

    #[test]
    fn zero_or_negative_dt_is_noop() {
        let mut m = MobilityState::new(
            MobilityModel::Route {
                waypoints: vec![Point::new(5.0, 0.0)],
                speed_mps: 1.0,
            },
            Point::ORIGIN,
        );
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(m.step(&mut rng, 0.0), Point::ORIGIN);
        assert_eq!(m.step(&mut rng, -3.0), Point::ORIGIN);
    }

    proptest! {
        #[test]
        fn waypoint_never_escapes_area(seed in 0u64..20, steps in 1usize..50,
                                       speed in 0.1..50.0f64) {
            let area = Rect::square(200.0);
            let mut m = MobilityState::new(
                MobilityModel::RandomWaypoint { area, speed_mps: speed, pause_s: 1.0 },
                Point::new(100.0, 100.0),
            );
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..steps {
                let p = m.step(&mut rng, 2.0);
                prop_assert!(area.contains(p));
            }
        }
    }
}
