//! A PI admission controller — the "adaptive control" face of self-aware
//! adaptation (§IV-A's third multi-disciplinary example).
//!
//! The plant is a work queue: jobs arrive at an uncontrolled rate, the
//! controller sets the admission/service allocation to keep queue
//! occupancy at a setpoint. The integral term removes steady-state error;
//! anti-windup clamps the integrator when actuation saturates.
//!
//! Nothing outside these tests drives a controller, so the controller
//! and its plant are defined with them.

#[cfg(test)]
mod tests {
    /// PI controller with output clamping and integrator anti-windup.
    #[derive(Debug, Clone, PartialEq)]
    struct PiController {
        kp: f64,
        ki: f64,
        setpoint: f64,
        integral: f64,
        output_min: f64,
        output_max: f64,
    }

    impl PiController {
        /// Creates a controller tracking `setpoint` with gains `kp`, `ki`,
        /// and actuation limits `[output_min, output_max]`.
        ///
        /// # Panics
        ///
        /// Panics when `output_min > output_max`.
        fn new(kp: f64, ki: f64, setpoint: f64, output_min: f64, output_max: f64) -> Self {
            assert!(output_min <= output_max, "invalid actuation limits");
            PiController {
                kp,
                ki,
                setpoint,
                integral: 0.0,
                output_min,
                output_max,
            }
        }

        /// One control step: reads the measured value, returns the clamped
        /// actuation. `dt` is the step length in seconds.
        fn step(&mut self, measurement: f64, dt: f64) -> f64 {
            let dt = dt.max(0.0);
            let error = self.setpoint - measurement;
            let unclamped = self.kp * error + self.ki * (self.integral + error * dt);
            let output = unclamped.clamp(self.output_min, self.output_max);
            // Anti-windup: only integrate when not pushing further into
            // saturation.
            let saturated_high = unclamped > self.output_max && error > 0.0;
            let saturated_low = unclamped < self.output_min && error < 0.0;
            if !saturated_high && !saturated_low {
                self.integral += error * dt;
            }
            output
        }
    }

    /// A first-order queue plant: occupancy integrates `arrivals - service`,
    /// floored at zero.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct QueuePlant {
        occupancy: f64,
    }

    impl QueuePlant {
        /// Creates an empty queue.
        fn new() -> Self {
            QueuePlant { occupancy: 0.0 }
        }

        /// Advances the queue by `dt` seconds with the given arrival and
        /// service rates (jobs/s).
        fn step(&mut self, arrival_rate: f64, service_rate: f64, dt: f64) {
            self.occupancy = (self.occupancy + (arrival_rate - service_rate) * dt).max(0.0);
        }
    }

    /// Closed loop: the controller sets the *service* rate to keep the
    /// queue at the setpoint.
    fn run_loop(
        controller: &mut PiController,
        plant: &mut QueuePlant,
        arrival: impl Fn(usize) -> f64,
        steps: usize,
    ) -> Vec<f64> {
        let mut trace = Vec::with_capacity(steps);
        for t in 0..steps {
            // Negative-feedback sign: occupancy above the setpoint needs
            // MORE service, so feed the controller the negated error
            // measurement by swapping the roles: track -occupancy against
            // -setpoint. Equivalent and keeps the PI form standard.
            let service = controller.step(-plant.occupancy, 0.1);
            plant.step(arrival(t), service, 0.1);
            trace.push(plant.occupancy);
        }
        trace
    }

    fn controller() -> PiController {
        // Track -occupancy at -20 → occupancy at 20.
        PiController::new(2.0, 1.0, -20.0, 0.0, 200.0)
    }

    #[test]
    fn converges_to_setpoint_under_constant_load() {
        let mut c = controller();
        let mut plant = QueuePlant::new();
        let trace = run_loop(&mut c, &mut plant, |_| 50.0, 2_000);
        let tail = &trace[trace.len() - 100..];
        let mean: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(
            (mean - 20.0).abs() < 2.0,
            "steady state near setpoint: {mean}"
        );
    }

    #[test]
    fn tracks_a_load_step() {
        let mut c = controller();
        let mut plant = QueuePlant::new();
        // Load doubles halfway through.
        let trace = run_loop(
            &mut c,
            &mut plant,
            |t| if t < 1_500 { 40.0 } else { 80.0 },
            3_000,
        );
        let tail: f64 =
            trace[2_900..].iter().sum::<f64>() / 100.0;
        assert!(
            (tail - 20.0).abs() < 3.0,
            "recovers the setpoint after the step: {tail}"
        );
    }

    #[test]
    fn actuation_respects_limits() {
        let mut c = PiController::new(10.0, 5.0, -5.0, 0.0, 30.0);
        let mut plant = QueuePlant::new();
        for t in 0..500 {
            let service = c.step(-plant.occupancy, 0.1);
            assert!((0.0..=30.0).contains(&service), "clamped output");
            plant.step(100.0, service, 0.1); // overload: arrivals > max service
            let _ = t;
        }
        // Overloaded queue grows — but output stayed clamped the whole time.
        assert!(plant.occupancy > 100.0);
    }

    #[test]
    fn anti_windup_recovers_quickly_after_overload() {
        let mut c = controller();
        let mut plant = QueuePlant::new();
        // Phase 1: impossible load (saturates actuation, would wind up).
        run_loop(&mut c, &mut plant, |_| 500.0, 300);
        // Phase 2: load returns to normal; queue must drain and settle.
        let trace = run_loop(&mut c, &mut plant, |_| 40.0, 3_000);
        let tail: f64 = trace[trace.len() - 100..].iter().sum::<f64>() / 100.0;
        assert!(
            (tail - 20.0).abs() < 3.0,
            "recovers after saturation: {tail}"
        );
    }

    #[test]
    fn queue_never_negative() {
        let mut plant = QueuePlant::new();
        plant.step(0.0, 100.0, 1.0);
        assert_eq!(plant.occupancy, 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid actuation limits")]
    fn rejects_inverted_limits() {
        PiController::new(1.0, 1.0, 0.0, 10.0, 0.0);
    }
}
