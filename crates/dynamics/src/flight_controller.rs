//! Flight controller: high-level command lowering and flight-phase tracking.
//!
//! This is the MAVBench-RS stand-in for the PX4/Pixhawk autopilot. It accepts
//! high-level commands (arm, take off, fly a velocity setpoint, hover, land),
//! lowers them to the velocity commands the point-mass quadrotor tracks, and
//! reports the flight phase the energy account files power under (Fig. 9b of the
//! paper distinguishes arming, hovering, flying and landing power).

use crate::quadrotor::Quadrotor;
use crate::state::MavState;
use mav_types::Vec3;
use serde::{Deserialize, Serialize};
use std::fmt;

/// High-level commands issued by the application's control stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FlightCommand {
    /// Spin up the motors on the ground.
    Arm,
    /// Climb vertically to the given altitude (metres).
    TakeOff {
        /// Target altitude above ground, metres.
        altitude: f64,
    },
    /// Hold the current position.
    Hover,
    /// Track a world-frame velocity setpoint.
    Velocity {
        /// Commanded velocity, m/s.
        setpoint: Vec3,
    },
    /// Descend and disarm.
    Land,
}

/// The phase of flight the vehicle is currently in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlightPhase {
    /// Motors off, on the ground.
    Idle,
    /// Motors spinning, still on the ground.
    Armed,
    /// Climbing to the take-off altitude.
    TakingOff,
    /// Holding position in the air.
    Hovering,
    /// Tracking a velocity or trajectory.
    Flying,
    /// Descending to land.
    Landing,
    /// Back on the ground after landing.
    Landed,
}

impl FlightPhase {
    /// Returns `true` when the rotors are producing lift (i.e. the rotor power
    /// model applies).
    pub fn rotors_active(&self) -> bool {
        !matches!(self, FlightPhase::Idle | FlightPhase::Landed)
    }
}

impl fmt::Display for FlightPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FlightPhase::Idle => "idle",
            FlightPhase::Armed => "armed",
            FlightPhase::TakingOff => "taking-off",
            FlightPhase::Hovering => "hovering",
            FlightPhase::Flying => "flying",
            FlightPhase::Landing => "landing",
            FlightPhase::Landed => "landed",
        };
        f.write_str(s)
    }
}

/// The flight controller.
///
/// # Example
///
/// ```
/// use mav_dynamics::{FlightController, FlightCommand, FlightPhase, Quadrotor, QuadrotorConfig};
/// use mav_types::{Pose, Vec3};
///
/// let mut quad = Quadrotor::new(QuadrotorConfig::default(), Pose::origin());
/// let mut fc = FlightController::new();
/// fc.command(FlightCommand::Arm);
/// fc.command(FlightCommand::TakeOff { altitude: 2.5 });
/// for _ in 0..200 {
///     fc.update(&mut quad, 0.05);
/// }
/// assert_eq!(fc.phase(), FlightPhase::Hovering);
/// assert!((quad.state().pose.position.z - 2.5).abs() < 0.3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightController {
    phase: FlightPhase,
    takeoff_altitude: f64,
    velocity_setpoint: Vec3,
    hover_position: Option<Vec3>,
    /// Proportional gain used for hover position hold and take-off/landing
    /// altitude tracking.
    position_gain: f64,
}

impl FlightController {
    /// Creates a flight controller in the idle phase.
    pub fn new() -> Self {
        FlightController {
            phase: FlightPhase::Idle,
            takeoff_altitude: 2.0,
            velocity_setpoint: Vec3::ZERO,
            hover_position: None,
            position_gain: 1.2,
        }
    }

    /// The current flight phase.
    pub fn phase(&self) -> FlightPhase {
        self.phase
    }

    /// Returns `true` once the vehicle is airborne and accepting velocity
    /// commands (hovering or flying).
    pub fn is_airborne(&self) -> bool {
        matches!(self.phase, FlightPhase::Hovering | FlightPhase::Flying)
    }

    /// Accepts a high-level command. Illegal transitions (e.g. `TakeOff`
    /// while idle and unarmed) are ignored, matching autopilot behaviour of
    /// rejecting commands in the wrong mode.
    pub fn command(&mut self, cmd: FlightCommand) {
        match (self.phase, cmd) {
            (FlightPhase::Idle | FlightPhase::Landed, FlightCommand::Arm) => {
                self.phase = FlightPhase::Armed;
            }
            (FlightPhase::Armed, FlightCommand::TakeOff { altitude }) => {
                self.takeoff_altitude = altitude.max(0.5);
                self.phase = FlightPhase::TakingOff;
            }
            (FlightPhase::Hovering | FlightPhase::Flying, FlightCommand::Velocity { setpoint }) => {
                self.velocity_setpoint = setpoint;
                self.hover_position = None;
                self.phase = FlightPhase::Flying;
            }
            (FlightPhase::Flying | FlightPhase::Hovering, FlightCommand::Hover) => {
                self.phase = FlightPhase::Hovering;
                self.hover_position = None; // latched on next update
            }
            (
                FlightPhase::Hovering | FlightPhase::Flying | FlightPhase::TakingOff,
                FlightCommand::Land,
            ) => {
                self.phase = FlightPhase::Landing;
            }
            _ => {}
        }
    }

    /// Runs one control step: converts the current phase into a velocity
    /// command for the quadrotor and integrates it by `dt` seconds.
    ///
    /// Returns the vehicle state after the step.
    pub fn update(&mut self, quad: &mut Quadrotor, dt: f64) -> MavState {
        let state = *quad.state();
        let cmd = match self.phase {
            FlightPhase::Idle | FlightPhase::Armed | FlightPhase::Landed => Vec3::ZERO,
            FlightPhase::TakingOff => {
                if state.pose.position.z >= self.takeoff_altitude - 0.1 {
                    self.phase = FlightPhase::Hovering;
                    self.hover_position = Some(state.pose.position);
                    Vec3::ZERO
                } else {
                    Vec3::new(
                        0.0,
                        0.0,
                        (self.takeoff_altitude - state.pose.position.z).min(2.0),
                    )
                }
            }
            FlightPhase::Hovering => {
                let anchor = *self.hover_position.get_or_insert(state.pose.position);
                (anchor - state.pose.position) * self.position_gain
            }
            FlightPhase::Flying => self.velocity_setpoint,
            FlightPhase::Landing => {
                if state.pose.position.z <= 0.1 {
                    self.phase = FlightPhase::Landed;
                    quad.halt();
                    Vec3::ZERO
                } else {
                    Vec3::new(0.0, 0.0, -(state.pose.position.z).min(1.5))
                }
            }
        };
        if self.phase == FlightPhase::Landed || self.phase == FlightPhase::Idle {
            // Vehicle is on the ground; don't integrate.
            return *quad.state();
        }
        quad.step(cmd, dt);
        *quad.state()
    }
}

impl Default for FlightController {
    fn default() -> Self {
        FlightController::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadrotor::QuadrotorConfig;
    use mav_types::Pose;

    fn setup() -> (Quadrotor, FlightController) {
        (
            Quadrotor::new(QuadrotorConfig::dji_matrice_100(), Pose::origin()),
            FlightController::new(),
        )
    }

    fn run(fc: &mut FlightController, quad: &mut Quadrotor, steps: usize) {
        for _ in 0..steps {
            fc.update(quad, 0.05);
        }
    }

    #[test]
    fn full_flight_cycle() {
        let (mut quad, mut fc) = setup();
        assert_eq!(fc.phase(), FlightPhase::Idle);
        fc.command(FlightCommand::Arm);
        assert_eq!(fc.phase(), FlightPhase::Armed);
        fc.command(FlightCommand::TakeOff { altitude: 3.0 });
        run(&mut fc, &mut quad, 300);
        assert_eq!(fc.phase(), FlightPhase::Hovering);
        assert!((quad.state().pose.position.z - 3.0).abs() < 0.3);

        fc.command(FlightCommand::Velocity {
            setpoint: Vec3::new(4.0, 0.0, 0.0),
        });
        run(&mut fc, &mut quad, 100);
        assert_eq!(fc.phase(), FlightPhase::Flying);
        assert!(quad.state().pose.position.x > 5.0);

        fc.command(FlightCommand::Hover);
        run(&mut fc, &mut quad, 200);
        assert_eq!(fc.phase(), FlightPhase::Hovering);
        assert!(quad.state().speed() < 0.5);

        fc.command(FlightCommand::Land);
        run(&mut fc, &mut quad, 400);
        assert_eq!(fc.phase(), FlightPhase::Landed);
        assert!(quad.state().pose.position.z < 0.2);
        assert!(!fc.is_airborne());
    }

    #[test]
    fn illegal_transitions_are_ignored() {
        let (mut quad, mut fc) = setup();
        // Take off before arming: ignored.
        fc.command(FlightCommand::TakeOff { altitude: 3.0 });
        assert_eq!(fc.phase(), FlightPhase::Idle);
        // Velocity on the ground: ignored.
        fc.command(FlightCommand::Velocity {
            setpoint: Vec3::UNIT_X,
        });
        assert_eq!(fc.phase(), FlightPhase::Idle);
        run(&mut fc, &mut quad, 20);
        assert!(quad.state().is_stationary());
    }

    #[test]
    fn hover_holds_position() {
        let (mut quad, mut fc) = setup();
        fc.command(FlightCommand::Arm);
        fc.command(FlightCommand::TakeOff { altitude: 2.0 });
        run(&mut fc, &mut quad, 200);
        let anchor = quad.state().pose.position;
        run(&mut fc, &mut quad, 200);
        assert!(quad.state().pose.position.distance(&anchor) < 0.2);
    }

    #[test]
    fn rotors_active_phases() {
        assert!(!FlightPhase::Idle.rotors_active());
        assert!(!FlightPhase::Landed.rotors_active());
        assert!(FlightPhase::Hovering.rotors_active());
        assert!(FlightPhase::Flying.rotors_active());
        assert!(FlightPhase::TakingOff.rotors_active());
    }

    #[test]
    fn rearming_after_landing() {
        let (mut quad, mut fc) = setup();
        fc.command(FlightCommand::Arm);
        fc.command(FlightCommand::TakeOff { altitude: 1.0 });
        run(&mut fc, &mut quad, 200);
        fc.command(FlightCommand::Land);
        run(&mut fc, &mut quad, 300);
        assert_eq!(fc.phase(), FlightPhase::Landed);
        fc.command(FlightCommand::Arm);
        assert_eq!(fc.phase(), FlightPhase::Armed);
    }

    #[test]
    fn display_nonempty() {
        for p in [
            FlightPhase::Idle,
            FlightPhase::Armed,
            FlightPhase::TakingOff,
            FlightPhase::Hovering,
            FlightPhase::Flying,
            FlightPhase::Landing,
            FlightPhase::Landed,
        ] {
            assert!(!format!("{p}").is_empty());
        }
    }
}
