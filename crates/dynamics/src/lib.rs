//! Quadrotor dynamics and flight control for MAVBench-RS.
//!
//! This crate is the stand-in for AirSim's vehicle model plus the PX4 flight
//! stack: a point-mass quadrotor with velocity/acceleration limits and a
//! flight controller that lowers high-level commands (arm, take off, fly,
//! hover, land) into velocity tracking, while reporting the flight phase used
//! by the energy account's per-phase power means.
//!
//! # Example
//!
//! ```
//! use mav_dynamics::{FlightCommand, FlightController, Quadrotor, QuadrotorConfig};
//! use mav_types::{Pose, Vec3};
//!
//! let mut quad = Quadrotor::new(QuadrotorConfig::dji_matrice_100(), Pose::origin());
//! let mut fc = FlightController::new();
//! fc.command(FlightCommand::Arm);
//! fc.command(FlightCommand::TakeOff { altitude: 2.0 });
//! for _ in 0..200 { fc.update(&mut quad, 0.05); }
//! assert!(fc.is_airborne());
//! ```

#![warn(missing_docs)]

pub mod flight_controller;
pub mod quadrotor;
pub mod state;

pub use flight_controller::{FlightCommand, FlightController, FlightPhase};
pub use quadrotor::{Quadrotor, QuadrotorConfig};
pub use state::MavState;
