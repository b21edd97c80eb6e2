//! Mission energy accounting: per-subsystem energy integration and the
//! per-phase mean power behind the paper's Fig. 9.

use mav_dynamics_phase::FlightPhaseLabel;
use mav_types::{Energy, Power, SimDuration};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Minimal mirror of the flight phase used for labelling power samples without
/// depending on the dynamics crate (the energy crate sits below it in the
/// dependency graph).
pub mod mav_dynamics_phase {
    use serde::{Deserialize, Serialize};

    /// Flight phase an energy-account record is filed under.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
    pub enum FlightPhaseLabel {
        /// Motors arming on the ground.
        Arming,
        /// Holding position.
        Hovering,
        /// Translating.
        Flying,
        /// Descending to land.
        Landing,
        /// Any other state (idle/landed).
        Ground,
    }

    impl std::fmt::Display for FlightPhaseLabel {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            let s = match self {
                FlightPhaseLabel::Arming => "arming",
                FlightPhaseLabel::Hovering => "hovering",
                FlightPhaseLabel::Flying => "flying",
                FlightPhaseLabel::Landing => "landing",
                FlightPhaseLabel::Ground => "ground",
            };
            f.write_str(s)
        }
    }
}

/// Constant draw of the other electronics (flight controller and sensors),
/// watts, matching the paper's power pie.
pub const OTHER_ELECTRONICS_WATTS: f64 = 2.0;

/// Number of [`FlightPhaseLabel`] variants: the accumulators are indexed by
/// declaration order, and `Ground` is the last variant.
const PHASES: usize = FlightPhaseLabel::Ground as usize + 1;

/// Aggregate energy split by subsystem plus the per-phase power means.
///
/// # Example
///
/// ```
/// use mav_energy::{EnergyAccount, FlightPhaseLabel};
/// use mav_types::{Power, SimDuration};
///
/// let mut account = EnergyAccount::new();
/// account.record(
///     SimDuration::from_secs(10.0),
///     Power::from_watts(300.0),
///     Power::from_watts(10.0),
///     FlightPhaseLabel::Flying,
/// );
/// assert!(account.rotor_fraction() > 0.9);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyAccount {
    rotor_energy: Energy,
    compute_energy: Energy,
    other_energy: Energy,
    /// Per phase: the sum of the recorded total powers in watts and the
    /// number of records, summed in record order.
    phase_power: [(f64, u64); PHASES],
}

impl EnergyAccount {
    /// Creates an empty account.
    pub fn new() -> Self {
        EnergyAccount::default()
    }

    /// Records one interval of the mission.
    pub fn record(
        &mut self,
        dt: SimDuration,
        rotor: Power,
        compute: Power,
        phase: FlightPhaseLabel,
    ) {
        let other = Power::from_watts(OTHER_ELECTRONICS_WATTS);
        self.rotor_energy += rotor.over(dt);
        self.compute_energy += compute.over(dt);
        self.other_energy += other.over(dt);
        let (sum, count) = &mut self.phase_power[phase as usize];
        *sum += (rotor + compute + other).as_watts();
        *count += 1;
    }

    /// Total energy consumed by the rotors.
    pub fn rotor_energy(&self) -> Energy {
        self.rotor_energy
    }

    /// Total energy consumed by the companion computer.
    pub fn compute_energy(&self) -> Energy {
        self.compute_energy
    }

    /// Total energy consumed by the other electronics.
    pub fn other_energy(&self) -> Energy {
        self.other_energy
    }

    /// Total system energy.
    pub fn total_energy(&self) -> Energy {
        self.rotor_energy + self.compute_energy + self.other_energy
    }

    /// Fraction of the total energy that went to the rotors.
    pub fn rotor_fraction(&self) -> f64 {
        self.rotor_energy.fraction_of(self.total_energy())
    }

    /// Fraction of the total energy that went to compute.
    pub fn compute_fraction(&self) -> f64 {
        self.compute_energy.fraction_of(self.total_energy())
    }

    /// Mean total power over the records of a specific flight phase (one
    /// record per interval, whatever its length), or `None` when the phase
    /// never occurred.
    pub fn average_power_in_phase(&self, phase: FlightPhaseLabel) -> Option<Power> {
        let (sum, count) = self.phase_power[phase as usize];
        (count > 0).then(|| Power::from_watts(sum / count as f64))
    }
}

impl fmt::Display for EnergyAccount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "energy[total {} | rotors {:.1}% compute {:.1}%]",
            self.total_energy(),
            self.rotor_fraction() * 100.0,
            self.compute_fraction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One recorded interval: (phase, dt seconds, rotor W, compute W).
    type Interval = (FlightPhaseLabel, f64, f64, f64);

    /// A mission profile with unequal step lengths: every phase ends on a
    /// short final step, like `MissionContext::advance` does.
    fn profile() -> Vec<Interval> {
        let mut intervals = Vec::new();
        for (phase, rotor, steps) in [
            (FlightPhaseLabel::Arming, 80.0, 5),
            (FlightPhaseLabel::Hovering, 287.0, 10),
            (FlightPhaseLabel::Flying, 330.0, 40),
            (FlightPhaseLabel::Landing, 250.0, 5),
        ] {
            for i in 0..steps {
                // A little rotor-power ripple so the sums round.
                let ripple = 0.1 * f64::from(i % 7);
                intervals.push((phase, 0.05, rotor + ripple, 13.0));
            }
            intervals.push((phase, 0.0173, rotor - 0.3, 13.0));
        }
        intervals
    }

    fn record_all(intervals: &[Interval]) -> EnergyAccount {
        let mut acc = EnergyAccount::new();
        for &(phase, dt, rotor, compute) in intervals {
            acc.record(
                SimDuration::from_secs(dt),
                Power::from_watts(rotor),
                Power::from_watts(compute),
                phase,
            );
        }
        acc
    }

    fn filled_account() -> EnergyAccount {
        record_all(&profile())
    }

    #[test]
    fn rotors_dominate_the_energy_pie() {
        let acc = filled_account();
        assert!(acc.rotor_fraction() > 0.9);
        assert!(acc.compute_fraction() < 0.06);
        assert!(acc.total_energy() > acc.rotor_energy());
    }

    #[test]
    fn phase_means_match_the_recorded_samples_bit_for_bit() {
        let intervals = profile();
        let acc = record_all(&intervals);
        for phase in [
            FlightPhaseLabel::Arming,
            FlightPhaseLabel::Hovering,
            FlightPhaseLabel::Flying,
            FlightPhaseLabel::Landing,
        ] {
            // The sample mean over this phase's records, in record order.
            let totals: Vec<f64> = intervals
                .iter()
                .filter(|interval| interval.0 == phase)
                .map(|&(_, _, rotor, compute)| {
                    (Power::from_watts(rotor)
                        + Power::from_watts(compute)
                        + Power::from_watts(OTHER_ELECTRONICS_WATTS))
                    .as_watts()
                })
                .collect();
            let expected = totals.iter().sum::<f64>() / totals.len() as f64;
            let mean = acc.average_power_in_phase(phase).unwrap().as_watts();
            assert_eq!(mean.to_bits(), expected.to_bits(), "{phase}");
        }
    }

    #[test]
    fn per_phase_power_ordering() {
        let acc = filled_account();
        let hover = acc
            .average_power_in_phase(FlightPhaseLabel::Hovering)
            .unwrap();
        let fly = acc
            .average_power_in_phase(FlightPhaseLabel::Flying)
            .unwrap();
        let arm = acc
            .average_power_in_phase(FlightPhaseLabel::Arming)
            .unwrap();
        assert!(fly > hover);
        assert!(hover > arm);
        assert!(acc
            .average_power_in_phase(FlightPhaseLabel::Ground)
            .is_none());
    }

    #[test]
    fn energy_is_power_times_time() {
        let mut acc = EnergyAccount::new();
        acc.record(
            SimDuration::from_secs(100.0),
            Power::from_watts(300.0),
            Power::from_watts(10.0),
            FlightPhaseLabel::Flying,
        );
        assert!((acc.rotor_energy().as_kilojoules() - 30.0).abs() < 1e-9);
        assert!((acc.compute_energy().as_kilojoules() - 1.0).abs() < 1e-9);
        assert!((acc.other_energy().as_joules() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn empty_account_is_well_behaved() {
        let acc = EnergyAccount::new();
        assert_eq!(acc.total_energy(), Energy::ZERO);
        assert_eq!(acc.rotor_fraction(), 0.0);
        assert!(acc
            .average_power_in_phase(FlightPhaseLabel::Flying)
            .is_none());
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", filled_account()).is_empty());
        assert!(!format!("{}", FlightPhaseLabel::Flying).is_empty());
    }
}
