//! A small backup battery / supercapacitor model, and the two hourly
//! battery steps every engine shares.
//!
//! [`BatterySpec`] holds a battery's constants and runs the steps on a
//! level in plain joules: the open-loop budget grant
//! ([`BatterySpec::open_loop_step`]) and the hour's execution
//! ([`BatterySpec::execute`]). The scalar engine, the struct-of-arrays
//! fleet kernel and the resident daemon all call these, so the
//! arithmetic — and therefore every bit of their outcomes — is written
//! once.

use reap_units::Energy;

use crate::HarvestError;

/// A delivery within this many joules of the deficit still counts as a
/// fully realized hour in [`BatterySpec::execute`].
const BROWNOUT_EPS_J: f64 = 1e-12;

/// A battery's constants: capacity and charge/discharge efficiencies.
///
/// `Copy`, so a fleet holds it once and keeps each user's level as one
/// `f64`. Every method takes the level in joules and leaves it inside
/// `[0, capacity]` when it starts there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatterySpec {
    capacity_j: f64,
    charge_efficiency: f64,
    discharge_efficiency: f64,
}

impl BatterySpec {
    /// Maximum stored energy, joules.
    #[must_use]
    pub fn capacity_j(self) -> f64 {
        self.capacity_j
    }

    /// What a load could draw from `level_j` (post-efficiency), joules.
    #[inline]
    #[must_use]
    pub fn deliverable_j(self, level_j: f64) -> f64 {
        level_j * self.discharge_efficiency
    }

    /// The allocator's proposal: `expected_j` plus `gain` times the
    /// level's divergence from half full, never negative. This is the
    /// battery correction of every [`BudgetAllocator`](crate::BudgetAllocator).
    #[inline]
    #[must_use]
    pub fn propose(self, expected_j: f64, level_j: f64, gain: f64) -> f64 {
        let correction = (level_j - self.capacity_j * 0.5) * gain;
        (expected_j + correction).max(0.0)
    }

    /// The open-loop grant for one hour, spending nothing: the proposal
    /// ([`BatterySpec::propose`]) clamped to the supply — what `level_j`
    /// can deliver plus the hour's `harvested_j` — but never below the
    /// monitoring `floor_j` while the supply still covers it.
    ///
    /// The supply counts the hour's own harvest because execution banks
    /// it before spending the budget, so a dark battery must not deny
    /// the floor in a bright hour. Pass `harvested_j = 0` when the
    /// hour's harvest is not yet known.
    #[inline]
    #[must_use]
    pub fn grant(
        self,
        level_j: f64,
        expected_j: f64,
        gain: f64,
        harvested_j: f64,
        floor_j: f64,
    ) -> f64 {
        let proposed = self.propose(expected_j, level_j, gain);
        let supply = self.deliverable_j(level_j) + harvested_j;
        proposed.min(supply).max(floor_j.min(supply))
    }

    /// One hour of the open-loop budget protocol on a *virtual* level:
    /// [`BatterySpec::grant`], then the level banks `harvested_j` and
    /// spends the whole grant. Returns the grant.
    #[inline]
    pub fn open_loop_step(
        self,
        level_j: &mut f64,
        expected_j: f64,
        gain: f64,
        harvested_j: f64,
        floor_j: f64,
    ) -> f64 {
        let budget = self.grant(*level_j, expected_j, gain, harvested_j, floor_j);
        self.charge(level_j, harvested_j);
        self.discharge(level_j, budget);
        budget
    }

    /// Executes one step that needs `needed_j` against a real level:
    /// draw from the incoming `harvested_j` first (banking any surplus),
    /// then from the battery, browning out proportionally when supply
    /// falls short. Returns the realized fraction of `needed_j`, in
    /// `[0, 1]`.
    ///
    /// Branch-free in the level arithmetic: on a charging step the
    /// deficit is exactly zero, so the discharge is a no-op, and vice
    /// versa. Batched callers vectorize it.
    #[inline]
    pub fn execute(self, level_j: &mut f64, harvested_j: f64, needed_j: f64) -> f64 {
        self.charge(level_j, (harvested_j - needed_j).max(0.0));
        let deficit = (needed_j - harvested_j).max(0.0);
        let delivered = self.discharge(level_j, deficit);
        if delivered + BROWNOUT_EPS_J < deficit && needed_j > 0.0 {
            ((harvested_j + delivered) / needed_j).clamp(0.0, 1.0)
        } else {
            1.0
        }
    }

    /// Stores `energy_j` (pre-efficiency) up to the capacity. Returns
    /// the energy stored.
    #[inline]
    fn charge(self, level_j: &mut f64, energy_j: f64) -> f64 {
        let stored = (energy_j * self.charge_efficiency).min(self.capacity_j - *level_j);
        *level_j += stored;
        stored
    }

    /// Draws enough to deliver `energy_j`, or all there is. Returns the
    /// energy delivered (post-efficiency).
    #[inline]
    fn discharge(self, level_j: &mut f64, energy_j: f64) -> f64 {
        let drawn = (energy_j / self.discharge_efficiency).min(*level_j);
        *level_j -= drawn;
        drawn * self.discharge_efficiency
    }
}

/// A small energy buffer with charge/discharge efficiencies.
///
/// The paper's second device class "uses a small battery as a backup to
/// extend the active time"; the allocator policies lean on this buffer to
/// smooth day/night harvesting.
#[derive(Debug, Clone, PartialEq)]
pub struct Battery {
    spec: BatterySpec,
    level: Energy,
}

impl Battery {
    /// A 60 J buffer starting half full — enough to carry roughly a night
    /// of low-power operation.
    #[must_use]
    pub fn small_wearable() -> Battery {
        Battery::new(
            Energy::from_joules(60.0),
            Energy::from_joules(30.0),
            0.95,
            0.95,
        )
        .expect("constants are valid")
    }

    /// Creates a battery.
    ///
    /// # Errors
    ///
    /// [`HarvestError::InvalidParameter`] when the capacity is
    /// non-positive, the initial level is outside `[0, capacity]`, or an
    /// efficiency is outside `(0, 1]`.
    pub fn new(
        capacity: Energy,
        initial_level: Energy,
        charge_efficiency: f64,
        discharge_efficiency: f64,
    ) -> Result<Battery, HarvestError> {
        if !capacity.is_finite() || capacity.joules() <= 0.0 {
            return Err(HarvestError::InvalidParameter(format!(
                "capacity {capacity} must be positive"
            )));
        }
        if !initial_level.is_finite() || initial_level.is_negative() || initial_level > capacity {
            return Err(HarvestError::InvalidParameter(format!(
                "initial level {initial_level} outside [0, {capacity}]"
            )));
        }
        for (name, v) in [
            ("charge efficiency", charge_efficiency),
            ("discharge efficiency", discharge_efficiency),
        ] {
            if !v.is_finite() || v <= 0.0 || v > 1.0 {
                return Err(HarvestError::InvalidParameter(format!(
                    "{name} {v} outside (0, 1]"
                )));
            }
        }
        Ok(Battery {
            spec: BatterySpec {
                capacity_j: capacity.joules(),
                charge_efficiency,
                discharge_efficiency,
            },
            level: initial_level,
        })
    }

    /// The battery's constants, for stepping a level kept outside it.
    #[must_use]
    pub fn spec(&self) -> BatterySpec {
        self.spec
    }

    /// Current stored energy.
    #[must_use]
    pub fn level(&self) -> Energy {
        self.level
    }

    /// Maximum stored energy.
    #[must_use]
    pub fn capacity(&self) -> Energy {
        Energy::from_joules(self.spec.capacity_j)
    }

    /// State of charge in `[0, 1]`.
    #[must_use]
    pub fn state_of_charge(&self) -> f64 {
        self.level.joules() / self.spec.capacity_j
    }

    /// Fraction of incoming energy actually stored, in `(0, 1]`.
    #[must_use]
    pub fn charge_efficiency(&self) -> f64 {
        self.spec.charge_efficiency
    }

    /// Fraction of drawn energy actually delivered, in `(0, 1]`.
    #[must_use]
    pub fn discharge_efficiency(&self) -> f64 {
        self.spec.discharge_efficiency
    }

    /// Charges with `energy` (pre-efficiency). Returns the energy that
    /// *spilled* (could not be stored because the battery was full).
    ///
    /// # Panics
    ///
    /// Panics if `energy` is negative.
    pub fn charge(&mut self, energy: Energy) -> Energy {
        assert!(!energy.is_negative(), "cannot charge negative energy");
        let mut level = self.level.joules();
        let stored = self.spec.charge(&mut level, energy.joules());
        self.level = Energy::from_joules(level);
        // Spill reported at the input side (before efficiency) for the
        // part that did not fit.
        let eff = self.spec.charge_efficiency;
        Energy::from_joules((energy.joules() * eff - stored) / eff)
    }

    /// Draws up to `energy` from the battery. Returns the energy actually
    /// *delivered* to the load (post-efficiency), which is less than
    /// requested when the battery runs dry.
    ///
    /// # Panics
    ///
    /// Panics if `energy` is negative.
    pub fn discharge(&mut self, energy: Energy) -> Energy {
        assert!(!energy.is_negative(), "cannot discharge negative energy");
        let mut level = self.level.joules();
        let delivered = self.spec.discharge(&mut level, energy.joules());
        self.level = Energy::from_joules(level);
        Energy::from_joules(delivered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn joules(j: f64) -> Energy {
        Energy::from_joules(j)
    }

    #[test]
    fn validation() {
        assert!(Battery::new(joules(0.0), joules(0.0), 0.9, 0.9).is_err());
        assert!(Battery::new(joules(10.0), joules(11.0), 0.9, 0.9).is_err());
        assert!(Battery::new(joules(10.0), joules(5.0), 0.0, 0.9).is_err());
        assert!(Battery::new(joules(10.0), joules(5.0), 0.9, 1.1).is_err());
    }

    #[test]
    fn charge_respects_capacity_and_reports_spill() {
        let mut b = Battery::new(joules(10.0), joules(9.0), 1.0, 1.0).unwrap();
        let spill = b.charge(joules(3.0));
        assert!((b.level().joules() - 10.0).abs() < 1e-12);
        assert!((spill.joules() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn charge_efficiency_loses_energy() {
        let mut b = Battery::new(joules(100.0), joules(0.0), 0.8, 1.0).unwrap();
        let spill = b.charge(joules(10.0));
        assert_eq!(spill, Energy::ZERO);
        assert!((b.level().joules() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn discharge_delivers_up_to_level() {
        let mut b = Battery::new(joules(10.0), joules(4.0), 1.0, 1.0).unwrap();
        let got = b.discharge(joules(6.0));
        assert!((got.joules() - 4.0).abs() < 1e-12);
        assert_eq!(b.level(), Energy::ZERO);
    }

    #[test]
    fn discharge_efficiency_costs_extra() {
        let mut b = Battery::new(joules(10.0), joules(10.0), 1.0, 0.5).unwrap();
        let got = b.discharge(joules(2.0));
        assert!((got.joules() - 2.0).abs() < 1e-12);
        // Delivering 2 J at 50% efficiency drained 4 J.
        assert!((b.level().joules() - 6.0).abs() < 1e-12);
        assert!((b.spec().deliverable_j(b.level().joules()) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn state_of_charge() {
        let b = Battery::new(joules(60.0), joules(30.0), 0.95, 0.95).unwrap();
        assert!((b.state_of_charge() - 0.5).abs() < 1e-12);
        assert_eq!(Battery::small_wearable(), b);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_charge_panics() {
        let mut b = Battery::small_wearable();
        let _ = b.charge(joules(-1.0));
    }
}
