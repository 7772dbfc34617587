//! Hourly energy-budget allocation policies.
//!
//! REAP assumes "Energy budget Eb ... is determined by energy allocation
//! techniques using the expected amount of harvested energy and battery
//! capacity" (Sec. 3.2, citing Kansal et al. and Bhat et al.). This module
//! provides three such policies with a common interface so the simulator
//! can ablate them. Each policy only forms an expectation of the coming
//! hour's harvest; the battery correction, the grant clamp and the
//! battery arithmetic live once, in [`BatterySpec`](crate::BatterySpec).

use reap_units::Energy;

use crate::forecast::DiurnalEwma;
use crate::Battery;

/// The EWMA and uniform-daily allocators' battery gain.
const BATTERY_GAIN: f64 = 0.1;
/// The greedy allocator's battery gain.
const GREEDY_GAIN: f64 = 0.25;

/// A policy that decides each period's energy budget from the harvesting
/// history and battery state.
///
/// A policy supplies two things: its expectation of the upcoming hour's
/// harvest ([`BudgetAllocator::expected`]) and how hard it steers the
/// battery back toward half full ([`BudgetAllocator::battery_gain`]).
/// The budget is the expectation plus that one correction
/// ([`BatterySpec::propose`](crate::BatterySpec::propose)).
pub trait BudgetAllocator {
    /// Expected harvest for the upcoming hour, before the battery
    /// correction. Folds `harvested_last_hour` into the policy's memory,
    /// so call it once per hour, in order, *before* the hour runs.
    fn expected(&mut self, hour_of_day: u32, harvested_last_hour: Energy) -> Energy;

    /// Fraction of the battery's divergence from half full budgeted per
    /// hour.
    fn battery_gain(&self) -> f64;

    /// Budget for the upcoming hour: [`BudgetAllocator::expected`] plus
    /// the battery correction against `battery`.
    fn allocate(
        &mut self,
        hour_of_day: u32,
        harvested_last_hour: Energy,
        battery: &Battery,
    ) -> Energy {
        let expected = self.expected(hour_of_day, harvested_last_hour);
        Energy::from_joules(battery.spec().propose(
            expected.joules(),
            battery.level().joules(),
            self.battery_gain(),
        ))
    }

    /// Short policy name for reports.
    fn name(&self) -> &'static str;
}

/// Spend-as-you-go: budget = last hour's harvest plus a battery-level
/// correction toward a half-full target. Reactive and simple; serves as
/// the weakest baseline.
#[derive(Debug, Clone, Default)]
pub struct GreedyAllocator;

impl BudgetAllocator for GreedyAllocator {
    fn expected(&mut self, _hour_of_day: u32, harvested_last_hour: Energy) -> Energy {
        harvested_last_hour
    }

    fn battery_gain(&self) -> f64 {
        GREEDY_GAIN
    }

    fn name(&self) -> &'static str {
        "greedy"
    }
}

/// Kansal-style EWMA allocator: keeps an exponentially weighted moving
/// average of the harvest *per hour-of-day slot* (capturing the diurnal
/// profile, via the shared [`DiurnalEwma`] estimator) and budgets that
/// expectation plus a battery correction.
///
/// Cold start is **lazy per slot**: the very first call carries no real
/// sample (there was no previous hour), so it is discarded, and each slot
/// is seeded by the first harvest actually observed for it. Slots not yet
/// observed budget the mean of the observed ones — so a device booted at
/// midnight ramps its expectations up through a sunny first day instead
/// of believing every hour is as dark as the boot placeholder.
#[derive(Debug, Clone)]
pub struct EwmaAllocator {
    /// Shared per-slot diurnal estimator (also used by
    /// [`EwmaForecaster`](crate::EwmaForecaster)).
    ewma: DiurnalEwma,
    /// `false` until the first call: its `harvested_last_hour` describes
    /// an hour that never ran and must not seed any slot.
    first_call_done: bool,
}

impl EwmaAllocator {
    /// Creates an allocator with the conventional smoothing factor 0.5
    /// (as in Kansal et al.) and a gentle battery gain.
    #[must_use]
    pub fn new() -> EwmaAllocator {
        EwmaAllocator::from_parts(DiurnalEwma::new(0.5), false)
    }

    /// Overrides the smoothing factor (clamped to `(0, 1]`).
    #[must_use]
    pub fn with_alpha(mut self, alpha: f64) -> EwmaAllocator {
        self.ewma = DiurnalEwma::new(alpha);
        self
    }

    /// Current expectation for a slot (J), for inspection: the slot's
    /// estimate, or the observed-slot mean while the slot is still
    /// unseeded.
    #[must_use]
    pub fn estimate(&self, hour_of_day: u32) -> Energy {
        Energy::from_joules(self.ewma.expected(hour_of_day))
    }

    /// The underlying diurnal estimator, for state extraction
    /// (checkpointing a resident allocator).
    #[must_use]
    pub fn diurnal(&self) -> &DiurnalEwma {
        &self.ewma
    }

    /// Whether the discard-the-first-call cold-start step has happened
    /// yet; part of the allocator's checkpointable state.
    #[must_use]
    pub fn first_call_done(&self) -> bool {
        self.first_call_done
    }

    /// Rebuilds an allocator from extracted state
    /// ([`EwmaAllocator::diurnal`] + [`EwmaAllocator::first_call_done`]).
    /// The round trip is exact: a restored allocator budgets
    /// bit-identically to the original.
    #[must_use]
    pub fn from_parts(ewma: DiurnalEwma, first_call_done: bool) -> EwmaAllocator {
        EwmaAllocator {
            ewma,
            first_call_done,
        }
    }
}

impl Default for EwmaAllocator {
    fn default() -> Self {
        EwmaAllocator::new()
    }
}

impl BudgetAllocator for EwmaAllocator {
    fn expected(&mut self, hour_of_day: u32, harvested_last_hour: Energy) -> Energy {
        // Update the estimate of the *previous* slot with its outcome —
        // except on the very first call, whose sample is a placeholder
        // for an hour that never ran (the engine passes zero at hour 0;
        // seeding from it would starve the whole first day).
        if self.first_call_done {
            let prev_slot = (hour_of_day + 23) % 24;
            self.ewma.observe(prev_slot, harvested_last_hour.joules());
        } else {
            self.first_call_done = true;
        }
        Energy::from_joules(self.ewma.expected(hour_of_day))
    }

    fn battery_gain(&self) -> f64 {
        BATTERY_GAIN
    }

    fn name(&self) -> &'static str {
        "ewma"
    }
}

/// Splits the trailing daily harvest evenly across 24 hours (plus the
/// battery correction). Smooths aggressively: good at night, wasteful of
/// clear-noon surpluses when the battery is small.
#[derive(Debug, Clone)]
pub struct UniformDailyAllocator {
    window: [f64; 24],
    cursor: usize,
    filled: bool,
}

impl UniformDailyAllocator {
    /// Creates the allocator.
    #[must_use]
    pub fn new() -> UniformDailyAllocator {
        UniformDailyAllocator {
            window: [0.0; 24],
            cursor: 0,
            filled: false,
        }
    }
}

impl Default for UniformDailyAllocator {
    fn default() -> Self {
        UniformDailyAllocator::new()
    }
}

impl BudgetAllocator for UniformDailyAllocator {
    fn expected(&mut self, _hour_of_day: u32, harvested_last_hour: Energy) -> Energy {
        self.window[self.cursor] = harvested_last_hour.joules();
        self.cursor = (self.cursor + 1) % 24;
        if self.cursor == 0 {
            self.filled = true;
        }
        let divisor = if self.filled {
            24.0
        } else {
            // reap-lint: allow(unsafe:float-cast) -- cursor counts absorbed hours, far below 2^53; exact
            self.cursor.max(1) as f64
        };
        let daily: f64 = self.window.iter().sum();
        Energy::from_joules(daily / divisor)
    }

    fn battery_gain(&self) -> f64 {
        BATTERY_GAIN
    }

    fn name(&self) -> &'static str {
        "uniform-daily"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn joules(j: f64) -> Energy {
        Energy::from_joules(j)
    }

    fn half_full() -> Battery {
        Battery::small_wearable() // 60 J capacity, 30 J level
    }

    #[test]
    fn greedy_passes_harvest_through_at_target_level() {
        let mut a = GreedyAllocator;
        let b = half_full();
        let budget = a.allocate(10, joules(4.0), &b);
        assert!((budget.joules() - 4.0).abs() < 1e-9);
        assert_eq!(a.name(), "greedy");
    }

    #[test]
    fn greedy_spends_surplus_battery() {
        let mut a = GreedyAllocator;
        let full = Battery::new(joules(60.0), joules(60.0), 0.95, 0.95).unwrap();
        let low = Battery::new(joules(60.0), joules(5.0), 0.95, 0.95).unwrap();
        assert!(a.allocate(10, joules(2.0), &full) > a.allocate(10, joules(2.0), &low));
        // Deep deficit never yields a negative budget.
        assert!(a.allocate(10, Energy::ZERO, &low).joules() >= 0.0);
    }

    #[test]
    fn ewma_learns_the_diurnal_profile() {
        let mut a = EwmaAllocator::new();
        let b = half_full();
        // Three synthetic days: 5 J at noon slots, 0 at night slots.
        for _ in 0..3 {
            for hour in 0u32..24 {
                let prev = (hour + 23) % 24;
                let harvested = if (10..=14).contains(&prev) { 5.0 } else { 0.0 };
                let _ = a.allocate(hour, joules(harvested), &b);
            }
        }
        assert!(a.estimate(12).joules() > 3.0, "noon estimate too low");
        assert!(a.estimate(2).joules() < 1.0, "night estimate too high");
        assert_eq!(a.name(), "ewma");
    }

    #[test]
    fn ewma_cold_start_ignores_the_boot_placeholder() {
        // Regression: the engine always passes harvested_last_hour = 0 on
        // hour 0 (no previous hour exists). That placeholder used to seed
        // every slot to zero, starving the whole first day. It must not
        // seed anything.
        let mut a = EwmaAllocator::new();
        let b = half_full();
        let _ = a.allocate(0, Energy::ZERO, &b);
        // A sunny first day: hours 0 and 1 each harvested 5 J.
        let _ = a.allocate(1, joules(5.0), &b);
        let _ = a.allocate(2, joules(5.0), &b);
        // By hour 2 the observed slots hold real nonzero estimates...
        assert!(
            a.estimate(0).joules() > 4.9 && a.estimate(1).joules() > 4.9,
            "sunny first-day slots estimate {} / {}",
            a.estimate(0),
            a.estimate(1)
        );
        // ...and unseen slots extrapolate from them instead of zero.
        assert!(a.estimate(12).joules() > 4.9, "noon fallback starved");
    }

    #[test]
    fn ewma_budget_tracks_expectations() {
        let mut a = EwmaAllocator::new();
        let b = half_full();
        // The first call's sample is discarded (no previous hour), so the
        // budget at the target battery level is zero.
        let first = a.allocate(0, joules(2.0), &b);
        assert!(first.joules().abs() < 1e-9);
        // The second call carries the first real sample; with only that
        // slot seen, the expectation for any hour equals it.
        let second = a.allocate(1, joules(2.0), &b);
        assert!((second.joules() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_daily_smooths() {
        let mut a = UniformDailyAllocator::new();
        let b = half_full();
        // A day with one big 24 J hour and 23 dark hours.
        let mut budgets = Vec::new();
        for hour in 0u32..48 {
            let harvested = if hour % 24 == 12 { 24.0 } else { 0.0 };
            budgets.push(a.allocate(hour % 24, joules(harvested), &b).joules());
        }
        // After the first full day, the budget settles near 1 J/hour.
        let settled = budgets[30];
        assert!((settled - 1.0).abs() < 0.3, "settled = {settled}");
        assert_eq!(a.name(), "uniform-daily");
    }

    #[test]
    fn allocators_are_object_safe() {
        let mut list: Vec<Box<dyn BudgetAllocator>> = vec![
            Box::new(GreedyAllocator),
            Box::new(EwmaAllocator::new()),
            Box::new(UniformDailyAllocator::new()),
        ];
        let b = half_full();
        for a in &mut list {
            let budget = a.allocate(0, joules(1.0), &b);
            assert!(budget.joules() >= 0.0);
            assert!(!a.name().is_empty());
        }
    }
}
