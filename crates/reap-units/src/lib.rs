//! Physical-quantity newtypes for the REAP reproduction.
//!
//! The REAP controller reasons about *energy budgets* (joules), *power draws*
//! (watts) and *time allocations* (seconds). Mixing those up as bare `f64`s is
//! the classic source of silent unit bugs (mJ vs J, mW vs W, hours vs
//! seconds), so every crate in this workspace trades in the newtypes defined
//! here instead.
//!
//! The types implement the dimensional algebra one expects:
//!
//! * [`Power`] × [`TimeSpan`] = [`Energy`]
//! * [`Energy`] ÷ [`TimeSpan`] = [`Power`]
//! * [`Energy`] ÷ [`Power`] = [`TimeSpan`]
//! * same-type addition/subtraction, scalar scaling, and dimensionless ratios.
//!
//! # Examples
//!
//! ```
//! use reap_units::{Energy, Power, TimeSpan};
//!
//! let budget = Energy::from_joules(5.0);
//! let p_dp4 = Power::from_milliwatts(1.64);
//! let hour = TimeSpan::from_hours(1.0);
//!
//! // Running DP4 for a full hour costs:
//! let cost = p_dp4 * hour;
//! assert!(cost.joules() > 5.9 && cost.joules() < 6.0);
//!
//! // How long can the budget sustain DP4?
//! let sustain = budget / p_dp4;
//! assert!(sustain < hour);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::cast_precision_loss, clippy::cast_lossless))]

mod energy;
mod power;
mod timespan;

pub use energy::Energy;
pub use power::Power;
pub use timespan::TimeSpan;

/// Absolute-plus-relative tolerance comparison for floating-point quantities.
///
/// Returns `true` when `|a - b| <= atol + rtol * max(|a|, |b|)`. This is the
/// comparison used throughout the workspace's tests; it is exposed so that
/// downstream crates compare quantities consistently.
///
/// # Examples
///
/// ```
/// assert!(reap_units::approx_eq(1.0, 1.0 + 1e-12, 1e-9, 1e-9));
/// assert!(!reap_units::approx_eq(1.0, 1.1, 1e-9, 1e-9));
/// ```
#[must_use]
pub fn approx_eq(a: f64, b: f64, atol: f64, rtol: f64) -> bool {
    (a - b).abs() <= atol + rtol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_symmetric() {
        assert!(approx_eq(100.0, 100.0 + 1e-7, 1e-9, 1e-8));
        assert!(approx_eq(100.0 + 1e-7, 100.0, 1e-9, 1e-8));
    }

    #[test]
    fn approx_eq_rejects_large_gap() {
        assert!(!approx_eq(1.0, 2.0, 1e-9, 1e-6));
    }

    #[test]
    fn dimensional_algebra_roundtrip() {
        let e = Energy::from_millijoules(4.48);
        let t = TimeSpan::from_seconds(1.6);
        let p = e / t;
        assert!(approx_eq(p.milliwatts(), 2.8, 1e-9, 1e-12));
        let back = p * t;
        assert!(approx_eq(back.joules(), e.joules(), 1e-15, 1e-12));
    }
}
