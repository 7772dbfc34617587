//! Device energy and timing model for the REAP prototype.
//!
//! The paper measures execution time and power on a custom TI-Sensortag
//! prototype (CC2650 MCU @ 47 MHz, Invensense MPU-9250 accelerometer,
//! passive stretch sensor, BLE radio) through test pads. This crate
//! replaces that hardware with a **component energy/timing model whose
//! constants are calibrated against the paper's Table 2**:
//!
//! * feature/classifier execution times scale with sample counts and
//!   neural-network multiply-accumulates ([`timing`]);
//! * MCU energy scales with execution time plus per-sample handling
//!   overhead; sensor energy with powered axes and sensing period
//!   ([`energy`]);
//! * BLE costs for transmitting a recognized activity vs. offloading raw
//!   samples ([`radio`]).
//!
//! [`characterize`] turns any of the 24 design-point configurations into a
//! `(times, energies, power)` characterization; the five Table 2 rows are
//! reproduced within a few percent (see the calibration tests). For exact
//! figure reproduction, [`paper_table2`] ships the published numbers
//! verbatim.
//!
//! # Examples
//!
//! ```
//! use reap_device::{characterize, paper_table2};
//! use reap_har::DesignPoint;
//!
//! // Model-based characterization of DP5 (stretch only).
//! let dp5 = DesignPoint::paper_five().remove(4);
//! let c = characterize(&dp5);
//! assert!((c.total_energy().millijoules() - 1.93).abs() < 0.15);
//!
//! // Or the published Table 2 row, exact.
//! let t2 = paper_table2();
//! assert!((t2[4].total_energy().millijoules() - 1.93).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod constants;
pub mod energy;
pub mod radio;
pub mod timing;

mod breakdown;
mod characterize;

pub use breakdown::{hourly_breakdown, EnergyBreakdown};
pub use characterize::{
    characterize, characterize_all, paper_table2, paper_table2_operating_points, CharacterizedDp,
    ExecTimes,
};
