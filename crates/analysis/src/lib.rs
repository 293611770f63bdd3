//! Scalability analysis machinery for the paper's Sections 3, 4, 6 and 9:
//! the optimal static trigger (eq. 18), the `V(P)` transfer bounds
//! (Appendices A & B), the closed-form efficiency models (eqs. 12 & 15),
//! the isoefficiency table (Table 6), equal-efficiency contour extraction
//! (Figs. 4 & 7), and power-law fits that quantify how close a measured
//! contour is to `W ∝ P log P`.

pub mod bounds;
pub mod contour;
pub mod csv;
pub mod fit;
pub mod models;
pub mod stats;
pub mod table;
pub mod trigger;

pub use bounds::{total_transfer_bound, v_gp, v_ngp};
pub use contour::{extract_contour, ContourPoint, Sample};
pub use fit::{fit_power_law, PowerLawFit};
pub use models::{gp_efficiency, isoeff_table, ngp_efficiency, IsoeffRow};
pub use stats::{counter_stats, gini, CounterStats};
pub use trigger::{optimal_static_trigger, TriggerParams, DEFAULT_ALPHA};
