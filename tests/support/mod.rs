//! The four test domains `tests/domains.rs` runs on every machine, trimmed
//! to what those tests call. Each module carries the self-check that makes
//! agreement on its domain mean something (knapsack's is
//! `knapsack_search_equals_dp_through_the_facade` in `domains.rs`).

pub mod knapsack;
pub mod nqueens;
pub mod sat;
pub mod sliding;
