//! Row-level helpers shared by the reproduction's sections.

use uts_core::{Outcome, Scheme};
use uts_machine::CostModel;

use crate::workloads::{run_workload, PaperWorkload};

/// The paper's machine size for Tables 2–5.
const PAPER_P: usize = 8192;

/// Quick-mode machine size.
const QUICK_P: usize = 512;

/// The machine size for Tables 2–5 and the studies that share their setup.
pub fn machine_p(quick: bool) -> usize {
    if quick {
        QUICK_P
    } else {
        PAPER_P
    }
}

/// The static thresholds of Table 2.
pub const TABLE2_XS: [f64; 5] = [0.50, 0.60, 0.70, 0.80, 0.90];

/// One measured cell of Table 2/4: the three numbers the paper reports.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Node-expansion cycles.
    pub n_expand: u64,
    /// Load-balancing phases (Table 2) — for Table 4 use `n_transfers`.
    pub n_lb: u64,
    /// Work transfers (`*N_lb`).
    pub n_transfers: u64,
    /// Efficiency.
    pub e: f64,
}

impl From<&Outcome> for Cell {
    fn from(out: &Outcome) -> Self {
        Cell {
            n_expand: out.report.n_expand,
            n_lb: out.report.n_lb,
            n_transfers: out.report.n_transfers,
            e: out.report.efficiency,
        }
    }
}

/// Run a (workload, scheme) cell at the standard machine size.
pub fn measure(wl: &PaperWorkload, scheme: Scheme, p: usize, cost: CostModel) -> Cell {
    Cell::from(&run_workload(wl, scheme, p, cost, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::table_workloads;

    #[test]
    fn measure_produces_consistent_cell() {
        let mut wl = table_workloads()[0];
        wl.bound = 33;
        let cell = measure(&wl, Scheme::gp_static(0.7), 64, CostModel::cm2());
        assert!(cell.n_expand > 0);
        assert!(cell.e > 0.0 && cell.e <= 1.0);
        assert!(cell.n_transfers >= cell.n_lb.min(1));
    }
}
