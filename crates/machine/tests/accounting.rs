//! Property tests of the machine's time accounting: for *any* interleaving
//! of expansion cycles and balancing phases, the paper's Sec. 3.1
//! identities hold exactly.

use proptest::prelude::*;
use uts_machine::{CostModel, SimdMachine, Topology};

/// One simulated machine operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Cycle { busy_fraction: u8 },
    CycleRun { busy_fraction: u8, n: u8 },
    Balance { rounds: u8, transfers: u16 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..=100).prop_map(|busy_fraction| Op::Cycle { busy_fraction }),
        (0u8..=100, 0u8..16).prop_map(|(busy_fraction, n)| Op::CycleRun { busy_fraction, n }),
        (1u8..4, 0u16..500).prop_map(|(rounds, transfers)| Op::Balance { rounds, transfers }),
    ]
}

fn arb_cost() -> impl Strategy<Value = CostModel> {
    (0usize..3, 1u32..20).prop_map(|(topo, mult)| {
        let base = match topo {
            0 => CostModel::cm2(),
            1 => CostModel::hypercube(),
            _ => CostModel::mesh(),
        };
        base.with_lb_multiplier(mult)
    })
}

proptest! {
    /// P·T_par = T_calc + T_idle + T_lb for any op sequence, cost model
    /// and machine size (with W := nodes actually expanded).
    #[test]
    fn identity_holds_for_any_schedule(
        ops in proptest::collection::vec(arb_op(), 1..200),
        p_log in 0u32..14,
        cost in arb_cost(),
    ) {
        let p = 1usize << p_log;
        let mut m = SimdMachine::new(p, cost);
        let mut expect_cycles = 0u64;
        let mut expect_phases = 0u64;
        for op in &ops {
            match *op {
                Op::Cycle { busy_fraction } => {
                    let busy = (p * busy_fraction as usize) / 100;
                    m.expansion_cycle(busy);
                    expect_cycles += 1;
                }
                Op::CycleRun { busy_fraction, n } => {
                    let busy = (p * busy_fraction as usize) / 100;
                    m.expansion_cycles_run(busy, n as u64);
                    expect_cycles += n as u64;
                }
                Op::Balance { rounds, transfers } => {
                    m.lb_phase(rounds as u32, transfers as u64);
                    expect_phases += 1;
                }
            }
        }
        let nodes = m.metrics().nodes_expanded;
        let r = m.finish(nodes);
        prop_assert_eq!(r.n_expand, expect_cycles);
        prop_assert_eq!(r.n_lb, expect_phases);
        prop_assert!(r.accounting_identity_holds());
        prop_assert!(r.efficiency >= 0.0 && r.efficiency <= 1.0 + 1e-12);
    }

    /// The clock is exactly the sum of the op costs, in any order.
    #[test]
    fn clock_is_sum_of_op_costs(
        ops in proptest::collection::vec(arb_op(), 0..100),
        cost in arb_cost(),
    ) {
        let p = 256usize;
        let mut m = SimdMachine::new(p, cost);
        let mut expect = 0u64;
        for op in &ops {
            match *op {
                Op::Cycle { busy_fraction } => {
                    m.expansion_cycle((p * busy_fraction as usize) / 100);
                    expect += cost.u_calc;
                }
                Op::CycleRun { busy_fraction, n } => {
                    m.expansion_cycles_run((p * busy_fraction as usize) / 100, n as u64);
                    expect += cost.u_calc * n as u64;
                }
                Op::Balance { rounds, transfers } => {
                    m.lb_phase(rounds as u32, transfers as u64);
                    expect += cost.lb_phase_cost(p, rounds as u32);
                }
            }
        }
        prop_assert_eq!(m.now(), expect);
    }

    /// Batched runs are observationally identical to the equivalent
    /// sequence of single cycles — same clock, counters, and RLE trace.
    #[test]
    fn batched_runs_equal_single_cycles(
        ops in proptest::collection::vec(arb_op(), 1..120),
        p_log in 0u32..10,
        cost in arb_cost(),
    ) {
        let p = 1usize << p_log;
        let mut batched = SimdMachine::new(p, cost);
        batched.record_active_trace(true);
        let mut singles = SimdMachine::new(p, cost);
        singles.record_active_trace(true);
        for op in &ops {
            match *op {
                Op::Cycle { busy_fraction } => {
                    let busy = (p * busy_fraction as usize) / 100;
                    batched.expansion_cycle(busy);
                    singles.expansion_cycle(busy);
                }
                Op::CycleRun { busy_fraction, n } => {
                    let busy = (p * busy_fraction as usize) / 100;
                    batched.expansion_cycles_run(busy, n as u64);
                    for _ in 0..n {
                        singles.expansion_cycle(busy);
                    }
                }
                Op::Balance { rounds, transfers } => {
                    batched.lb_phase(rounds as u32, transfers as u64);
                    singles.lb_phase(rounds as u32, transfers as u64);
                }
            }
        }
        prop_assert_eq!(batched.now(), singles.now());
        prop_assert_eq!(batched.phase().cycles, singles.phase().cycles);
        prop_assert_eq!(batched.phase().busy_pe_cycles, singles.phase().busy_pe_cycles);
        prop_assert_eq!(batched.phase().idle_pe_cycles, singles.phase().idle_pe_cycles);
        let w = batched.metrics().nodes_expanded;
        let (rb, rs) = (batched.finish(w), singles.finish(w));
        prop_assert_eq!(rb, rs);
    }

    /// Topology sanity across sizes: mesh phases dominate hypercube
    /// phases dominate CM-2 phases once the machine is large enough.
    #[test]
    fn topology_ordering_at_scale(p_log in 10u32..16) {
        let p = 1usize << p_log;
        let cm2 = CostModel::cm2().lb_phase_cost(p, 1);
        let hyper = CostModel::hypercube().lb_phase_cost(p, 1);
        let mesh = CostModel::mesh().lb_phase_cost(p, 1);
        prop_assert!(hyper > cm2, "hypercube {hyper} vs cm2 {cm2} at P={p}");
        prop_assert!(mesh > hyper / 10, "mesh {mesh} vs hypercube {hyper} at P={p}");
        // And the topology tags are as constructed.
        prop_assert_eq!(CostModel::mesh().topology, Topology::Mesh);
    }
}
