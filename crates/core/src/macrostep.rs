//! Event-horizon macro-cycles: batch the search phase between trigger
//! checkpoints.
//!
//! A per-cycle loop pays a full checkpoint — census, trigger evaluation,
//! machine accounting — after *every* expansion cycle, even though for
//! most cycles the trigger provably cannot fire. All three trigger
//! families are pure functions of
//! the active-count step trace `A(t)`, and `A(t)` can only fall between
//! balancing phases (a PE whose stack holds `s` nodes cannot go idle for
//! at least `s` cycles). [`crate::trigger::safe_horizon`] turns the stack
//! size distribution into a sound lower bound `H >= 1` on the number of
//! cycles before the trigger could possibly fire *effectively* (a fire
//! with no splittable or no idle PE performs no work transfer and leaves
//! no trace in the schedule, so it does not need a checkpoint either).
//!
//! The macro-step loop ([`crate::driver`]) exploits this: before each
//! batch it computes `H` ([`compute_horizon`]), then the inline backend
//! below runs every active PE's DFS in a tight per-PE inner loop
//! ([`uts_tree::SearchStack::expand_burst`]) for `min(H, cycles-to-empty)`
//! consecutive expansions. Each PE's whole burst runs on a cache-hot
//! stack, and the lockstep census/accounting for the batch is
//! reconstructed *exactly* from the per-PE empty-times: a PE that drained
//! after `e` cycles worked cycles `1..=e` of the batch, so sorting the
//! (few) death events yields the per-cycle worked counts as a handful of
//! constant runs ([`uts_machine::SimdMachine::expansion_cycles_run`]).
//! `N_expand`, `N_lb`, `T_idle`, the active trace, goal counts, donation
//! counts and the phase log all stay bit-identical to
//! [`crate::reference::run_reference`] (enforced by the equivalence and
//! horizon-soundness suites under `tests/`).
//!
//! The horizon computation needs the stack-size distribution (`count_ge`),
//! which is built lazily: a checkpoint that cannot batch anyway (init
//! phase, `stop_on_goal`) never looks at it, and any other checkpoint
//! rebuilds it with one O(A) sweep whose cost is amortized by the cycles
//! the resulting horizon buys. When the horizon degenerates to a single
//! cycle, the step runs through the fused single-cycle pass
//! ([`crate::engine::fused_expansion_cycle`]), so a run with no batching
//! opportunity (e.g. a machine far larger than the tree, where the trigger
//! fires after every cycle) costs the same as sweeping cycle by cycle.

use std::convert::Infallible;

use uts_ckpt::StackSource;
use uts_machine::SimdMachine;
use uts_tree::{StackArena, TreeProblem};

use crate::census::{build_count_ge, build_hist};
use crate::driver::{BurstBackend, InProcess, LockstepDriver, MergedBurst};
use crate::engine::{expansion_burst, EngineConfig, Outcome, Resume};
use crate::trigger::{horizon_exceeds_one, safe_horizon, HorizonCtx};

/// Run `problem` to exhaustion (or first goal) under `cfg` using
/// event-horizon macro-steps: the macro-step loop over [`InlineBackend`].
/// This is the default engine; its schedule is bit-identical to
/// [`crate::reference::run_reference`].
pub fn run<P: TreeProblem>(problem: &P, cfg: &EngineConfig) -> Outcome {
    run_over(problem, LockstepDriver::at_root(problem, cfg))
}

pub(crate) fn run_from<P: TreeProblem>(
    problem: &P,
    cfg: &EngineConfig,
    resume: Resume<P::Node>,
) -> Outcome {
    run_over(problem, LockstepDriver::resumed(cfg, resume))
}

fn run_over<P: TreeProblem>(problem: &P, (driver, arena): InProcess<P::Node>) -> Outcome {
    driver.run_to_end(InlineBackend::new(problem, arena))
}

/// The inline search phase: [`expansion_burst`] over an in-process
/// [`StackArena`], on the calling thread.
pub struct InlineBackend<'a, P: TreeProblem> {
    pub(crate) problem: &'a P,
    pub(crate) arena: StackArena<P::Node>,
}

impl<'a, P: TreeProblem> InlineBackend<'a, P> {
    /// A backend searching `problem` over `arena`.
    pub fn new(problem: &'a P, arena: StackArena<P::Node>) -> Self {
        Self { problem, arena }
    }
}

impl<P: TreeProblem> BurstBackend for InlineBackend<'_, P> {
    type Node = P::Node;
    type Error = Infallible;
    type Store = StackArena<P::Node>;

    fn lens(&self) -> &[u32] {
        self.arena.lens()
    }

    fn store(&mut self) -> &mut Self::Store {
        &mut self.arena
    }

    fn burst(
        &mut self,
        h: u64,
        active: &mut Vec<usize>,
        out: &mut MergedBurst,
    ) -> Result<usize, Infallible> {
        out.reset(active.len());
        let stats = expansion_burst(
            self.problem,
            &mut self.arena,
            active,
            h,
            &mut out.goals,
            &mut out.peak_stack_nodes,
            &mut out.deaths,
        );
        Ok(stats.busy)
    }

    fn stack_source(&mut self) -> Result<StackSource<'_, P::Node>, Infallible> {
        Ok(StackSource::Arena(&self.arena))
    }
}

/// Compute the next event horizon: a sound lower bound on the cycles
/// before the trigger could fire effectively, clamped to the `max_cycles`
/// budget. `stop_on_goal` must observe goals cycle-by-cycle, and the init
/// phase balances after every cycle by construction; both degrade
/// gracefully to single-cycle steps. `size_hist`/`count_ge` are
/// caller-owned scratch, rebuilt only when a multi-cycle horizon is
/// actually reachable: the stack-size histogram over the PEs holding work
/// (`hist[s]` = PEs whose stack holds `s` nodes) is then one census sweep
/// of `lens`, the dense per-PE length array ([`build_hist`]).
pub(crate) fn compute_horizon(
    cfg: &EngineConfig,
    machine: &SimdMachine,
    active_len: usize,
    in_init: bool,
    lens: &[u32],
    size_hist: &mut Vec<u32>,
    count_ge: &mut Vec<u32>,
) -> u64 {
    let mut h = if in_init
        || cfg.stop_on_goal
        || !horizon_exceeds_one(
            cfg.scheme.trigger,
            cfg.p,
            active_len,
            machine.phase(),
            cfg.cost.u_calc,
            machine.estimated_lb_cost(),
        ) {
        1
    } else {
        build_hist(lens, size_hist);
        build_count_ge(size_hist, count_ge);
        let hctx = HorizonCtx {
            p: cfg.p,
            active: active_len,
            count_ge,
            phase: *machine.phase(),
            u_calc: cfg.cost.u_calc,
            l_estimate: machine.estimated_lb_cost(),
        };
        safe_horizon(cfg.scheme.trigger, &hctx)
    };
    if let Some(m) = cfg.max_cycles {
        // Stop exactly at the budget (the reference overshoots a
        // zero/exceeded budget by the one cycle it always runs; so do we,
        // via the `.max(1)`).
        h = h.min(m.saturating_sub(machine.metrics().n_expand)).max(1);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Scheme;
    use uts_machine::CostModel;
    use uts_synth::GeometricTree;
    use uts_tree::serial_dfs;

    #[test]
    fn macro_steps_partition_the_run() {
        let tree = GeometricTree { seed: 9, b_max: 8, depth_limit: 6 };
        for scheme in [Scheme::gp_dk(), Scheme::gp_static(0.75), Scheme::fegs()] {
            let cfg = EngineConfig::new(64, scheme, CostModel::cm2()).with_horizon_log();
            let out = run(&tree, &cfg);
            assert!(!out.macro_steps.is_empty());
            let mut cursor = 0u64;
            for step in &out.macro_steps {
                assert_eq!(step.start_cycle, cursor, "{}", scheme.name());
                assert!(step.ran >= 1 && step.ran <= step.horizon);
                cursor += step.ran;
            }
            assert_eq!(cursor, out.report.n_expand, "{}", scheme.name());
        }
    }

    #[test]
    fn horizon_batching_actually_batches() {
        // Sanity that the tentpole does something: on a serial run (P=1)
        // the horizon is the stack size, so macro-steps must be far fewer
        // than cycles.
        let tree = GeometricTree { seed: 2, b_max: 8, depth_limit: 6 };
        let w = serial_dfs(&tree).expanded;
        let cfg = EngineConfig::new(1, Scheme::gp_dk(), CostModel::cm2()).with_horizon_log();
        let out = run(&tree, &cfg);
        assert_eq!(out.report.n_expand, w);
        assert!(
            (out.macro_steps.len() as u64) * 2 < w,
            "{} steps for {} cycles",
            out.macro_steps.len(),
            w
        );
    }
}
