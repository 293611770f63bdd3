//! Backend contract: a burst of `h` cycles is `h` lockstep cycles. From
//! any boundary state of a real run and for any horizon `h`, the
//! in-process [`LocalBackend`] (at 1, 2 and 8 threads, fan-out forced)
//! must describe the burst exactly as `h` single cycles run one after the
//! other ([`cycle_by_cycle`]): the same [`MergedBurst`] (deaths as a
//! multiset — the driver sorts them), the same splittable count, the same
//! stack lengths and the same compacted active list. That is the whole
//! premise of the macro-step loop; the whole-run suites
//! (`engine_differential`, `engine_equivalence`) only see the horizons a
//! run happens to take.
//!
//! The boundary states are taken from macro-engine runs through their
//! checkpoints, so they include post-balancing stack shapes.

use proptest::prelude::*;
use simd_tree_search::core::{expansion_burst, BurstBackend, LocalBackend, MergedBurst};
use simd_tree_search::prelude::*;
use simd_tree_search::synth::GeometricTree;
use simd_tree_search::tree::StackArena;

fn arb_scheme() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        (0.3f64..0.95).prop_map(Scheme::gp_static),
        Just(Scheme::gp_dk()),
        Just(Scheme::ngp_dp()),
        Just(Scheme::fegs()),
    ]
}

/// The stacks a macro run of `tree` stands on after `k` macro-step
/// boundaries (or at its last boundary, if it has fewer); `None` for a
/// run that ends inside its first step.
fn arena_after<P: TreeProblem>(
    tree: &P,
    p: usize,
    scheme: Scheme,
    k: u64,
) -> Option<StackArena<P::Node>> {
    let cfg = EngineConfig::new(p, scheme, CostModel::cm2())
        .with_checkpoint(CheckpointPolicy::every(1))
        .with_fault(FaultPlan::kill_at(k));
    run(tree, &cfg);
    let last = cfg.checkpoint.as_ref().expect("armed above").sink.taken().pop()?;
    let snapshot = EngineSnapshot::<P::Node>::decode(&last.bytes, config_fingerprint(&cfg))
        .expect("a fresh snapshot decodes");
    Some(StackArena::from_stacks(snapshot.stacks))
}

/// Everything the loop observes of one burst.
#[derive(Debug, PartialEq)]
struct Observed {
    burst: MergedBurst,
    busy: usize,
    lens: Vec<u32>,
    active: Vec<usize>,
}

/// The burst as `h` calls of one lockstep cycle, each a pass over the
/// shrinking active list: the per-cycle side no backend shares. A PE that
/// drains in cycle `c` is recorded as a death at `c`, which is exactly its
/// burst length; a one-cycle burst records none.
fn cycle_by_cycle<P: TreeProblem>(tree: &P, mut arena: StackArena<P::Node>, h: u64) -> Observed {
    let mut active: Vec<usize> = (0..arena.p()).filter(|&i| arena.lens()[i] > 0).collect();
    let mut burst = MergedBurst::default();
    burst.reset(active.len());
    let (mut busy, mut no_deaths) = (0, Vec::new());
    for cycle in 1..=h {
        let before = active.len();
        let (goals, peak) = (&mut burst.goals, &mut burst.peak_stack_nodes);
        busy = expansion_burst(tree, &mut arena, &mut active, 1, goals, peak, &mut no_deaths).busy;
        if h > 1 {
            burst.deaths.extend(std::iter::repeat_n(cycle, before - active.len()));
        }
        if active.is_empty() {
            break;
        }
    }
    Observed { burst, busy, lens: arena.lens().to_vec(), active }
}

fn observe<B: BurstBackend>(mut backend: B, h: u64) -> Observed
where
    B::Error: std::fmt::Debug,
{
    let mut active: Vec<usize> =
        (0..backend.lens().len()).filter(|&i| backend.lens()[i] > 0).collect();
    let mut burst = MergedBurst::default();
    let busy = backend.burst(h, &mut active, &mut burst).expect("in-process backends cannot fail");
    burst.deaths.sort_unstable();
    Observed { burst, busy, lens: backend.lens().to_vec(), active }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn in_process_backends_run_the_same_burst(
        seed in 0u64..2000,
        scheme in arb_scheme(),
        p_log in 0u32..8,
        k in 1u64..24,
        h in 1u64..48,
    ) {
        let tree = GeometricTree { seed, b_max: 8, depth_limit: 6 };
        let Some(arena) = arena_after(&tree, 1usize << p_log, scheme, k) else {
            return; // nothing to burst over
        };
        let want = cycle_by_cycle(&tree, arena.clone(), h);
        let drained = want.burst.started - want.active.len();
        prop_assert_eq!(want.burst.deaths.len(), if h == 1 { 0 } else { drained });
        for threads in [1usize, 2, 8] {
            let local = LocalBackend::new(&tree, arena.clone(), threads, 0);
            prop_assert_eq!(&observe(local, h), &want, "threads={}", threads);
        }
    }
}
