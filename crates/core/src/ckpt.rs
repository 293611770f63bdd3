//! Engine-side checkpoint wiring: sinks, config fingerprinting, capture
//! and restore.
//!
//! The snapshot *format* lives in `uts-ckpt` (container, payload codec,
//! [`CheckpointPolicy`], [`FaultPlan`]); this module binds it to the
//! engines. A run configured with [`crate::EngineConfig::with_checkpoint`]
//! evaluates its policy at every **macro-step boundary** — the same
//! engine-invariant schedule the ledger replays, so every engine
//! snapshot at identical points in the lockstep schedule and a snapshot
//! taken by one engine resumes under any other. [`crate::run_from`]
//! given snapshot bytes rebuilds the complete engine state from them and
//! hands it to the configured engine; the resumed run finishes with an
//! [`crate::Outcome`] bit-identical to the uninterrupted run (enforced by
//! the kill→resume differential suite in `tests/checkpoint_resume.rs`).
//!
//! What is *not* captured: the problem itself (a resume call re-supplies
//! it; the config fingerprint rejects snapshots from a different setup),
//! and anything derivable — the dense active list, the splittable flags
//! and the busy count are all pure functions of the per-PE stacks and are
//! rebuilt on resume.

use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use uts_ckpt::{
    spill, CheckpointPolicy, EngineSnapshot, FaultPlan, Fingerprint, MachineState, PreemptSignal,
    RecorderState, SnapshotView, StackSource,
};
use uts_tree::{CkptNode, SplitPolicy};

use crate::engine::{EngineConfig, EngineState, LedgerRecorder, Resume};
use crate::matcher::MatchState;
use crate::scheme::{Matching, TransferMode, Trigger};

/// One snapshot a run produced: the 1-based macro-step boundary it was
/// taken at plus the encoded container bytes.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Macro-step boundary (1-based) the snapshot captures.
    pub step: u64,
    /// The full container ([`EngineSnapshot::encode`] output).
    pub bytes: Vec<u8>,
}

/// Where a run's snapshots go.
#[derive(Debug, Clone)]
pub enum CheckpointSink {
    /// Collect snapshots in memory behind a shared handle. Cloning the
    /// sink (e.g. by cloning the [`EngineConfig`]) shares the same store,
    /// so a caller can keep a handle and read the snapshots back after the
    /// run — the fault-injection tests and the overhead benchmark do.
    Memory(Arc<Mutex<Vec<Snapshot>>>),
    /// Write each snapshot to `dir/ckpt-{step:08}.bin`, creating the
    /// directory on first write. Each file is written atomically
    /// ([`uts_ckpt::spill::write_atomic`]), so a run killed mid-write never
    /// leaves a torn snapshot. A failed write ends the run with the
    /// backend's error ([`crate::BurstBackend::Error`]): a run asked to
    /// checkpoint but unable to is better stopped than silently
    /// unprotected.
    Dir(PathBuf),
}

impl CheckpointSink {
    /// A fresh in-memory sink.
    pub fn memory() -> Self {
        CheckpointSink::Memory(Arc::default())
    }

    /// A directory sink.
    pub fn dir(path: impl Into<PathBuf>) -> Self {
        CheckpointSink::Dir(path.into())
    }

    /// Snapshots collected so far (in boundary order). Memory sinks only —
    /// a directory sink's snapshots live on disk under their
    /// `ckpt-{step:08}.bin` names.
    pub fn taken(&self) -> Vec<Snapshot> {
        match self {
            CheckpointSink::Memory(store) => store.lock().expect("sink poisoned").clone(),
            CheckpointSink::Dir(_) => panic!("a Dir sink's snapshots live on disk"),
        }
    }

    /// Keep boundary `step`'s snapshot. A directory sink's error names the
    /// path it could not write.
    fn store(&self, step: u64, bytes: Vec<u8>) -> io::Result<()> {
        match self {
            CheckpointSink::Memory(store) => {
                store.lock().expect("sink poisoned").push(Snapshot { step, bytes });
                Ok(())
            }
            CheckpointSink::Dir(dir) => {
                let path = dir.join(format!("ckpt-{step:08}.bin"));
                std::fs::create_dir_all(dir)
                    .and_then(|()| spill::write_atomic(&path, &bytes))
                    .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))
            }
        }
    }
}

/// Complete checkpoint configuration of a run: when to snapshot, where
/// snapshots go, and (tests only) when to inject a kill.
#[derive(Debug, Clone)]
pub struct CheckpointCfg {
    /// Which macro-step boundaries snapshot.
    pub policy: CheckpointPolicy,
    /// Where the snapshots go.
    pub sink: CheckpointSink,
    /// Fault injection: kill the run at this boundary (after its snapshot,
    /// power-loss-between-steps semantics). The killed run returns its
    /// partial [`crate::Outcome`] with [`crate::Outcome::killed`] set.
    pub fault: Option<FaultPlan>,
    /// Cooperative preemption: when the shared signal is raised, the run
    /// parks at its next macro-step boundary — one snapshot of that
    /// boundary is **forced** into the sink (whatever the policy says)
    /// and the run returns with [`crate::Outcome::killed`] set. Unlike a fault,
    /// the parked state is guaranteed captured: resuming the forced
    /// snapshot continues the schedule bit-identically, which is what a
    /// preemptive job scheduler relies on.
    pub preempt: Option<PreemptSignal>,
}

impl CheckpointCfg {
    /// Checkpoint under `policy` into a fresh in-memory sink.
    pub fn new(policy: CheckpointPolicy) -> Self {
        Self { policy, sink: CheckpointSink::memory(), fault: None, preempt: None }
    }

    /// Builder: redirect snapshots to a directory.
    pub fn into_dir(mut self, path: impl Into<PathBuf>) -> Self {
        self.sink = CheckpointSink::dir(path);
        self
    }

    /// Builder: inject a kill.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Builder: arm cooperative preemption under the given shared signal.
    pub fn with_preempt(mut self, signal: PreemptSignal) -> Self {
        self.preempt = Some(signal);
        self
    }
}

/// Fingerprint of everything that determines the lockstep schedule (and
/// therefore the meaning of a snapshot): machine size, scheme, cost model,
/// split policy, init fraction, stop/budget knobs, and the recording
/// flags (they change what a snapshot must contain). Deliberately
/// **excluded**: the engine kind, the host thread count and the checkpoint
/// configuration itself — snapshots are engine- and host-invariant, and
/// where they are written does not change what they mean.
pub fn config_fingerprint(cfg: &EngineConfig) -> u64 {
    let mut f = Fingerprint::new();
    f.u64(cfg.p as u64);
    f.u64(match cfg.scheme.matching {
        Matching::Ngp => 0,
        Matching::Gp => 1,
        Matching::Ring => 2,
    });
    match cfg.scheme.trigger {
        Trigger::Static { x } => f.u64(0).u64(x.to_bits()),
        Trigger::Dp => f.u64(1),
        Trigger::Dk => f.u64(2),
        Trigger::AnyIdle => f.u64(3),
    };
    f.u64(match cfg.scheme.transfers {
        TransferMode::Single => 0,
        TransferMode::Multiple => 1,
        TransferMode::Equalize => 2,
    });
    f.u64(cfg.cost.topology as u64);
    f.u64(cfg.cost.u_calc)
        .u64(cfg.cost.u_comm)
        .u64(cfg.cost.lb_setup)
        .u64(cfg.cost.lb_transfer)
        .u64(cfg.cost.lb_multiplier as u64);
    f.u64(match cfg.split {
        SplitPolicy::Bottom => 0,
        SplitPolicy::Half => 1,
        SplitPolicy::Top => 2,
    });
    f.u64(cfg.init_fraction.is_some() as u64).u64(cfg.init_fraction.unwrap_or(0.0).to_bits());
    f.u64(cfg.stop_on_goal as u64);
    f.u64(cfg.record_trace as u64);
    f.u64(cfg.record_ledger as u64);
    f.finish()
}

impl EngineState {
    /// Encode a snapshot of this boundary straight from the live state
    /// (borrowed stacks — no clone; the one serialization pass is the
    /// entire per-snapshot cost).
    pub(crate) fn capture<N: CkptNode>(
        &self,
        fingerprint: u64,
        stacks: StackSource<'_, N>,
    ) -> Vec<u8> {
        let machine = MachineState::capture(&self.machine);
        let recorder = self.recorder.as_ref().map(|r| RecorderState {
            receipts: r.receipts_so_far().to_vec(),
            phases: r.phases_so_far().to_vec(),
        });
        SnapshotView {
            step: self.step,
            in_init: self.in_init,
            goals: self.goals,
            donations: &self.donations,
            peak_stack_nodes: self.peak_stack_nodes,
            global_pointer: self.matcher.global_pointer(),
            machine: &machine,
            recorder: recorder.as_ref(),
            stacks,
        }
        .encode(fingerprint)
    }

    /// The inverse of [`EngineState::capture`]: the boundary state a
    /// decoded snapshot holds, plus its arena.
    ///
    /// # Panics
    /// Panics if the snapshot's machine size or ledger presence
    /// contradicts `cfg` (impossible for snapshots decoded against this
    /// config's fingerprint, which [`crate::run_from`] enforces).
    pub(crate) fn restore<N: CkptNode>(
        cfg: &EngineConfig,
        snapshot: EngineSnapshot<N>,
    ) -> Resume<N> {
        assert_eq!(
            snapshot.stacks.p(),
            cfg.p,
            "snapshot machine size differs from the resuming config"
        );
        assert_eq!(
            snapshot.recorder.is_some(),
            cfg.record_ledger,
            "snapshot ledger presence differs from the resuming config"
        );
        let state = EngineState {
            machine: snapshot.machine.restore(cfg.p, cfg.scheme.phase_cost_model(cfg.cost)),
            matcher: MatchState::restore(cfg.scheme.matching, snapshot.global_pointer),
            recorder: snapshot.recorder.map(|r| LedgerRecorder::restore(r.receipts, r.phases)),
            donations: snapshot.donations,
            goals: snapshot.goals,
            peak_stack_nodes: snapshot.peak_stack_nodes,
            in_init: snapshot.in_init,
            step: snapshot.step,
        };
        (state, snapshot.stacks)
    }
}

impl CheckpointCfg {
    /// Process macro-step boundary `step` (1-based): snapshot if the policy
    /// wants it (`encode` runs lazily, only then), and report whether the
    /// run stops here. Two stop causes share the `true` return: the
    /// injected fault (power-loss semantics — only policy snapshots
    /// survive) and a raised [`PreemptSignal`] (park semantics — a snapshot
    /// of *this* boundary is forced into the sink so the run can always be
    /// resumed from exactly where it stopped). A failed sink write is the
    /// caller's error `E`.
    pub(crate) fn boundary<E: From<io::Error>>(
        &self,
        step: u64,
        encode: impl FnOnce() -> Result<Vec<u8>, E>,
    ) -> Result<bool, E> {
        let preempted = self.preempt.as_ref().is_some_and(PreemptSignal::is_raised);
        if preempted || self.policy.wants(step) {
            self.sink.store(step, encode()?)?;
        }
        Ok(preempted || self.fault.is_some_and(|f| f.kill_at_step == step))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineKind;
    use crate::scheme::Scheme;
    use uts_machine::CostModel;

    fn base() -> EngineConfig {
        EngineConfig::new(16, Scheme::gp_dk(), CostModel::cm2())
    }

    #[test]
    fn fingerprint_ignores_engine_threads_and_checkpoint() {
        let a = base();
        let mut b = base().with_engine(EngineKind::Reference).with_threads(7);
        b.checkpoint = Some(CheckpointCfg::new(CheckpointPolicy::every(2)));
        assert_eq!(config_fingerprint(&a), config_fingerprint(&b));
    }

    #[test]
    fn fingerprint_sees_every_schedule_relevant_knob() {
        let f = config_fingerprint(&base());
        let mut variants = vec![
            EngineConfig::new(17, Scheme::gp_dk(), CostModel::cm2()),
            EngineConfig::new(16, Scheme::ngp_dk(), CostModel::cm2()),
            EngineConfig::new(16, Scheme::gp_dp(), CostModel::cm2()),
            EngineConfig::new(16, Scheme::gp_static(0.8), CostModel::cm2()),
            EngineConfig::new(16, Scheme::ring_nn(), CostModel::cm2()),
            EngineConfig::new(16, Scheme::gp_dk(), CostModel::hypercube()),
            base().with_split(SplitPolicy::Half),
            base().with_trace(),
            base().with_ledger(),
        ];
        let mut stop = base();
        stop.stop_on_goal = true;
        variants.push(stop);
        let mut init = base();
        init.init_fraction = Some(0.5);
        variants.push(init);
        for v in &variants {
            assert_ne!(config_fingerprint(v), f, "{v:?}");
        }
        // Ring-NN differs from FESS in its matching alone.
        let ring = EngineConfig::new(16, Scheme::ring_nn(), CostModel::cm2());
        let fess = EngineConfig::new(16, Scheme::fess(), CostModel::cm2());
        assert_ne!(config_fingerprint(&ring), config_fingerprint(&fess));
    }

    #[test]
    fn kill_then_resume_matches_the_straight_run_on_every_engine() {
        let tree = uts_synth::GeometricTree { seed: 3, b_max: 8, depth_limit: 6 };
        for engine in EngineKind::ALL {
            let cfg = EngineConfig::new(32, Scheme::gp_dk(), CostModel::cm2())
                .with_ledger()
                .with_trace()
                .with_engine(engine);
            let straight = crate::run_with(&tree, &cfg);
            assert!(!straight.killed);

            let armed = cfg
                .clone()
                .with_checkpoint(CheckpointPolicy::every(2))
                .with_fault(FaultPlan::kill_at(5));
            let dead = crate::run_with(&tree, &armed);
            assert!(dead.killed, "{engine:?}");

            let snaps = armed.checkpoint.as_ref().unwrap().sink.taken();
            assert!(!snaps.is_empty(), "{engine:?}");
            assert!(snaps.last().unwrap().step <= 5);
            let out = crate::run_from(&tree, &cfg, Some(&snaps.last().unwrap().bytes))
                .unwrap_or_else(|e| panic!("{engine:?}: {e}"));
            assert_eq!(out, straight, "{engine:?} resume must be bit-identical");
        }
    }

    #[test]
    fn preempt_parks_at_the_next_boundary_and_resumes_bit_identically() {
        let tree = uts_synth::GeometricTree { seed: 4, b_max: 8, depth_limit: 6 };
        for engine in EngineKind::ALL {
            let cfg = base().with_ledger().with_engine(engine);
            let straight = crate::run_with(&tree, &cfg);
            assert!(!straight.killed);

            // Signal raised before the run even starts: the engine must
            // still complete one macro-step, then park at boundary 1 with
            // a forced snapshot (the policy alone would never snapshot).
            let signal = PreemptSignal::new();
            signal.raise();
            let armed = cfg.clone().with_checkpoint_cfg(
                CheckpointCfg::new(CheckpointPolicy::default()).with_preempt(signal.clone()),
            );
            let parked = crate::run_with(&tree, &armed);
            assert!(parked.killed, "{engine:?}: a raised signal parks the run");
            let snaps = armed.checkpoint.as_ref().unwrap().sink.taken();
            assert_eq!(snaps.len(), 1, "{engine:?}: exactly the forced boundary snapshot");
            assert_eq!(snaps[0].step, 1, "{engine:?}: parked at the first boundary");

            // Park → resume, possibly through further preemptions, must
            // reproduce the uninterrupted run bit-for-bit.
            signal.clear();
            let out = crate::run_from(&tree, &cfg, Some(&snaps[0].bytes))
                .unwrap_or_else(|e| panic!("{engine:?}: {e}"));
            assert_eq!(out, straight, "{engine:?}: resume after park must be bit-identical");
        }
    }

    #[test]
    fn an_unraised_preempt_signal_changes_nothing() {
        let tree = uts_synth::GeometricTree { seed: 6, b_max: 8, depth_limit: 6 };
        let cfg = base();
        let plain = crate::run_with(&tree, &cfg);
        let armed = cfg.clone().with_checkpoint_cfg(
            CheckpointCfg::new(CheckpointPolicy::default()).with_preempt(PreemptSignal::new()),
        );
        let out = crate::run_with(&tree, &armed);
        assert!(!out.killed);
        assert_eq!(out, plain);
        assert!(armed.checkpoint.as_ref().unwrap().sink.taken().is_empty());
    }

    #[test]
    fn checkpointing_does_not_perturb_the_outcome() {
        let tree = uts_synth::GeometricTree { seed: 6, b_max: 8, depth_limit: 6 };
        let cfg = base();
        let plain = crate::run_with(&tree, &cfg);
        let with_ckpt =
            crate::run_with(&tree, &cfg.clone().with_checkpoint(CheckpointPolicy::every(1)));
        assert_eq!(with_ckpt, plain);
    }

    #[test]
    fn memory_sink_is_shared_across_clones() {
        let sink = CheckpointSink::memory();
        let clone = sink.clone();
        sink.store(1, vec![1, 2, 3]).expect("memory sinks do not fail");
        let got = clone.taken();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].step, 1);
        assert_eq!(got[0].bytes, vec![1, 2, 3]);
    }
}
