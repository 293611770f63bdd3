//! Job specifications: what a client submits, and how it runs.
//!
//! A spec is the JSON body of `POST /submit`: a workload plus the engine
//! knobs the CLI exposes (`p`, `scheme`, `cost`, `engine`, `threads`,
//! `ledger`). The workload object names its kind and that kind's keys:
//!
//! | `kind` | keys (default) |
//! |---|---|
//! | `synth` | `seed` (1), `b_max` (8), `depth_limit` (6) |
//! | `utsgen` | `family`: `geometric` with `seed` (1), `b_max` (8), `depth` (6); or `binomial` with `seed` (1), `b0` (16), `m` (4), `q` (0.2) |
//! | `scramble` | `seed` (42), `walk` (40), `bound` (the optimal cost) |
//!
//! The reader only maps these keys onto the [`Workload`] constructors,
//! which hold the defaults and every check the CLI and the shard `HELLO`
//! share (`walk ≤ 1000`, `bound ≤ 80`, `depth ≤ 64`, `q·m < 1`). A
//! scramble becomes its board here, once, so no slice replays the walk.
//! Parsing is strict — unknown fields, wrong types and refused values are
//! [`ServeError::Proto`] rejections; the engine knobs go through the
//! shared [`Scheme::parse`] / [`EngineKind::parse`] / [`CostModel::parse`]
//! entry points.
//!
//! The parsed [`JobSpec`] owns the run entry points the scheduler uses:
//! [`JobSpec::run_slice`] executes the job from scratch or from parked
//! snapshot bytes, with a [`PreemptSignal`] armed so the scheduler can
//! park it at the next macro-step boundary, and [`JobSpec::oracle`] is
//! the uninterrupted [`uts_core::run_with`] the differential tests compare
//! against.

use uts_ckpt::{CheckpointPolicy, PreemptSignal};
use uts_core::ckpt::CheckpointCfg;
use uts_core::{config_fingerprint, EngineConfig, EngineKind, Outcome, RunError, Scheme, Workload};
use uts_machine::CostModel;

use crate::error::ServeError;
use crate::json::Json;

/// A fully validated job: workload + engine configuration.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// What to search.
    pub workload: Workload,
    /// How to run it. Checkpointing is *not* part of the spec — the
    /// scheduler arms it per slice.
    pub config: EngineConfig,
}

/// Largest `p` a spec may ask for: four times the largest machine any
/// workload, test or bench in this repository runs. The run's first act is
/// several `p`-sized allocations in a runner thread, and the `.spec` is
/// durable before that, so an unbounded `p` fails the server again on
/// every restart.
const MAX_P: u64 = 1 << 22;

/// Largest `threads` a spec may ask for; the par engine spawns that
/// many OS threads (less its own) for every burst it fans out.
const MAX_THREADS: u64 = 256;

/// `obj`'s `key` read through `as_t`: `None` when absent, a `proto` error
/// naming `what` it must be when present but of another type.
fn field<'a, T>(
    obj: &'a Json,
    key: &str,
    what: &str,
    as_t: fn(&'a Json) -> Option<T>,
) -> Result<Option<T>, ServeError> {
    let wrong = || ServeError::Proto(format!("`{key}` must be {what}"));
    obj.get(key).map(|v| as_t(v).ok_or_else(wrong)).transpose()
}

fn field_u64(obj: &Json, key: &str) -> Result<Option<u64>, ServeError> {
    field(obj, key, "an unsigned integer", Json::as_u64)
}

fn field_f64(obj: &Json, key: &str) -> Result<Option<f64>, ServeError> {
    field(obj, key, "a number", Json::as_f64)
}

fn field_bool(obj: &Json, key: &str) -> Result<Option<bool>, ServeError> {
    field(obj, key, "a boolean", Json::as_bool)
}

fn field_str<'a>(obj: &'a Json, key: &str) -> Result<Option<&'a str>, ServeError> {
    field(obj, key, "a string", Json::as_str)
}

fn check_known_keys(obj: &Json, known: &[&str], ctx: &str) -> Result<(), ServeError> {
    if let Json::Obj(pairs) = obj {
        for (key, _) in pairs {
            if !known.contains(&key.as_str()) {
                return Err(ServeError::Proto(format!("unknown {ctx} field `{key}`")));
            }
        }
        Ok(())
    } else {
        Err(ServeError::Proto(format!("{ctx} must be an object")))
    }
}

impl JobSpec {
    /// Parse and validate a submit body. Defaults mirror the CLI:
    /// `p = 1024`, `scheme = gp-dk`, `cost = cm2`, the macro engine.
    pub fn parse(body: &str) -> Result<JobSpec, ServeError> {
        let root = Json::parse(body).map_err(ServeError::Proto)?;
        check_known_keys(
            &root,
            &["workload", "p", "scheme", "cost", "engine", "threads", "ledger", "lb_mult"],
            "spec",
        )?;

        let workload = Self::parse_workload(
            root.get("workload").ok_or_else(|| ServeError::Proto("missing `workload`".into()))?,
        )?;

        let p = field_u64(&root, "p")?.unwrap_or(1024);
        if p == 0 || p > MAX_P {
            return Err(ServeError::Proto(format!("`p` must be in 1..={MAX_P}, got {p}")));
        }
        let p = p as usize;
        let scheme = field_str(&root, "scheme")?.map_or(Ok(Scheme::gp_dk()), Scheme::parse);
        let cost = field_str(&root, "cost")?.map_or(Ok(CostModel::cm2()), CostModel::parse);
        let (scheme, cost) = (scheme.map_err(ServeError::Proto)?, cost.map_err(ServeError::Proto)?);
        let cost = match field_u64(&root, "lb_mult")? {
            Some(k) if k > 0 && k <= u32::MAX as u64 => cost.with_lb_multiplier(k as u32),
            Some(k) => return Err(ServeError::Proto(format!("bad `lb_mult` {k}"))),
            None => cost,
        };
        let mut config = EngineConfig::new(p, scheme, cost);
        let engine = field_str(&root, "engine")?.map_or(Ok(config.engine), EngineKind::parse);
        config.engine = engine.map_err(ServeError::Proto)?;
        if let Some(t) = field_u64(&root, "threads")? {
            if t == 0 || t > MAX_THREADS {
                return Err(ServeError::Proto(format!(
                    "`threads` must be in 1..={MAX_THREADS}, got {t}"
                )));
            }
            config.threads = Some(t as usize);
        }
        if field_bool(&root, "ledger")?.unwrap_or(false) {
            config.record_ledger = true;
        }
        Ok(JobSpec { workload, config })
    }

    /// Map a spec's `workload` object onto the [`Workload`] constructors,
    /// which hold every default and check.
    fn parse_workload(w: &Json) -> Result<Workload, ServeError> {
        let seed = field_u64(w, "seed")?;
        let known = |keys: &[&str], ctx| check_known_keys(w, keys, ctx);
        match field_str(w, "kind")?
            .ok_or_else(|| ServeError::Proto("missing `workload.kind`".into()))?
        {
            "synth" => {
                known(&["kind", "seed", "b_max", "depth_limit"], "synth workload")?;
                Workload::synth(seed, field_u64(w, "b_max")?, field_u64(w, "depth_limit")?)
            }
            "utsgen" => match field_str(w, "family")?.unwrap_or("geometric") {
                "geometric" => {
                    let keys = ["kind", "family", "seed", "b_max", "depth"];
                    known(&keys, "utsgen geometric workload")?;
                    Workload::geometric(seed, field_u64(w, "b_max")?, field_u64(w, "depth")?)
                }
                "binomial" => {
                    let keys = ["kind", "family", "seed", "b0", "m", "q"];
                    known(&keys, "utsgen binomial workload")?;
                    let (b0, m) = (field_u64(w, "b0")?, field_u64(w, "m")?);
                    Workload::binomial(seed, b0, m, field_f64(w, "q")?)
                }
                other => Err(format!("unknown utsgen family `{other}`")),
            },
            "scramble" => {
                known(&["kind", "seed", "walk", "bound"], "scramble workload")?;
                let bound = field_u64(w, "bound")?;
                Workload::scramble_board(seed, field_u64(w, "walk")?)
                    .and_then(|board| Workload::puzzle(board, bound))
            }
            other => Err(format!("unknown workload kind `{other}`")),
        }
        .map_err(ServeError::Proto)
    }

    /// The config fingerprint every snapshot of this job carries.
    pub fn fingerprint(&self) -> u64 {
        config_fingerprint(&self.config)
    }

    /// The uninterrupted run — the differential oracle.
    pub fn oracle(&self) -> Outcome {
        self.workload.run(&self.config, None).expect("a spec neither resumes nor checkpoints")
    }

    /// Run one scheduling slice: from scratch, or resumed from `parked`
    /// snapshot bytes. `signal` is armed as the slice's cooperative
    /// preemption flag; if the slice was parked (`Outcome::killed`), the
    /// forced boundary snapshot's bytes come back alongside it.
    pub fn run_slice(
        &self,
        parked: Option<&[u8]>,
        signal: &PreemptSignal,
    ) -> Result<(Outcome, Option<Vec<u8>>), RunError> {
        let ck = CheckpointCfg::new(CheckpointPolicy::default()).with_preempt(signal.clone());
        let sink = ck.sink.clone();
        let cfg = self.config.clone().with_checkpoint_cfg(ck);
        let out = self.workload.run(&cfg, parked)?;
        let park = if out.killed {
            Some(sink.taken().pop().expect("a parked slice forces a boundary snapshot").bytes)
        } else {
            None
        };
        Ok((out, park))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uts_core::{outcome_digest, run_with};
    use uts_synth::GeometricTree;
    use uts_synthgen::GenTree;

    #[test]
    fn parses_a_minimal_synth_spec_with_cli_defaults() {
        let spec = JobSpec::parse(r#"{"workload":{"kind":"synth","seed":3}}"#).unwrap();
        assert_eq!(
            spec.workload,
            Workload::Synth(GeometricTree { seed: 3, b_max: 8, depth_limit: 6 })
        );
        assert_eq!(spec.config.p, 1024);
        assert_eq!(spec.config.scheme, Scheme::gp_dk());
        assert_eq!(spec.config.engine, EngineKind::Macro);
    }

    #[test]
    fn the_retired_fused_engine_name_parses_as_macro() {
        // Specs an older server accepted (and spilled) may still name the
        // cycle-major engine; they run on the macro engine, which has the
        // same schedule.
        let spec = JobSpec::parse(r#"{"workload":{"kind":"synth"},"engine":"fused"}"#).unwrap();
        assert_eq!(spec.config.engine, EngineKind::Macro);
    }

    #[test]
    fn rejects_unknown_fields_and_bad_types() {
        for bad in [
            r#"{"workload":{"kind":"synth"},"bogus":1}"#,
            r#"{"workload":{"kind":"synth","extra":1}}"#,
            r#"{"workload":{"kind":"weird"}}"#,
            r#"{"workload":{"kind":"synth"},"p":"ten"}"#,
            r#"{"workload":{"kind":"synth"},"p":0}"#,
            r#"{"workload":{"kind":"synth"},"p":1099511627776}"#,
            r#"{"workload":{"kind":"synth"},"engine":"par","threads":1000000}"#,
            r#"{"workload":{"kind":"synth"},"scheme":"nope"}"#,
            r#"{"workload":{"kind":"synth"},"engine":"quantum"}"#,
            r#"{"p":4}"#,
            r#"not json"#,
            // A walk is replayed move by move before the search starts.
            r#"{"workload":{"kind":"scramble","seed":1,"walk":18446744073709551615,"bound":40},"p":4}"#,
            r#"{"workload":{"kind":"scramble","seed":1,"walk":18446744073709551615},"p":4}"#,
            r#"{"workload":{"kind":"scramble","seed":1,"walk":14,"bound":81}}"#,
        ] {
            let err = JobSpec::parse(bad).unwrap_err();
            assert_eq!(err.kind(), "proto", "`{bad}` → {err}");
        }
    }

    #[test]
    fn parses_utsgen_specs_for_both_families() {
        let g = JobSpec::parse(
            r#"{"workload":{"kind":"utsgen","family":"geometric","seed":5,"b_max":6,"depth":7}}"#,
        )
        .unwrap();
        assert_eq!(g.workload, Workload::UtsGen(GenTree::geometric(5, 6, 7)));
        let d = JobSpec::parse(r#"{"workload":{"kind":"utsgen"}}"#).unwrap();
        assert_eq!(d.workload, Workload::UtsGen(GenTree::geometric(1, 8, 6)), "defaults");
        let b = JobSpec::parse(
            r#"{"workload":{"kind":"utsgen","family":"binomial","seed":9,"b0":32,"m":4,"q":0.2}}"#,
        )
        .unwrap();
        assert_eq!(b.workload, Workload::UtsGen(GenTree::binomial(9, 32, 4, 0.2)));
    }

    #[test]
    fn rejects_malformed_utsgen_specs() {
        for bad in [
            r#"{"workload":{"kind":"utsgen","family":"exotic"}}"#,
            r#"{"workload":{"kind":"utsgen","b0":4}}"#,
            r#"{"workload":{"kind":"utsgen","family":"binomial","b_max":8}}"#,
            r#"{"workload":{"kind":"utsgen","family":"binomial","q":0.3,"m":4}}"#,
            r#"{"workload":{"kind":"utsgen","family":"binomial","q":1.5}}"#,
            r#"{"workload":{"kind":"utsgen","family":"geometric","depth":65}}"#,
            r#"{"workload":{"kind":"utsgen","q":"zero"}}"#,
        ] {
            let err = JobSpec::parse(bad).unwrap_err();
            assert_eq!(err.kind(), "proto", "`{bad}` → {err}");
        }
    }

    #[test]
    fn a_preempted_utsgen_slice_parks_and_resumes_bit_identically() {
        let spec = JobSpec::parse(
            r#"{"workload":{"kind":"utsgen","family":"binomial","seed":13,"b0":48,"m":4,"q":0.21},"p":64}"#,
        )
        .unwrap();
        let oracle = spec.oracle();

        let signal = PreemptSignal::new();
        signal.raise();
        let (out, park) = spec.run_slice(None, &signal).unwrap();
        assert!(out.killed);
        let bytes = park.expect("parked slice yields snapshot bytes");

        signal.clear();
        let (resumed, park) = spec.run_slice(Some(&bytes), &signal).unwrap();
        assert!(park.is_none());
        assert_eq!(resumed, oracle);
        assert_eq!(outcome_digest(&resumed), outcome_digest(&oracle));
    }

    #[test]
    fn a_preempted_slice_parks_and_resumes_bit_identically() {
        let spec = JobSpec::parse(
            r#"{"workload":{"kind":"synth","seed":11,"b_max":8,"depth_limit":6},"p":64}"#,
        )
        .unwrap();
        let oracle = spec.oracle();

        let signal = PreemptSignal::new();
        signal.raise();
        let (out, park) = spec.run_slice(None, &signal).unwrap();
        assert!(out.killed);
        let bytes = park.expect("parked slice yields snapshot bytes");

        signal.clear();
        let (resumed, park) = spec.run_slice(Some(&bytes), &signal).unwrap();
        assert!(park.is_none());
        assert_eq!(resumed, oracle);
        assert_eq!(outcome_digest(&resumed), outcome_digest(&oracle));
    }

    #[test]
    fn a_ring_nn_job_serves_the_direct_run_digest() {
        let spec = JobSpec::parse(
            r#"{"workload":{"kind":"synth","seed":4,"b_max":8,"depth_limit":6},"p":64,"scheme":"ring-nn"}"#,
        )
        .unwrap();
        assert_eq!(spec.config.scheme, Scheme::ring_nn());
        let tree = GeometricTree { seed: 4, b_max: 8, depth_limit: 6 };
        let direct = run_with(&tree, &EngineConfig::new(64, Scheme::ring_nn(), CostModel::cm2()));
        assert!(direct.report.n_lb > 0, "the job must balance to exercise the ring");

        // Served the way a slot runs it: parked at its first boundary,
        // then resumed from the parked bytes.
        let signal = PreemptSignal::new();
        signal.raise();
        let (out, park) = spec.run_slice(None, &signal).unwrap();
        assert!(out.killed);
        signal.clear();
        let (served, _) = spec.run_slice(park.as_deref(), &signal).unwrap();
        assert_eq!(outcome_digest(&served), outcome_digest(&direct));
        assert_eq!(outcome_digest(&spec.oracle()), outcome_digest(&direct));
    }

    #[test]
    fn scramble_bound_resolution_is_deterministic() {
        let a = JobSpec::parse(r#"{"workload":{"kind":"scramble","seed":7,"walk":14},"p":32}"#)
            .unwrap();
        let b = JobSpec::parse(r#"{"workload":{"kind":"scramble","seed":7,"walk":14},"p":32}"#)
            .unwrap();
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.oracle(), b.oracle());
    }
}
