//! Job specifications: what a client submits, and how it runs.
//!
//! A spec is the JSON body of `POST /submit`: a workload (a seeded
//! [`GeometricTree`], an on-the-fly [`GenTree`] generator, or a 15-puzzle
//! scramble) plus the engine knobs the
//! CLI exposes (`p`, `scheme`, `cost`, `engine`, `threads`, `ledger`).
//! Parsing is strict — unknown fields and wrong types are [`ServeError::Proto`]
//! rejections, mirroring the CLI's flag grammar via the shared
//! [`Scheme::parse`] / [`EngineKind::parse`] / [`CostModel::parse`]
//! entry points.
//!
//! The parsed [`JobSpec`] owns the run entry points the scheduler uses:
//! [`JobSpec::run_slice`] executes the job from scratch or from parked
//! snapshot bytes, with a [`PreemptSignal`] armed so the scheduler can
//! park it at the next macro-step boundary, and [`JobSpec::oracle`] is
//! the uninterrupted [`run_with`] the differential tests compare against.

use uts_ckpt::{CheckpointPolicy, CkptError, PreemptSignal};
use uts_core::ckpt::CheckpointCfg;
use uts_core::{
    config_fingerprint, resume_from_bytes, run_with, EngineConfig, EngineKind, Outcome, Scheme,
};
use uts_machine::CostModel;
use uts_puzzle15::Puzzle15;
use uts_synth::GeometricTree;
use uts_synthgen::GenTree;
use uts_tree::ida::ida_star;
use uts_tree::problem::BoundedProblem;

use crate::error::ServeError;
use crate::json::Json;

/// The search problem a job runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// A seeded synthetic geometric tree (`uts-synth`).
    Synth(GeometricTree),
    /// An on-the-fly hash-chained generator tree (`uts-synthgen`):
    /// `{"kind":"utsgen","family":"geometric"|"binomial", "seed":…,
    /// "b_max":…, "depth":…}` or `{"…","b0":…, "m":…, "q":…}`.
    UtsGen(GenTree),
    /// One bounded IDA\* iteration of a seeded 15-puzzle scramble. The
    /// bound is resolved at parse time (explicit field, else the optimal
    /// cost from a serial IDA\* probe) so every slice of the job searches
    /// the same iteration.
    Scramble {
        /// Scramble seed.
        seed: u64,
        /// Random-walk length.
        walk: usize,
        /// The resolved iteration bound.
        bound: u32,
    },
}

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

/// Largest `threads` a spec may ask for; the pooled engine spawns that
/// many OS threads (less its own) for every burst it fans out.
const MAX_THREADS: u64 = 256;

fn field_u64(obj: &Json, key: &str) -> Result<Option<u64>, ServeError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| ServeError::Proto(format!("`{key}` must be an unsigned integer"))),
    }
}

fn field_f64(obj: &Json, key: &str) -> Result<Option<f64>, ServeError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| ServeError::Proto(format!("`{key}` must be a number"))),
    }
}

fn field_bool(obj: &Json, key: &str) -> Result<Option<bool>, ServeError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_bool()
            .map(Some)
            .ok_or_else(|| ServeError::Proto(format!("`{key}` must be a boolean"))),
    }
}

fn field_str<'a>(obj: &'a Json, key: &str) -> Result<Option<&'a str>, ServeError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| ServeError::Proto(format!("`{key}` must be a string"))),
    }
}

fn check_known_keys(obj: &Json, known: &[&str], ctx: &str) -> Result<(), ServeError> {
    if let Json::Obj(map) = obj {
        for key in map.keys() {
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
        let scheme = match field_str(&root, "scheme")? {
            Some(s) => Scheme::parse(s).map_err(ServeError::Proto)?,
            None => Scheme::gp_dk(),
        };
        let cost = match field_str(&root, "cost")? {
            Some(c) => CostModel::parse(c).map_err(ServeError::Proto)?,
            None => CostModel::cm2(),
        };
        let cost = match field_u64(&root, "lb_mult")? {
            Some(k) if k > 0 && k <= u32::MAX as u64 => cost.with_lb_multiplier(k as u32),
            Some(k) => return Err(ServeError::Proto(format!("bad `lb_mult` {k}"))),
            None => cost,
        };
        let mut config = EngineConfig::new(p, scheme, cost);
        if let Some(e) = field_str(&root, "engine")? {
            config.engine = EngineKind::parse(e).map_err(ServeError::Proto)?;
        }
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

    fn parse_workload(w: &Json) -> Result<Workload, ServeError> {
        match field_str(w, "kind")?
            .ok_or_else(|| ServeError::Proto("missing `workload.kind`".into()))?
        {
            "synth" => {
                check_known_keys(w, &["kind", "seed", "b_max", "depth_limit"], "synth workload")?;
                let b_max = field_u64(w, "b_max")?.unwrap_or(8);
                let depth_limit = field_u64(w, "depth_limit")?.unwrap_or(6);
                if b_max > u32::MAX as u64 || depth_limit > 64 {
                    return Err(ServeError::Proto("synth workload out of range".into()));
                }
                Ok(Workload::Synth(GeometricTree {
                    seed: field_u64(w, "seed")?.unwrap_or(1),
                    b_max: b_max as u32,
                    depth_limit: depth_limit as u32,
                }))
            }
            "utsgen" => {
                let family = field_str(w, "family")?.unwrap_or("geometric");
                let seed = field_u64(w, "seed")?.unwrap_or(1);
                match family {
                    "geometric" => {
                        check_known_keys(
                            w,
                            &["kind", "family", "seed", "b_max", "depth"],
                            "utsgen geometric workload",
                        )?;
                        let b_max = field_u64(w, "b_max")?.unwrap_or(8);
                        let depth = field_u64(w, "depth")?.unwrap_or(6);
                        if b_max > u32::MAX as u64 || depth > 64 {
                            return Err(ServeError::Proto("utsgen workload out of range".into()));
                        }
                        Ok(Workload::UtsGen(GenTree::geometric(seed, b_max as u32, depth as u32)))
                    }
                    "binomial" => {
                        check_known_keys(
                            w,
                            &["kind", "family", "seed", "b0", "m", "q"],
                            "utsgen binomial workload",
                        )?;
                        let b0 = field_u64(w, "b0")?.unwrap_or(16);
                        let m = field_u64(w, "m")?.unwrap_or(4);
                        let q = field_f64(w, "q")?.unwrap_or(0.2);
                        if b0 > u32::MAX as u64 || m > u32::MAX as u64 {
                            return Err(ServeError::Proto("utsgen workload out of range".into()));
                        }
                        if !(0.0..1.0).contains(&q) || q * m as f64 >= 1.0 {
                            return Err(ServeError::Proto(format!(
                                "utsgen binomial must be subcritical: q·m < 1, got q={q} m={m}"
                            )));
                        }
                        Ok(Workload::UtsGen(GenTree::binomial(seed, b0 as u32, m as u32, q)))
                    }
                    other => Err(ServeError::Proto(format!("unknown utsgen family `{other}`"))),
                }
            }
            "scramble" => {
                check_known_keys(w, &["kind", "seed", "walk", "bound"], "scramble workload")?;
                let seed = field_u64(w, "seed")?.unwrap_or(42);
                let walk = field_u64(w, "walk")?.unwrap_or(40) as usize;
                let bound = match field_u64(w, "bound")? {
                    Some(b) if b <= 80 => b as u32,
                    Some(b) => return Err(ServeError::Proto(format!("bad `bound` {b}"))),
                    None => {
                        let puzzle = Puzzle15::new(uts_puzzle15::scrambled(seed, walk).board());
                        ida_star(&puzzle, 80).solution_cost.ok_or_else(|| {
                            ServeError::Proto("scramble not solvable within bound 80".into())
                        })?
                    }
                };
                Ok(Workload::Scramble { seed, walk, bound })
            }
            other => Err(ServeError::Proto(format!("unknown workload kind `{other}`"))),
        }
    }

    /// The config fingerprint every snapshot of this job carries.
    pub fn fingerprint(&self) -> u64 {
        config_fingerprint(&self.config)
    }

    /// The uninterrupted run — the differential oracle.
    pub fn oracle(&self) -> Outcome {
        self.dispatch(&self.config, None).expect("no snapshot bytes to reject")
    }

    /// Run one scheduling slice: from scratch, or resumed from `parked`
    /// snapshot bytes. `signal` is armed as the slice's cooperative
    /// preemption flag; if the slice was parked (`Outcome::killed`), the
    /// forced boundary snapshot's bytes come back alongside it.
    pub fn run_slice(
        &self,
        parked: Option<&[u8]>,
        signal: &PreemptSignal,
    ) -> Result<(Outcome, Option<Vec<u8>>), CkptError> {
        let ck = CheckpointCfg::new(CheckpointPolicy::default()).with_preempt(signal.clone());
        let sink = ck.sink.clone();
        let cfg = self.config.clone().with_checkpoint_cfg(ck);
        let out = self.dispatch(&cfg, parked)?;
        let park = if out.killed {
            Some(sink.taken().pop().expect("a parked slice forces a boundary snapshot").bytes)
        } else {
            None
        };
        Ok((out, park))
    }

    fn dispatch(&self, cfg: &EngineConfig, parked: Option<&[u8]>) -> Result<Outcome, CkptError> {
        match &self.workload {
            Workload::Synth(tree) => match parked {
                None => Ok(run_with(tree, cfg)),
                Some(bytes) => resume_from_bytes(tree, cfg, bytes),
            },
            Workload::UtsGen(tree) => match parked {
                None => Ok(run_with(tree, cfg)),
                Some(bytes) => resume_from_bytes(tree, cfg, bytes),
            },
            Workload::Scramble { seed, walk, bound } => {
                let puzzle = Puzzle15::new(uts_puzzle15::scrambled(*seed, *walk).board());
                let bp = BoundedProblem::new(&puzzle, *bound);
                match parked {
                    None => Ok(run_with(&bp, cfg)),
                    Some(bytes) => resume_from_bytes(&bp, cfg, bytes),
                }
            }
        }
    }
}

/// FNV-1a digest of an [`Outcome`]'s complete debug rendering — every
/// counter, float bit pattern (Rust renders floats round-trippably),
/// donation vector, and ledger phase. Two outcomes digest equal iff they
/// are the same outcome, so a client can assert bit-identity through the
/// HTTP API without shipping the whole structure.
pub fn outcome_digest(out: &Outcome) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{out:?}").bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn scramble_bound_resolution_is_deterministic() {
        let a = JobSpec::parse(r#"{"workload":{"kind":"scramble","seed":7,"walk":14},"p":32}"#)
            .unwrap();
        let b = JobSpec::parse(r#"{"workload":{"kind":"scramble","seed":7,"walk":14},"p":32}"#)
            .unwrap();
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.oracle(), b.oracle());
    }
}
