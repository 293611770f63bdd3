//! Flag parsing and the small grammars for schemes, cost models and
//! workloads.

use std::collections::BTreeMap;

use uts_core::{EngineKind, Scheme};
use uts_machine::CostModel;
use uts_puzzle15::{korf_instances, Instance};
use uts_synthgen::GenTree;

/// Parsed `--key value` flags.
#[derive(Debug, Clone, Default)]
pub struct Flags {
    values: BTreeMap<String, String>,
}

impl Flags {
    /// Parse a `--key value --key2 value2 …` argument list.
    pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<Flags, String> {
        let mut values = BTreeMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let arg = arg.as_ref();
            let key =
                arg.strip_prefix("--").ok_or_else(|| format!("expected a --flag, got `{arg}`"))?;
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{key} needs a value"))?
                .as_ref()
                .to_string();
            values.insert(key.to_string(), value);
        }
        Ok(Flags { values })
    }

    /// Fail with an error naming the first flag that is in none of the
    /// `accepted` sets. Commands call this before doing any work, so a
    /// misspelt flag is never silently replaced by its default.
    pub fn reject_unknown(&self, accepted: &[&[&str]]) -> Result<(), String> {
        match self.values.keys().find(|key| !accepted.iter().any(|set| set.contains(&key.as_str())))
        {
            Some(key) => Err(format!("unknown flag --{key}")),
            None => Ok(()),
        }
    }

    /// Raw value of a flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Parse a flag's value, falling back to `default` when absent.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot parse `{v}`")),
        }
    }
}

/// Parse a scheme name (`gp-s:0.8`, `ngp-dk`, `fess`, …). The grammar
/// lives on [`Scheme::parse`] so the job server shares it.
pub fn parse_scheme(s: &str) -> Result<Scheme, String> {
    Scheme::parse(s)
}

/// Parse an engine name.
pub fn parse_engine(s: &str) -> Result<EngineKind, String> {
    EngineKind::parse(s)
}

/// Parse a cost-model name.
pub fn parse_cost(s: &str) -> Result<CostModel, String> {
    CostModel::parse(s)
}

/// Which 15-puzzle workload to search.
#[derive(Debug, Clone, Copy)]
pub enum WorkloadSpec {
    /// An embedded Korf benchmark instance.
    Korf(u32),
    /// A seeded scramble.
    Scramble {
        /// RNG seed.
        seed: u64,
        /// Walk length.
        walk: usize,
    },
}

impl WorkloadSpec {
    /// Materialize the instance.
    pub fn instance(self) -> Instance {
        match self {
            WorkloadSpec::Korf(id) => {
                *korf_instances().iter().find(|i| i.id == id).expect("validated by parse_workload")
            }
            WorkloadSpec::Scramble { seed, walk } => uts_puzzle15::scrambled(seed, walk),
        }
    }
}

/// A workload for the SIMD engines (`sts run` / `sts resume`): the
/// default bounded 15-puzzle iteration, or an on-the-fly generated tree
/// selected with `--workload utsgen`.
#[derive(Debug, Clone, Copy)]
pub enum SimdWorkloadSpec {
    /// A bounded 15-puzzle iteration (the default).
    Puzzle(WorkloadSpec),
    /// A generated Galton–Watson tree from `uts-synthgen`.
    UtsGen(GenTree),
}

/// The flags [`parse_simd_workload`] reads besides [`WORKLOAD_FLAGS`].
pub(crate) const SIMD_WORKLOAD_FLAGS: &[&str] =
    &["workload", "family", "b-max", "depth", "b0", "m", "q"];

/// Parse the SIMD workload. `--workload utsgen` selects the generated
/// family (`--family geometric|binomial` plus `--seed`, and `--b-max
/// --depth` or `--b0 --m --q`); anything else falls through to the
/// 15-puzzle grammar of [`parse_workload`].
pub fn parse_simd_workload(flags: &Flags) -> Result<SimdWorkloadSpec, String> {
    match flags.get("workload") {
        None | Some("puzzle15") => Ok(SimdWorkloadSpec::Puzzle(parse_workload(flags)?)),
        Some("utsgen") => {
            let seed = flags.get_parsed("seed", 1u64)?;
            match flags.get("family").unwrap_or("geometric") {
                "geometric" => {
                    let b_max = flags.get_parsed("b-max", 8u32)?;
                    let depth = flags.get_parsed("depth", 6u32)?;
                    if depth > 64 {
                        return Err(format!("--depth {depth}: at most 64"));
                    }
                    Ok(SimdWorkloadSpec::UtsGen(GenTree::geometric(seed, b_max, depth)))
                }
                "binomial" => {
                    let b0 = flags.get_parsed("b0", 16u32)?;
                    let m = flags.get_parsed("m", 4u32)?;
                    let q = flags.get_parsed("q", 0.2f64)?;
                    if !(0.0..1.0).contains(&q) || q * m as f64 >= 1.0 {
                        return Err(format!(
                            "--q {q} --m {m}: the binomial family must be subcritical (q*m < 1)"
                        ));
                    }
                    Ok(SimdWorkloadSpec::UtsGen(GenTree::binomial(seed, b0, m, q)))
                }
                other => Err(format!("--family: unknown `{other}` (geometric|binomial)")),
            }
        }
        Some(other) => Err(format!("--workload: unknown `{other}` (puzzle15|utsgen)")),
    }
}

/// The flags [`parse_workload`] reads.
pub(crate) const WORKLOAD_FLAGS: &[&str] = &["korf", "seed", "walk"];

/// Extract a workload from `--korf K` or `--seed S --walk N` flags
/// (defaults: scramble seed 42, walk 40).
pub fn parse_workload(flags: &Flags) -> Result<WorkloadSpec, String> {
    if let Some(k) = flags.get("korf") {
        let id: u32 = k.parse().map_err(|_| format!("--korf: bad id `{k}`"))?;
        if !korf_instances().iter().any(|i| i.id == id) {
            return Err(format!(
                "--korf {id}: not an embedded instance (have 1..={})",
                korf_instances().last().expect("non-empty set").id
            ));
        }
        return Ok(WorkloadSpec::Korf(id));
    }
    let seed = flags.get_parsed("seed", 42u64)?;
    let walk = flags.get_parsed("walk", 40usize)?;
    Ok(WorkloadSpec::Scramble { seed, walk })
}
