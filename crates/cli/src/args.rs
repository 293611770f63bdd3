//! Flag parsing and the workload flags. Schemes, engines and cost models
//! parse through [`uts_core::Scheme::parse`], [`uts_core::EngineKind::parse`]
//! and [`uts_machine::CostModel::parse`], which the job server shares.

use std::collections::BTreeMap;

use uts_core::Workload;

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

    /// Parse a flag's value, or `None` when absent.
    pub fn get_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| v.parse().map_err(|_| format!("--{key}: cannot parse `{v}`"));
        self.get(key).map(parse).transpose()
    }

    /// Parse a flag's value, falling back to `default` when absent.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.get_opt(key)?.unwrap_or(default))
    }
}

/// The flags [`parse_board`] reads; `sts solve` and `sts mimd` take these
/// alone.
pub(crate) const BOARD_FLAGS: &[&str] = &["korf", "seed", "walk"];

/// The flags [`parse_workload`] reads besides [`BOARD_FLAGS`].
pub(crate) const WORKLOAD_FLAGS: &[&str] =
    &["workload", "family", "bound", "b-max", "depth", "b0", "m", "q"];

/// A 15-puzzle start board: `--korf K`, else the scramble `--seed S
/// --walk N`.
pub fn parse_board(flags: &Flags) -> Result<u64, String> {
    match flags.get_opt("korf")? {
        Some(id) => Workload::korf_board(id),
        None => Workload::scramble_board(flags.get_opt("seed")?, flags.get_opt("walk")?),
    }
}

/// The workload of `sts run` and `sts shard`: by default one IDA\*
/// iteration of [`parse_board`]'s board at `--bound`; with `--workload
/// utsgen` a generated tree, `--family geometric` (`--seed --b-max
/// --depth`) or `binomial` (`--seed --b0 --m --q`). The flags map onto the
/// [`Workload`] constructors, which hold the defaults and every check.
pub fn parse_workload(flags: &Flags) -> Result<Workload, String> {
    let seed = flags.get_opt("seed")?;
    match flags.get("workload") {
        None | Some("puzzle15") => Workload::puzzle(parse_board(flags)?, flags.get_opt("bound")?),
        Some("utsgen") => match flags.get("family").unwrap_or("geometric") {
            "geometric" => {
                Workload::geometric(seed, flags.get_opt("b-max")?, flags.get_opt("depth")?)
            }
            "binomial" => {
                let (b0, m) = (flags.get_opt("b0")?, flags.get_opt("m")?);
                Workload::binomial(seed, b0, m, flags.get_opt("q")?)
            }
            other => Err(format!("--family: unknown `{other}` (geometric|binomial)")),
        },
        Some(other) => Err(format!("--workload: unknown `{other}` (puzzle15|utsgen)")),
    }
}
