//! Argument parsing and command implementations for the `sts` binary.
//!
//! The parsing layer is hand-rolled (no external CLI crates) and lives in
//! this library so it is unit-testable; `main.rs` is a thin shim.

pub mod args;
pub mod commands;

pub use args::{parse_board, parse_workload, Flags};

/// Why a command failed, which decides how `sts` exits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The command line is wrong: an unknown command or flag, a malformed
    /// value, a missing required flag. `sts` prints the usage and exits 2.
    Usage(String),
    /// The command line was fine but the command failed while running (a
    /// refused snapshot, a lost shard worker, an unreadable file). `sts`
    /// prints the error alone and exits 1.
    Failed(String),
}

impl CliError {
    /// A failure while running, from any displayable error.
    pub fn failed(e: impl std::fmt::Display) -> Self {
        CliError::Failed(e.to_string())
    }
}

impl From<String> for CliError {
    fn from(e: String) -> Self {
        CliError::Usage(e)
    }
}

impl From<&str> for CliError {
    fn from(e: &str) -> Self {
        CliError::Usage(e.to_string())
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (CliError::Usage(e) | CliError::Failed(e)) = self;
        f.write_str(e)
    }
}

/// Exit with a usage message.
pub const USAGE: &str = "\
sts — unstructured tree search on (simulated) SIMD parallel computers

USAGE:
  sts solve   [--seed S] [--walk N | --korf K] [--max-bound B]
                                                         serial IDA* on a 15-puzzle
  sts run     [--p P] [--scheme SCHEME] [--cost MODEL] [--lb-mult M]
              [--seed S] [--walk N | --korf K] [--bound B] [--ledger true]
              [--engine E] [--checkpoint-dir DIR] [--checkpoint-every N]
              [--kill-at K] [--snapshot PATH] [--workload puzzle15|utsgen]
                                                         parallel SIMD search
  sts shard   [--shards N] [--worker-kill-at K [--worker-kill-shard S]]
              [same flags as run]                        multi-process sharded machine
  sts mimd    [--p P] [--policy grr|arr|rp|nn] [--seed S] [--walk N | --korf K]
                                                         MIMD work stealing
  sts xo      --w W [--p P] [--ratio R]                  optimal static trigger
  sts serve   [--addr A] [--slots N] [--spill-dir DIR] [--quantum-ms Q]
              [--poll-ms MS]                             HTTP/JSON job server

A command rejects any flag it does not list here.

Puzzle workloads: `--korf K`, or a scramble `--seed S` (42) `--walk N` (40,
at most 1000); `--bound B` is at most 80 and defaults to the optimal cost.

Output: `run` and `shard` print the JSON run report on stdout
(the same bytes for `run X` and `shard X`) and everything else on stderr.

SCHEMES: gp-s:<x>  ngp-s:<x>  gp-dk  ngp-dk  gp-dp  ngp-dp  fess  fegs  ring-nn
COSTS:   cm2  hypercube  mesh
ENGINES: macro (default)  par  reference   (`fused` is read as macro)

Checkpointing: `sts run|shard --checkpoint-dir DIR --checkpoint-every N`
writes a snapshot `ckpt-<step>.bin` into DIR every Nth macro-step
boundary (DIR is created first; one that cannot be is an error before the
run starts); `--kill-at K` injects a fault (clean stop) at boundary K.
`sts run --snapshot DIR/ckpt-....bin` or `sts shard --snapshot ...`
continues the run — pass the *same* workload and config flags: a snapshot
is only valid against the configuration that produced it (enforced by a
config fingerprint in the header), whichever command wrote it.

Generated trees: `sts run --workload utsgen` searches an on-the-fly
Galton–Watson tree instead of a 15-puzzle iteration. `--family geometric`
(default) takes `--seed S --b-max B --depth D`; `--family binomial` takes
`--seed S --b0 B --m M --q Q` with q*m < 1 (subcritical); --depth is at
most 64. Nodes are derived from a hash-chained RNG state, so memory stays
O(live stacks) no matter how large the tree is.

Sharding: `sts shard --shards N` runs the identical search across N worker
processes, each owning a contiguous slab of PEs, with the coordinator
serializing every balancing phase over the checkpoint wire format — the
outcome is bit-identical to `sts run` at any N, and every balancing phase
additionally carries *measured* interconnect routing next to the cost
model's closed form. It checkpoints under the flags above; after a crash
(or `--worker-kill-at K`, which SIGKILLs one worker mid-run for drills),
`sts shard --snapshot DIR/ckpt-....bin` resumes bit-identically at any
shard count, and so does `sts run --snapshot`. Example:

  sts shard --shards 8 --p 1048576 --workload utsgen --b-max 8 --depth 12 \\
            --scheme gp-dk --ledger true

Serving: `sts serve` runs a job server. POST a spec like
`{\"workload\":{\"kind\":\"synth\",\"seed\":1},\"p\":256,\"scheme\":\"gp-dk\"}` to
/submit; when more jobs wait than slots exist, running jobs are parked at
their next macro-step boundary (snapshot to --spill-dir) and resumed
later — results are bit-identical to uninterrupted runs, and the whole
job table survives a server restart over the same spill directory.
";

#[cfg(test)]
mod tests {
    use super::*;
    use uts_core::{EngineKind, Matching, Scheme, Trigger};
    use uts_machine::CostModel;

    #[test]
    fn scheme_grammar_round_trips() {
        let parse_scheme = Scheme::parse;
        let s = parse_scheme("gp-s:0.85").unwrap();
        assert_eq!(s.matching, Matching::Gp);
        assert!(matches!(s.trigger, Trigger::Static { x } if (x - 0.85).abs() < 1e-12));

        assert!(parse_scheme("ngp-dk").unwrap().is_dynamic());
        assert_eq!(parse_scheme("fess").unwrap(), uts_core::Scheme::fess());
        assert_eq!(parse_scheme("fegs").unwrap(), uts_core::Scheme::fegs());
        assert_eq!(parse_scheme("ring-nn").unwrap(), uts_core::Scheme::ring_nn());
        assert!(parse_scheme("bogus").is_err());
        assert!(parse_scheme("gp-s:1.5").is_err(), "threshold must be a probability");
        assert!(parse_scheme("gp-s:").is_err());
    }

    #[test]
    fn engine_grammar() {
        let parse_engine = EngineKind::parse;
        assert_eq!(parse_engine("macro").unwrap(), EngineKind::Macro);
        assert_eq!(parse_engine("par").unwrap(), EngineKind::Par);
        assert_eq!(parse_engine("reference").unwrap(), EngineKind::Reference);
        assert_eq!(parse_engine("ref").unwrap(), EngineKind::Reference);
        // The retired cycle-major engine's name is read as macro and never
        // printed back.
        assert_eq!(parse_engine("fused").unwrap(), EngineKind::Macro);
        assert!(EngineKind::ALL.iter().all(|k| k.name() != "fused"));
        let err = parse_engine("turbo").unwrap_err();
        assert!(err.ends_with("(reference|macro|par)"), "{err}");
    }

    #[test]
    fn cost_grammar() {
        let parse_cost = CostModel::parse;
        assert!(parse_cost("cm2").is_ok());
        assert!(parse_cost("hypercube").is_ok());
        assert!(parse_cost("mesh").is_ok());
        assert!(parse_cost("torus").is_err());
    }

    #[test]
    fn flags_parse_pairs_and_detect_unknowns() {
        let f = Flags::parse(&["--p", "512", "--scheme", "gp-dk"]).unwrap();
        assert_eq!(f.get("p"), Some("512"));
        assert_eq!(f.get("scheme"), Some("gp-dk"));
        assert_eq!(f.get_parsed::<usize>("p", 1).unwrap(), 512);
        assert_eq!(f.get_parsed::<usize>("absent", 7).unwrap(), 7);
        assert!(Flags::parse(&["--p"]).is_err(), "dangling flag");
        assert!(Flags::parse(&["p", "512"]).is_err(), "positional junk");

        assert!(f.reject_unknown(&[&["p"], &["scheme", "seed"]]).is_ok());
        assert_eq!(f.reject_unknown(&[&["p", "seed"]]).unwrap_err(), "unknown flag --scheme");
        assert!(Flags::default().reject_unknown(&[]).is_ok(), "no flags, nothing to reject");
    }

    #[test]
    fn bad_numeric_flag_is_an_error_not_a_default() {
        let f = Flags::parse(&["--p", "many"]).unwrap();
        assert!(f.get_parsed::<usize>("p", 1).is_err());
    }

    #[test]
    fn workload_spec_korf_and_scramble() {
        use uts_puzzle15::{korf_instances, scrambled};

        let f = Flags::parse(&["--korf", "3"]).unwrap();
        assert_eq!(parse_board(&f).unwrap(), korf_instances()[2].board().0);
        let f = Flags::parse(&["--seed", "9", "--walk", "40"]).unwrap();
        assert_eq!(parse_board(&f).unwrap(), scrambled(9, 40).board().0);
        let f = Flags::parse(&["--korf", "99"]).unwrap();
        assert!(parse_board(&f).is_err(), "only the embedded Korf ids exist");
        let f = Flags::parse(&["--seed", "1", "--walk", "1001"]).unwrap();
        assert!(parse_board(&f).is_err(), "a walk is replayed before the search starts");
    }

    #[test]
    fn simd_workload_grammar_covers_utsgen() {
        use uts_core::Workload;
        use uts_synthgen::GenTree;

        let f = Flags::parse(&["--workload", "utsgen", "--seed", "7", "--depth", "5"]).unwrap();
        assert_eq!(parse_workload(&f).unwrap(), Workload::UtsGen(GenTree::geometric(7, 8, 5)));
        let f = Flags::parse(&[
            "--workload",
            "utsgen",
            "--family",
            "binomial",
            "--b0",
            "32",
            "--m",
            "4",
            "--q",
            "0.2",
        ])
        .unwrap();
        assert_eq!(parse_workload(&f).unwrap(), Workload::UtsGen(GenTree::binomial(1, 32, 4, 0.2)));
        // Default (no --workload) stays the 15-puzzle grammar.
        let f = Flags::parse(&["--korf", "3", "--bound", "30"]).unwrap();
        let board = parse_board(&f).unwrap();
        assert_eq!(parse_workload(&f).unwrap(), Workload::Puzzle { board, bound: 30 });
        // Supercritical binomial, depth > 64, a bound past 80, unknown
        // family/workload: refused.
        let f =
            Flags::parse(&["--workload", "utsgen", "--family", "binomial", "--q", "0.3"]).unwrap();
        assert!(parse_workload(&f).is_err(), "q*m = 1.2 is supercritical");
        let f = Flags::parse(&["--workload", "utsgen", "--depth", "65"]).unwrap();
        assert!(parse_workload(&f).is_err());
        let f = Flags::parse(&["--seed", "7", "--walk", "20", "--bound", "4000000000"]).unwrap();
        let err = parse_workload(&f).unwrap_err();
        assert_eq!(err, "15-puzzle, bound 4000000000: bound above 80");
        let f = Flags::parse(&["--workload", "utsgen", "--family", "fibonacci"]).unwrap();
        assert!(parse_workload(&f).is_err());
        let f = Flags::parse(&["--workload", "hanoi"]).unwrap();
        assert!(parse_workload(&f).is_err());
    }
}
