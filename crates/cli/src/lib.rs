//! Argument parsing and command implementations for the `sts` binary.
//!
//! The parsing layer is hand-rolled (no external CLI crates) and lives in
//! this library so it is unit-testable; `main.rs` is a thin shim.

pub mod args;
pub mod commands;

pub use args::{
    parse_cost, parse_engine, parse_scheme, parse_simd_workload, parse_workload, Flags,
    SimdWorkloadSpec, WorkloadSpec,
};

/// Exit with a usage message.
pub const USAGE: &str = "\
sts — unstructured tree search on (simulated) SIMD parallel computers

USAGE:
  sts solve   [--seed S] [--walk N | --korf K] [--max-bound B]
                                                         serial IDA* on a 15-puzzle
  sts run     [--p P] [--scheme SCHEME] [--cost MODEL] [--lb-mult M]
              [--seed S] [--walk N | --korf K] [--bound B] [--ledger true]
              [--engine E] [--checkpoint-dir DIR] [--checkpoint-every N]
              [--kill-at K] [--workload puzzle15|utsgen]  parallel SIMD search
  sts resume  --snapshot PATH [same flags as run]        resume from a checkpoint
  sts shard   [--shards N] [--spill-dir DIR] [--park-every N]
              [--worker-kill-at K [--worker-kill-shard S]]
              [--snapshot PATH] [workload/config flags as run]
                                                         multi-process sharded machine
  sts mimd    [--p P] [--policy grr|arr|rp|nn] [--seed S] [--walk N | --korf K]
                                                         MIMD work stealing
  sts xo      --w W [--p P] [--ratio R]                  optimal static trigger
  sts serve   [--addr A] [--slots N] [--spill-dir DIR] [--quantum-ms Q]
              [--poll-ms MS]                             HTTP/JSON job server

A command rejects any flag it does not list here.

SCHEMES: gp-s:<x>  ngp-s:<x>  gp-dk  ngp-dk  gp-dp  ngp-dp  fess  fegs
COSTS:   cm2  hypercube  mesh
ENGINES: macro (default)  par  reference   (`fused` is read as macro)

Checkpointing: `sts run --checkpoint-dir DIR --checkpoint-every N` writes a
snapshot `ckpt-<step>.bin` into DIR every Nth macro-step boundary;
`--kill-at K` injects a fault (clean stop) at boundary K. `sts resume
--snapshot DIR/ckpt-....bin` continues the run — pass the *same* workload
and config flags: a snapshot is only valid against the configuration that
produced it (enforced by a config fingerprint in the header).

Generated trees: `sts run --workload utsgen` searches an on-the-fly
Galton–Watson tree instead of a 15-puzzle iteration. `--family geometric`
(default) takes `--seed S --b-max B --depth D`; `--family binomial` takes
`--seed S --b0 B --m M --q Q` with q*m < 1 (subcritical). Nodes are derived
from a hash-chained RNG state, so memory stays O(live stacks) no matter
how large the tree is.

Sharding: `sts shard --shards N` runs the identical search across N worker
processes, each owning a contiguous slab of PEs, with the coordinator
serializing every balancing phase over the checkpoint wire format — the
outcome is bit-identical to `sts run` at any N, and every balancing phase
additionally carries *measured* interconnect routing next to the cost
model's closed form. `--spill-dir DIR --park-every N` parks whole-machine
snapshots at macro-step boundaries; after a crash (or `--worker-kill-at K`,
which SIGKILLs one worker mid-run for drills), `sts shard --snapshot
DIR/job-....park` resumes bit-identically — the parked format is the
ordinary checkpoint format, so `sts resume` accepts it too. Example:

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
    use uts_core::{Matching, Trigger};

    #[test]
    fn scheme_grammar_round_trips() {
        let s = parse_scheme("gp-s:0.85").unwrap();
        assert_eq!(s.matching, Matching::Gp);
        assert!(matches!(s.trigger, Trigger::Static { x } if (x - 0.85).abs() < 1e-12));

        assert!(parse_scheme("ngp-dk").unwrap().is_dynamic());
        assert_eq!(parse_scheme("fess").unwrap(), uts_core::Scheme::fess());
        assert_eq!(parse_scheme("fegs").unwrap(), uts_core::Scheme::fegs());
        assert!(parse_scheme("bogus").is_err());
        assert!(parse_scheme("gp-s:1.5").is_err(), "threshold must be a probability");
        assert!(parse_scheme("gp-s:").is_err());
    }

    #[test]
    fn engine_grammar() {
        use uts_core::EngineKind;
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
        let f = Flags::parse(&["--korf", "3"]).unwrap();
        assert!(matches!(parse_workload(&f).unwrap(), WorkloadSpec::Korf(3)));
        let f = Flags::parse(&["--seed", "9", "--walk", "40"]).unwrap();
        match parse_workload(&f).unwrap() {
            WorkloadSpec::Scramble { seed: 9, walk: 40 } => {}
            other => panic!("{other:?}"),
        }
        let f = Flags::parse(&["--korf", "99"]).unwrap();
        assert!(parse_workload(&f).is_err(), "only the embedded Korf ids exist");
    }

    #[test]
    fn simd_workload_grammar_covers_utsgen() {
        use uts_synthgen::GenFamily;

        let f = Flags::parse(&["--workload", "utsgen", "--seed", "7", "--depth", "5"]).unwrap();
        match parse_simd_workload(&f).unwrap() {
            SimdWorkloadSpec::UtsGen(t) => {
                assert_eq!(t.seed, 7);
                assert!(matches!(t.family, GenFamily::Geometric { b_max: 8, depth_limit: 5 }));
            }
            other => panic!("{other:?}"),
        }
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
        match parse_simd_workload(&f).unwrap() {
            SimdWorkloadSpec::UtsGen(t) => {
                assert!(matches!(t.family, GenFamily::Binomial { b0: 32, m: 4, .. }));
            }
            other => panic!("{other:?}"),
        }
        // Default (no --workload) stays the 15-puzzle grammar.
        let f = Flags::parse(&["--korf", "3"]).unwrap();
        assert!(matches!(
            parse_simd_workload(&f).unwrap(),
            SimdWorkloadSpec::Puzzle(WorkloadSpec::Korf(3))
        ));
        // Supercritical binomial, depth > 64, unknown family/workload: refused.
        let f =
            Flags::parse(&["--workload", "utsgen", "--family", "binomial", "--q", "0.3"]).unwrap();
        assert!(parse_simd_workload(&f).is_err(), "q*m = 1.2 is supercritical");
        let f = Flags::parse(&["--workload", "utsgen", "--depth", "65"]).unwrap();
        assert!(parse_simd_workload(&f).is_err());
        let f = Flags::parse(&["--workload", "utsgen", "--family", "fibonacci"]).unwrap();
        assert!(parse_simd_workload(&f).is_err());
        let f = Flags::parse(&["--workload", "hanoi"]).unwrap();
        assert!(parse_simd_workload(&f).is_err());
    }
}
