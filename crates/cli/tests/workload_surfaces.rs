//! One workload, three surfaces: the `sts` flags, a `/submit` spec and a
//! shard `HELLO` name the same [`uts_core::Workload`] for the same inputs,
//! and refuse the same out-of-range values.

use uts_cli::{parse_workload, Flags};
use uts_serve::JobSpec;
use uts_shard::proto::Hello;

/// `(sts flags, /submit workload object)` pairs that name one workload.
const SAME: [(&[&str], &str); 8] = [
    (
        &["--seed", "7", "--walk", "14", "--bound", "12"],
        r#"{"kind":"scramble","seed":7,"walk":14,"bound":12}"#,
    ),
    (&["--seed", "7", "--walk", "14"], r#"{"kind":"scramble","seed":7,"walk":14}"#),
    (
        &["--workload", "utsgen", "--family", "geometric", "--seed", "5", "--b-max", "6"],
        r#"{"kind":"utsgen","family":"geometric","seed":5,"b_max":6}"#,
    ),
    (
        &[
            "--workload",
            "utsgen",
            "--family",
            "binomial",
            "--seed",
            "9",
            "--b0",
            "32",
            "--q",
            "0.2",
        ],
        r#"{"kind":"utsgen","family":"binomial","seed":9,"b0":32,"q":0.2}"#,
    ),
    (&["--walk", "14"], r#"{"kind":"scramble","walk":14}"#),
    (&[], r#"{"kind":"scramble"}"#),
    (&["--workload", "utsgen"], r#"{"kind":"utsgen"}"#),
    (&["--workload", "utsgen", "--family", "binomial"], r#"{"kind":"utsgen","family":"binomial"}"#),
];

/// `(sts flags, /submit workload object)` pairs that both surfaces refuse.
const REFUSED: [(&[&str], &str); 5] = [
    (&["--seed", "1", "--walk", "1001"], r#"{"kind":"scramble","seed":1,"walk":1001}"#),
    (&["--walk", "14", "--bound", "81"], r#"{"kind":"scramble","walk":14,"bound":81}"#),
    (&["--workload", "utsgen", "--depth", "65"], r#"{"kind":"utsgen","depth":65}"#),
    (
        &["--workload", "utsgen", "--family", "binomial", "--q", "0.3"],
        r#"{"kind":"utsgen","family":"binomial","q":0.3}"#,
    ),
    (&["--workload", "utsgen", "--b-max", "4294967296"], r#"{"kind":"utsgen","b_max":4294967296}"#),
];

fn from_flags(args: &[&str]) -> Result<uts_core::Workload, String> {
    parse_workload(&Flags::parse(args).expect("test flags parse"))
}

fn from_spec(workload: &str) -> Result<uts_core::Workload, uts_serve::ServeError> {
    JobSpec::parse(&format!(r#"{{"workload":{workload}}}"#)).map(|spec| spec.workload)
}

#[test]
fn flags_spec_and_hello_name_the_same_workload() {
    for (args, spec) in SAME {
        let cli = from_flags(args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
        assert_eq!(from_spec(spec).unwrap_or_else(|e| panic!("{spec}: {e}")), cli, "{spec}");

        let hello = Hello { lo: 0, hi: 8, seed_root: true, kill_at_burst: None, workload: cli };
        let mut bytes = Vec::new();
        hello.encode(&mut bytes);
        assert_eq!(Hello::decode(&bytes).expect("HELLO decodes").workload, cli, "{args:?}");
    }
}

#[test]
fn flags_and_spec_refuse_the_same_values() {
    for (args, spec) in REFUSED {
        assert!(from_flags(args).is_err(), "{args:?}");
        assert_eq!(from_spec(spec).expect_err(spec).kind(), "proto", "{spec}");
    }
}
