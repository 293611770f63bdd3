//! `sts` — the command-line front end. See [`uts_cli::USAGE`].

use uts_cli::{commands, Flags, USAGE};

fn main() {
    // `sts shard` spawns workers by re-executing this binary; if this
    // process *is* a worker, serve the wire protocol and exit.
    uts_shard::maybe_run_worker();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        std::process::exit(2);
    };
    let result = Flags::parse(rest).and_then(|flags| match cmd.as_str() {
        "solve" => commands::solve(&flags),
        "run" => commands::run_simd(&flags),
        "resume" => commands::resume(&flags),
        "shard" => commands::shard(&flags),
        "mimd" => commands::run_mimd_cmd(&flags),
        "xo" => commands::xo(&flags),
        "serve" => commands::serve(&flags),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    });
    if let Err(e) = result {
        eprintln!("error: {e}\n");
        eprint!("{USAGE}");
        std::process::exit(2);
    }
}
