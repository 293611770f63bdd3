//! Manifest hygiene (quick tier, std only): the manifests name nothing the
//! sources do not use, `vendor/` holds nothing the workspace does not
//! depend on, and no member may compile `unsafe_code`.
//!
//! * Every name under a `[dependencies]` or `[dev-dependencies]` table of
//!   the root package and of each `crates/*/Cargo.toml` occurs as an
//!   identifier (`-` → `_`) in that package's `src/`, `tests/`, `benches/`
//!   or `examples/`.
//! * Every directory under `vendor/` is a `[workspace.dependencies]` entry
//!   and is depended on (normal or dev) by at least one workspace member.
//! * Every `[workspace.dependencies]` entry with a path under `crates/`
//!   names an existing directory that the root package or some `crates/*`
//!   package depends on, so deleting a crate means deleting its entry.
//! * The root manifest sets `[workspace.lints.rust] unsafe_code = "forbid"`
//!   and every member inherits it with `[lints] workspace = true`. The
//!   allow-list of files that may hold such code is empty, and `forbid`
//!   leaves no way to grant one locally. (`benchmark/` is a workspace of
//!   its own and is not covered.)
//!
//! A dependency nothing imports still costs a build step, a lock-file
//! entry and a reader's attention; this test is what notices it.

use std::fs;
use std::path::{Path, PathBuf};

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The text of `path`, which must exist.
fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The immediate subdirectories of `dir`, sorted.
fn subdirs(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("list {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.is_dir())
        .collect();
    out.sort();
    out
}

/// The root package and every package under `crates/`.
fn packages() -> Vec<PathBuf> {
    let mut out = vec![repo()];
    out.extend(subdirs(&repo().join("crates")));
    out
}

/// Every workspace member: the root package, `crates/*` and `vendor/*`.
fn members() -> Vec<PathBuf> {
    let mut out = packages();
    out.extend(subdirs(&repo().join("vendor")));
    out
}

/// The lines of the `[table]` section of a manifest, comments and blank
/// lines dropped.
fn table<'a>(manifest: &'a str, table: &str) -> Vec<&'a str> {
    let header = format!("[{table}]");
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != header)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .collect()
}

/// The key of a `name = …` / `name.workspace = true` manifest line.
fn key(line: &str) -> &str {
    line.split(['.', ' ', '=']).next().expect("split yields at least one piece")
}

/// The names every package in `packages` depends on, normal or dev.
fn dependency_names(packages: Vec<PathBuf>) -> Vec<String> {
    let mut out = Vec::new();
    for package in packages {
        let manifest = read(&package.join("Cargo.toml"));
        for kind in ["dependencies", "dev-dependencies"] {
            out.extend(table(&manifest, kind).into_iter().map(|l| key(l).to_string()));
        }
    }
    out
}

/// Append every `.rs` file under `dir` (if it exists) to `out`.
fn rust_sources(dir: &Path, out: &mut String) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push_str(&read(&path));
            out.push('\n');
        }
    }
}

/// Whether `ident` occurs in `text` as a whole identifier.
fn mentions(text: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.match_indices(ident).any(|(at, _)| {
        !text[..at].chars().next_back().is_some_and(is_ident)
            && !text[at + ident.len()..].chars().next().is_some_and(is_ident)
    })
}

#[test]
fn every_declared_dependency_is_imported() {
    let mut unused = Vec::new();
    for package in packages() {
        let manifest = read(&package.join("Cargo.toml"));
        let mut sources = String::new();
        for dir in ["src", "tests", "benches", "examples"] {
            rust_sources(&package.join(dir), &mut sources);
        }
        for kind in ["dependencies", "dev-dependencies"] {
            for line in table(&manifest, kind) {
                if !mentions(&sources, &key(line).replace('-', "_")) {
                    let path = package.join("Cargo.toml");
                    unused.push(format!("{} [{kind}]: `{}`", path.display(), key(line)));
                }
            }
        }
    }
    assert!(unused.is_empty(), "dependencies no source file imports:\n{}", unused.join("\n"));
}

#[test]
fn every_vendored_crate_is_a_workspace_dependency_in_use() {
    let root_manifest = read(&repo().join("Cargo.toml"));
    let workspace_deps = table(&root_manifest, "workspace.dependencies");
    let depended_on = dependency_names(members());

    let mut stale = Vec::new();
    for dir in subdirs(&repo().join("vendor")) {
        let name = dir.file_name().and_then(|n| n.to_str()).expect("utf-8 directory name");
        let path = format!("path = \"vendor/{name}\"");
        match workspace_deps.iter().find(|line| line.contains(&path)) {
            None => stale.push(format!("vendor/{name}: not in [workspace.dependencies]")),
            Some(line) if !depended_on.iter().any(|dep| dep == key(line)) => {
                stale.push(format!("vendor/{name}: no workspace member depends on it"))
            }
            Some(_) => {}
        }
    }
    assert!(stale.is_empty(), "vendored crates the workspace does not need:\n{}", stale.join("\n"));
}

#[test]
fn every_workspace_crate_entry_is_a_package_in_use() {
    let root_manifest = read(&repo().join("Cargo.toml"));
    let depended_on = dependency_names(packages());
    let mut stale = Vec::new();
    for line in table(&root_manifest, "workspace.dependencies") {
        let Some((_, rest)) = line.split_once("path = \"crates/") else { continue };
        let dir = rest.split('"').next().expect("split yields at least one piece");
        let name = key(line);
        if !repo().join("crates").join(dir).is_dir() {
            stale.push(format!("{name}: crates/{dir} does not exist"));
        } else if !depended_on.iter().any(|dep| dep == name) {
            stale.push(format!("{name}: no package depends on it"));
        }
    }
    assert!(
        stale.is_empty(),
        "[workspace.dependencies] entries for crates nothing uses:\n{}",
        stale.join("\n")
    );
}

#[test]
fn every_member_forbids_unsafe_code() {
    let root_manifest = read(&repo().join("Cargo.toml"));
    assert_eq!(
        table(&root_manifest, "workspace.lints.rust"),
        ["unsafe_code = \"forbid\""],
        "the workspace lint table must forbid unsafe_code and nothing else"
    );
    let opted_out: Vec<String> = members()
        .into_iter()
        .map(|member| member.join("Cargo.toml"))
        .filter(|manifest| table(&read(manifest), "lints") != ["workspace = true"])
        .map(|manifest| manifest.display().to_string())
        .collect();
    assert!(
        opted_out.is_empty(),
        "members that do not inherit [workspace.lints] (add `[lints] workspace = true`):\n{}",
        opted_out.join("\n")
    );
}
