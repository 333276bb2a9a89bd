//! Workspace-wide invariants that live in configuration rather than code.
//!
//! * **Layering.** Cargo refuses a `use` of a crate its manifest does not
//!   declare, so the manifests are the whole dependency graph. Every
//!   dependency of the root `Cargo.toml` and of each `crates/*/Cargo.toml`
//!   must be a `sann-*` workspace or path dependency, so no registry crate
//!   (no `rand`, no entropy-seeded RNG) can enter the build, and a crate of
//!   the DAG
//!
//!   ```text
//!   core ← {datagen, quant, ssdsim, obs} ← index ← engine ← vdb ← bench
//!   ```
//!
//!   may depend only on the transitive closure of its [`DECLARED_DEPS`],
//!   plus `sann-datagen` as a dev-dependency: the test fixture layer. Every
//!   `crates/*` member is a crate of the DAG; only the root package sits
//!   outside it. Every member also opts into the workspace lint table.
//! * **Lints.** Probe packages that copy the root `clippy.toml` and
//!   `[workspace.lints]` table show that the determinism bans, the hot-path
//!   bans, and the lossy-cast and panic denials fire where they should and
//!   nowhere else.
//! * **Exceptions.** The few `allow`s of those lints sit where the design
//!   says they may.

#![allow(
    clippy::unwrap_used,
    reason = "test helpers fail the test on a setup error"
)]

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The declared direct dependencies of each product crate. Order is layer
/// order; the allowed set is the transitive closure.
const DECLARED_DEPS: &[(&str, &[&str])] = &[
    ("core", &[]),
    ("obs", &["core"]),
    ("datagen", &["core"]),
    ("quant", &["core"]),
    ("ssdsim", &["core", "obs"]),
    ("index", &["core", "obs", "quant", "ssdsim"]),
    ("engine", &["core", "obs", "ssdsim", "index"]),
    (
        "vdb",
        &["core", "datagen", "quant", "index", "ssdsim", "engine"],
    ),
    (
        "bench",
        &[
            "core", "obs", "datagen", "quant", "index", "ssdsim", "engine", "vdb",
        ],
    ),
];

/// The transitive closure of [`DECLARED_DEPS`] for `krate`, or `None` for a
/// crate outside the DAG (the root package `sann`).
fn allowed_deps(krate: &str) -> Option<Vec<&'static str>> {
    let direct = DECLARED_DEPS.iter().find(|(c, _)| *c == krate)?.1;
    let mut closure: Vec<&'static str> = Vec::new();
    let mut stack: Vec<&'static str> = direct.to_vec();
    while let Some(dep) = stack.pop() {
        if closure.contains(&dep) {
            continue;
        }
        closure.push(dep);
        if let Some((_, next)) = DECLARED_DEPS.iter().find(|(c, _)| *c == dep) {
            stack.extend(next.iter().copied());
        }
    }
    closure.sort_unstable();
    Some(closure)
}

/// The `(table, key, value)` lines of a manifest, read a line at a time:
/// `[table]` headers, and `key = value` lines with both sides trimmed.
/// Comments, blank lines and the continuation lines of multi-line values
/// are skipped.
fn entries(text: &str) -> Vec<(String, String, String)> {
    let mut table = String::new();
    let mut out = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            table = line.trim_matches(|c| c == '[' || c == ']').to_string();
        } else if let Some((key, value)) = line.split_once('=') {
            out.push((
                table.clone(),
                key.trim().to_string(),
                value.trim().to_string(),
            ));
        }
    }
    out
}

/// Checks the dependency tables of crate `krate`'s manifest `text`; returns
/// one message per offending dependency.
///
/// # Errors
///
/// Returns a message when the manifest declares dependencies in a table
/// form this reader does not follow (`[dependencies.<name>]`,
/// `[target.….dependencies]`).
fn check_manifest(krate: &str, text: &str) -> Result<Vec<String>, String> {
    let allowed = allowed_deps(krate);
    let mut errors = Vec::new();
    for (table, key, value) in &entries(text) {
        let dev = match table.as_str() {
            "dependencies" | "build-dependencies" | "workspace.dependencies" => false,
            "dev-dependencies" => true,
            t if t.contains("dependencies") => {
                return Err(format!("[{t}]: unsupported dependency table"));
            }
            _ => continue,
        };
        let name = key.split('.').next().unwrap_or(key);
        let path_dep = value.contains("path") || (key.ends_with(".workspace") && value == "true");
        let Some(dep) = name.strip_prefix("sann-").filter(|_| path_dep) else {
            errors.push(format!(
                "`{name}` is not a `sann-*` workspace path dependency"
            ));
            continue;
        };
        let Some(allowed) = &allowed else { continue };
        if !(allowed.contains(&dep) || (dev && dep == "datagen")) {
            errors.push(format!(
                "crate `{krate}` must not depend on `{dep}` (allowed: {})",
                if allowed.is_empty() {
                    "nothing, it is the bottom layer".to_string()
                } else {
                    allowed.join(", ")
                }
            ));
        }
    }
    Ok(errors)
}

/// The workspace root: two levels above this crate.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every workspace member's crate key and manifest text: the root package
/// (`sann`) and each `crates/*`.
fn member_manifests() -> Vec<(String, String)> {
    let root = workspace_root();
    let mut manifests = vec![("sann".to_string(), root.join("Cargo.toml"))];
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let dir = entry.unwrap().path();
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        manifests.push((name, dir.join("Cargo.toml")));
    }
    manifests.sort();
    manifests
        .into_iter()
        .map(|(krate, path)| (krate, std::fs::read_to_string(path).unwrap()))
        .collect()
}

#[test]
fn closure_is_transitive() {
    assert_eq!(allowed_deps("core").unwrap(), Vec::<&str>::new());
    let engine = allowed_deps("engine").unwrap();
    // index pulls in quant, so engine's closure includes it.
    for dep in ["core", "obs", "ssdsim", "index", "quant"] {
        assert!(engine.contains(&dep), "engine closure missing {dep}");
    }
    assert!(!engine.contains(&"vdb"));
    assert!(!engine.contains(&"bench"));
    assert_eq!(allowed_deps("bench").unwrap().len(), 8);
    assert!(allowed_deps("sann").is_none());
}

#[test]
fn an_inverted_edge_is_refused() {
    let ok = "[dependencies]\nsann-core.workspace = true\nsann-obs.workspace = true\n";
    assert_eq!(check_manifest("ssdsim", ok).unwrap(), Vec::<String>::new());
    let inverted = "[dependencies]\nsann-core.workspace = true\nsann-engine.workspace = true\n";
    let errors = check_manifest("ssdsim", inverted).unwrap();
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(
        errors[0].contains("crate `ssdsim` must not depend on `engine`"),
        "{errors:?}"
    );
}

#[test]
fn only_sann_path_dependencies_are_allowed() {
    for dep in [
        "rand = \"0.8\"",
        "sann-obs = \"0.1\"",
        "serde = { version = \"1\" }",
    ] {
        let errors = check_manifest("ssdsim", &format!("[dependencies]\n{dep}\n")).unwrap();
        assert_eq!(errors.len(), 1, "{dep}: {errors:?}");
        assert!(errors[0].contains("is not a `sann-*`"), "{errors:?}");
    }
    // Outside the DAG, any `sann-*` path dependency will do.
    let top = "[dependencies]\nsann-bench.workspace = true\n";
    assert!(check_manifest("sann", top).unwrap().is_empty());
    let root = "[workspace.dependencies]\nsann-core = { path = \"crates/core\" }\n";
    assert!(check_manifest("sann", root).unwrap().is_empty());
    let rand = "[workspace.dependencies]\nrand = \"0.8\"\n";
    assert_eq!(check_manifest("sann", rand).unwrap().len(), 1);
}

#[test]
fn datagen_is_allowed_as_a_dev_dependency_only() {
    let dev = "[dev-dependencies]\nsann-datagen.workspace = true\n";
    assert!(check_manifest("quant", dev).unwrap().is_empty());
    let prod = "[dependencies]\nsann-datagen.workspace = true\n";
    assert_eq!(check_manifest("quant", prod).unwrap().len(), 1);
    let dev_upward = "[dev-dependencies]\nsann-engine.workspace = true\n";
    assert_eq!(check_manifest("quant", dev_upward).unwrap().len(), 1);
}

#[test]
fn dependency_tables_it_cannot_read_are_refused() {
    for table in [
        "[dependencies.sann-obs]\npath = \"../obs\"\n",
        "[target.'cfg(unix)'.dependencies]\nlibc = \"0.2\"\n",
    ] {
        assert!(check_manifest("core", table).is_err(), "{table}");
    }
}

#[test]
fn the_workspace_manifests_follow_the_dag() {
    let manifests = member_manifests();
    // A crate without a `DECLARED_DEPS` entry would escape the layering
    // check below: only the root package may.
    let members: Vec<&str> = manifests.iter().map(|(krate, _)| krate.as_str()).collect();
    let mut dag: Vec<&str> = DECLARED_DEPS.iter().map(|&(krate, _)| krate).collect();
    dag.push("sann");
    dag.sort_unstable();
    assert_eq!(
        members, dag,
        "every crates/* member needs a DECLARED_DEPS entry"
    );
    let mut errors = Vec::new();
    for (krate, text) in &manifests {
        let found = check_manifest(krate, text).unwrap_or_else(|e| vec![e]);
        errors.extend(found.into_iter().map(|e| format!("{krate}: {e}")));
    }
    assert_eq!(errors, Vec::<String>::new());
}

/// A member without `[lints] workspace = true` escapes every `deny` of the
/// workspace lint table without a word.
#[test]
fn every_member_opts_into_the_workspace_lint_table() {
    let missing: Vec<String> = member_manifests()
        .into_iter()
        .filter(|(_, text)| {
            !entries(text)
                .iter()
                .any(|(t, k, v)| t == "lints" && k == "workspace" && v == "true")
        })
        .map(|(krate, _)| krate)
        .collect();
    assert_eq!(missing, Vec::<String>::new());
}

/// An empty scratch dir for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sann-workspace-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A one-package workspace in a scratch dir with a copy of the root
/// `clippy.toml`: `lib` as its library, and `manifest_tail` after the
/// `[workspace]` line of its manifest.
fn probe_package(tag: &str, lib: &str, manifest_tail: &str) -> PathBuf {
    let dir = scratch(tag);
    std::fs::create_dir_all(dir.join("src")).unwrap();
    std::fs::write(
        dir.join("Cargo.toml"),
        format!(
            "[package]\nname = \"probe\"\nversion = \"0.1.0\"\nedition = \"2021\"\n\n[workspace]\n{manifest_tail}"
        ),
    )
    .unwrap();
    std::fs::write(dir.join("src").join("lib.rs"), lib).unwrap();
    std::fs::copy(
        workspace_root().join("clippy.toml"),
        dir.join("clippy.toml"),
    )
    .unwrap();
    dir
}

/// The root manifest's `[workspace.lints.*]` tables, and the `[lints]`
/// table that opts a probe package into them.
fn workspace_lint_tables() -> String {
    let root = std::fs::read_to_string(workspace_root().join("Cargo.toml")).unwrap();
    let mut tables = String::new();
    let mut keep = false;
    for line in root.lines() {
        if line.starts_with('[') {
            keep = line.starts_with("[workspace.lints");
        }
        if keep {
            tables.push_str(line);
            tables.push('\n');
        }
    }
    tables.push_str("\n[lints]\nworkspace = true\n");
    tables
}

/// Runs `cargo clippy` on the package at `dir` with `args` before `--` and
/// `lint_args` after it.
fn cargo_clippy(dir: &Path, args: &[&str], lint_args: &[&str]) -> Output {
    Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .current_dir(dir)
        .args(["clippy", "--offline", "--quiet"])
        .args(args)
        .arg("--")
        .args(lint_args)
        .output()
        .unwrap()
}

/// The determinism bans live in the root `clippy.toml`: a probe package
/// that carries a copy of it and names each banned type once fails
/// `cargo clippy -D warnings` with exactly one `disallowed_types` error per
/// type. A wrong path in the file, or the file going missing, fails here.
#[test]
fn clippy_toml_denies_the_wall_clock_hash_containers_and_random_state() {
    let banned = [
        "std::time::Instant",
        "std::time::SystemTime",
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::hash::RandomState",
    ];
    let params: Vec<String> = banned
        .iter()
        .enumerate()
        .map(|(i, ty)| match *ty {
            "std::collections::HashMap" => format!("_p{i}: {ty}<u8, u8>"),
            "std::collections::HashSet" => format!("_p{i}: {ty}<u8>"),
            _ => format!("_p{i}: {ty}"),
        })
        .collect();
    let lib = format!(
        "//! Probe.\n\n/// Names every banned type once.\npub fn probe({}) {{}}\n",
        params.join(", ")
    );
    let dir = probe_package("disallowed", &lib, "");
    let out = cargo_clippy(&dir, &["--message-format=short"], &["-D", "warnings"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    let errors: Vec<&str> = stderr
        .lines()
        .filter(|l| l.contains("error: use of a disallowed type"))
        .collect();
    assert_eq!(errors.len(), banned.len(), "{stderr}");
    for ty in banned {
        let hits = errors.iter().filter(|l| l.contains(&format!("`{ty}`")));
        assert_eq!(hits.count(), 1, "{ty}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The constructs the hot-path bans name, one per line of
/// [`hot_probe_lib`]'s body, each with its expected error message: an
/// index, then every `disallowed-methods` and `disallowed-macros` entry of
/// the root `clippy.toml`.
const HOT_CONSTRUCTS: &[(&str, &str)] = &[
    ("let first = v[0];", "indexing may panic"),
    (
        "let mut rows: Vec<Vec<f32>> = Vec::new();",
        "`alloc::vec::Vec::new`",
    ),
    (
        "let spare: Vec<f32> = Vec::with_capacity(v.len());",
        "`alloc::vec::Vec::with_capacity`",
    ),
    ("let text = String::new();", "`alloc::string::String::new`"),
    ("let boxed = Box::new(first);", "`alloc::boxed::Box::new`"),
    ("let copies = names.clone();", "`core::clone::Clone::clone`"),
    (
        "let doubled: Vec<f32> = v.iter().map(|x| x * 2.0).collect();",
        "`core::iter::Iterator::collect`",
    ),
    (
        "let shown = first.to_string();",
        "`alloc::string::ToString::to_string`",
    ),
    (
        "let owned = s.to_owned();",
        "`alloc::borrow::ToOwned::to_owned`",
    ),
    ("let row = v.to_vec();", "`slice::to_vec`"),
    ("let pair = vec![first, second];", "`std::vec`"),
    ("let message = format!(\"{second}\");", "`std::format`"),
    (
        "let order = first.partial_cmp(&second);",
        "`core::cmp::PartialOrd::partial_cmp`",
    ),
    (
        "let by_path = f32::partial_cmp(&first, &second);",
        "`core::cmp::PartialOrd::partial_cmp`",
    ),
];

/// A library whose one function holds every [`HOT_CONSTRUCTS`] line plus
/// an index under a reasoned statement-level `#[allow]`, preceded by
/// `attrs`.
fn hot_probe_lib(attrs: &str) -> String {
    let mut lib = format!(
        "//! Probe.\n\n/// Holds every construct the hot-path bans name.\n{attrs}\
         pub fn probe(v: &[f32], s: &str, names: Vec<String>) -> usize {{\n"
    );
    for (line, _) in HOT_CONSTRUCTS {
        lib.push_str(&format!("    {line}\n"));
        if line.starts_with("let first") {
            lib.push_str(
                "    #[allow(clippy::indexing_slicing, reason = \"the one excused site\")] \
                 let second = v[1];\n",
            );
        }
    }
    lib.push_str(
        "    rows.push(pair);\n    rows.push(row);\n    rows.push(doubled);\n    \
         rows.len() + spare.capacity() + text.len() + copies.len() + shown.len() + owned.len() \
         + message.len() + usize::from(*boxed > 0.0) + usize::from(order == by_path)\n}\n",
    );
    lib
}

/// The hot-path bans live in the root `clippy.toml` and apply only where a
/// function denies them. A probe package with a copy of that file and of
/// the workspace lint table fails clippy with exactly one error per
/// [`HOT_CONSTRUCTS`] line when its function carries the two hot
/// attributes — the statement-level `#[allow]` excusing one index — and
/// passes with the same body unmarked.
#[test]
fn clippy_toml_denies_the_hot_path_bans_in_marked_functions_only() {
    let manifest_tail = workspace_lint_tables();
    assert!(
        manifest_tail.contains("disallowed_methods = \"allow\""),
        "{manifest_tail}"
    );
    let marked = "#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]\n\
                  #[deny(clippy::indexing_slicing)]\n";
    for (tag, attrs) in [("hot-marked", marked), ("hot-unmarked", "")] {
        let lib = hot_probe_lib(attrs);
        let dir = probe_package(tag, &lib, &manifest_tail);
        let out = cargo_clippy(&dir, &["--message-format=short"], &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let errors: Vec<&str> = stderr.lines().filter(|l| l.contains(": error: ")).collect();
        if attrs.is_empty() {
            assert!(out.status.success(), "{lib}{stderr}");
            assert!(errors.is_empty(), "{stderr}");
            assert!(!stderr.contains("disallowed"), "{stderr}");
            std::fs::remove_dir_all(&dir).ok();
            continue;
        }
        assert!(!out.status.success(), "{lib}{stderr}");
        assert_eq!(errors.len(), HOT_CONSTRUCTS.len(), "{lib}{stderr}");
        let lines: Vec<&str> = lib.lines().collect();
        for (construct, message) in HOT_CONSTRUCTS {
            let at = lines.iter().position(|l| l.trim() == *construct).unwrap() + 1;
            let hits = errors
                .iter()
                .filter(|e| e.starts_with(&format!("src/lib.rs:{at}:")) && e.contains(message));
            assert_eq!(hits.count(), 1, "{construct}: {stderr}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The lint of every error in a `cargo --message-format=json` stream, in
/// stream order.
fn error_lints(stdout: &[u8]) -> Vec<String> {
    let key = "\"code\":{\"code\":\"";
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| l.contains("\"level\":\"error\""))
        .filter_map(|l| {
            let code = &l[l.find(key)? + key.len()..];
            Some(code[..code.find('"')?].to_string())
        })
        .collect()
}

/// The workspace lint table denies lossy casts and panics in lib code: a
/// probe package with copies of it and `clippy.toml` fails `cargo clippy
/// -D warnings` on one `as u32` narrowing and one `unwrap`. Inside a
/// `#[test]`, `unwrap`, `expect` and `panic!` pass (`clippy.toml`'s
/// `allow-*-in-tests`), and so does a cast under the crate-root
/// `cfg_attr(test, allow(…))` each lib crate carries.
#[test]
fn workspace_lint_table_denies_lossy_casts_and_panics_outside_tests() {
    let manifest_tail = workspace_lint_tables();
    let lib = "//! Probe.\n\n\
               /// Narrows a count.\npub fn narrow(n: u64) -> u32 {\n    n as u32\n}\n\n\
               /// The first byte.\npub fn first(v: &[u8]) -> u8 {\n    *v.first().unwrap()\n}\n";
    let dir = probe_package("lints-lib", lib, &manifest_tail);
    let out = cargo_clippy(&dir, &["--message-format=json"], &["-D", "warnings"]);
    assert!(!out.status.success(), "{lib}");
    assert_eq!(
        error_lints(&out.stdout),
        ["clippy::cast_possible_truncation", "clippy::unwrap_used"],
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();

    let cast_lint = concat!("clippy::", "cast_possible_truncation");
    let tests = "//! Probe.\n#![cfg_attr(test, allow(CAST, reason = \"test fixtures\"))]\n\n\
                 /// Adds one.\npub fn inc(n: u64) -> u64 {\n    n + 1\n}\n\n\
                 #[cfg(test)]\nmod tests {\n    #[test]\n    fn tests_may_unwrap_expect_panic_and_cast() {\n        \
                 let n = super::inc(\"1\".parse().unwrap());\n        \
                 assert_eq!(\"2\".parse::<u64>().expect(\"digits\") as u32, n as u32);\n        \
                 if n == 0 {\n            panic!(\"never\");\n        }\n    }\n}\n"
        .replace("CAST", cast_lint);
    let dir = probe_package("lints-tests", &tests, &manifest_tail);
    let out = cargo_clippy(
        &dir,
        &["--all-targets", "--message-format=json"],
        &["-D", "warnings"],
    );
    assert!(
        out.status.success(),
        "{tests}{:?}{}",
        error_lints(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Every `.rs` file under `dir`, skipping build output and hidden dirs.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                collect_rs(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Every `.rs` file of the repository, as (root-relative path with forward
/// slashes, text).
fn repo_sources() -> Vec<(String, String)> {
    let root = workspace_root();
    let mut files = Vec::new();
    collect_rs(&root, &mut files);
    assert!(
        files.len() > 50,
        "expected the whole workspace, got {}",
        files.len()
    );
    files
        .iter()
        .map(|p| {
            let rel = p.strip_prefix(&root).unwrap().to_string_lossy();
            (rel.replace('\\', "/"), std::fs::read_to_string(p).unwrap())
        })
        .collect()
}

/// The determinism bans have exceptions only where the bench harness
/// measures real elapsed time: every `allow` of a `clippy::disallowed_*`
/// lint in the repository sits in `crates/bench/src/{cli,microbench}.rs`.
#[test]
fn workspace_determinism_exceptions_are_confined_to_the_bench_harness() {
    let needle = concat!("allow(clippy::", "disallowed_");
    let hits: BTreeSet<String> = repo_sources()
        .into_iter()
        .filter(|(_, text)| {
            // rustfmt may break `#[allow(` and its lint onto two lines.
            let squeezed: String = text.split_whitespace().collect();
            squeezed.contains(needle)
        })
        .map(|(rel, _)| rel)
        .collect();
    let expected: BTreeSet<String> = ["crates/bench/src/cli.rs", "crates/bench/src/microbench.rs"]
        .map(String::from)
        .into();
    assert_eq!(hits, expected);
}

/// Every attribute of `text` that allows a `clippy::cast_*` lint, with
/// whitespace squeezed out; comment lines are skipped.
fn cast_allows(text: &str) -> Vec<String> {
    let lint = concat!("clippy::", "cast_");
    let code: String = text
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .flat_map(str::split_whitespace)
        .collect();
    let mut out = Vec::new();
    for (at, _) in code.match_indices('#') {
        let attr = &code[at..];
        if !(attr.starts_with("#[") || attr.starts_with("#![")) {
            continue;
        }
        // The attribute runs to the `]` that closes its opening `[`.
        let mut depth = 0usize;
        let end = attr.find(|c| {
            match c {
                '[' => depth += 1,
                ']' => depth -= 1,
                _ => return false,
            }
            depth == 0
        });
        let attr = &attr[..end.map_or(attr.len(), |e| e + 1)];
        if attr.contains("allow(") && attr.contains(lint) {
            out.push(attr.to_string());
        }
    }
    out
}

/// Lossy casts are denied everywhere, and excused in three places only:
/// the helpers of `crates/core/src/cast.rs`, one `cfg_attr(test, allow(…))`
/// at a lib crate root for its unit tests, and a crate-level `#![allow]` in
/// a `tests/`, `benches/` or `examples/` file. Any other `allow` of a
/// `clippy::cast_*` lint in a source file fails here.
#[test]
fn workspace_cast_exceptions_are_confined_to_sann_core_cast() {
    let mut stray = Vec::new();
    for (rel, text) in repo_sources() {
        if rel == "crates/core/src/cast.rs" {
            continue;
        }
        let harness = rel
            .split('/')
            .any(|dir| matches!(dir, "tests" | "benches" | "examples"));
        for attr in cast_allows(&text) {
            let excused = (rel.ends_with("src/lib.rs")
                && attr.starts_with("#![cfg_attr(test,allow("))
                || (harness && attr.starts_with("#![allow("));
            if !excused {
                stray.push(format!("{rel}: {attr}"));
            }
        }
    }
    assert_eq!(stray, Vec::<String>::new());
    // The scanner itself: it sees through rustfmt's line breaks, and tells
    // a crate-level attribute from an item's.
    let lint = concat!("clippy::", "cast_sign_loss");
    let item = format!("#[allow(\n    {lint},\n    reason = \"x\"\n)]\nfn f() {{}}\n");
    assert_eq!(
        cast_allows(&item),
        [format!("#[allow({lint},reason=\"x\")]")]
    );
    let crate_level = format!("#![cfg_attr(test, allow({lint}, reason = \"x [y]\"))]\n");
    assert_eq!(cast_allows(&crate_level).len(), 1);
    assert!(cast_allows(&crate_level)[0].starts_with("#![cfg_attr(test,allow("));
    assert!(cast_allows(&format!("// #[allow({lint})]\n")).is_empty());
}
