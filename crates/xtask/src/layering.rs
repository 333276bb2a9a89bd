//! Crate layering, checked where Cargo enforces it: the manifests.
//!
//! The architecture is layered —
//!
//! ```text
//! core ← {datagen, quant, ssdsim, obs} ← index ← engine ← vdb ← bench
//! ```
//!
//! — and Cargo refuses a `use` of a crate its manifest does not declare, so
//! the manifests are the whole dependency graph. [`check`] reads the root
//! `Cargo.toml` and every `crates/*/Cargo.toml`. Every dependency must be a
//! `sann-*` workspace or path dependency, so no registry crate (no `rand`,
//! no entropy-seeded RNG) can enter the build, and a crate of the DAG may
//! depend only on the transitive closure of its [`DECLARED_DEPS`], plus
//! `sann-datagen` as a dev-dependency: the test fixture layer.

use crate::baseline::MiniToml;
use std::path::Path;

/// The declared direct dependencies of each product crate. Order is layer
/// order; the allowed set is the transitive closure.
pub const DECLARED_DEPS: &[(&str, &[&str])] = &[
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
/// crate outside the DAG (the root package and `xtask`).
pub fn allowed_deps(krate: &str) -> Option<Vec<&'static str>> {
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

/// Checks the root manifest and every `crates/*/Cargo.toml` under `root`;
/// returns one message per offending dependency.
///
/// # Errors
///
/// Returns a message when a manifest cannot be read, or [`check_manifest`]
/// refuses it.
pub fn check(root: &Path) -> Result<Vec<String>, String> {
    let mut manifests = vec![("sann".to_string(), root.join("Cargo.toml"))];
    if let Ok(dir) = std::fs::read_dir(root.join("crates")) {
        for entry in dir.filter_map(Result::ok) {
            let name = entry.file_name().to_string_lossy().into_owned();
            manifests.push((name, entry.path().join("Cargo.toml")));
        }
    }
    manifests.sort();
    let mut errors = Vec::new();
    for (krate, path) in manifests.iter().filter(|(_, p)| p.is_file()) {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .display()
            .to_string();
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let found = check_manifest(krate, &text).map_err(|e| format!("{rel}: {e}"))?;
        errors.extend(found.into_iter().map(|e| format!("{rel}: {e}")));
    }
    Ok(errors)
}

/// Checks the dependency tables of crate `krate`'s manifest `text`.
///
/// # Errors
///
/// Returns a message when the manifest is outside the TOML subset
/// [`MiniToml`] reads, or declares dependencies in a table form this check
/// does not read (`[dependencies.<name>]`, `[target.….dependencies]`).
pub fn check_manifest(krate: &str, text: &str) -> Result<Vec<String>, String> {
    let allowed = allowed_deps(krate);
    let mut errors = Vec::new();
    for (section, key, value) in &MiniToml::parse(text)?.entries {
        let dev = match section.as_str() {
            "dependencies" | "build-dependencies" | "workspace.dependencies" => false,
            "dev-dependencies" => true,
            s if s.contains("dependencies") => {
                return Err(format!("[{s}]: unsupported dependency table"));
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

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(allowed_deps("xtask").is_none());
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
        let xtask = "[dependencies]\nsann-bench.workspace = true\n";
        assert!(check_manifest("xtask", xtask).unwrap().is_empty());
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
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        assert_eq!(check(&root).unwrap(), Vec::<String>::new());
    }
}
