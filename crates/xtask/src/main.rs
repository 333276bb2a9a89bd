//! CLI entry point for the workspace checker.
//!
//! ```text
//! sann-xtask analyze [--root DIR] [--rules FAMILY,...] [--format text|sarif]
//!                    [--baseline FILE] [--hotpaths FILE] [--update-baseline]
//! sann-xtask determinism
//! ```
//!
//! `analyze` is the static checker (`--rules determinism` selects the
//! determinism deny-set alone); `determinism` is the runtime double-run
//! audit.

use sann_xtask::analyze::{self, Format, Options};
use sann_xtask::rules::Family;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: sann-xtask <analyze|determinism> [options]\n\
    analyze [--root DIR] [--rules FAMILY,...] [--format text|sarif]\n\
    \x20       [--baseline FILE] [--hotpaths FILE] [--update-baseline]\n\
    determinism";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first().map(|(a, b)| (a.as_str(), b)) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    match cmd {
        "analyze" => run_analyze(rest),
        "determinism" => run_determinism(rest),
        other => {
            eprintln!("unknown subcommand {other}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run_analyze(rest: &[String]) -> ExitCode {
    let mut opts = Options::new(analyze::workspace_root());
    let mut format = Format::Text;
    let mut update_baseline = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(dir) => opts.root = PathBuf::from(dir),
                None => return flag_needs("--root", "a directory"),
            },
            "--rules" => match it.next() {
                Some(list) => {
                    for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                        match Family::parse(name) {
                            Some(f) => opts.families.push(f),
                            None => {
                                eprintln!(
                                    "unknown rule family `{name}` (families: {})",
                                    Family::ALL
                                        .iter()
                                        .map(|f| f.name())
                                        .collect::<Vec<_>>()
                                        .join(", ")
                                );
                                return ExitCode::FAILURE;
                            }
                        }
                    }
                }
                None => return flag_needs("--rules", "a family list"),
            },
            "--format" => match it.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("sarif") => format = Format::Sarif,
                _ => return flag_needs("--format", "`text` or `sarif`"),
            },
            "--baseline" => match it.next() {
                Some(path) => opts.baseline_path = Some(PathBuf::from(path)),
                None => return flag_needs("--baseline", "a file"),
            },
            "--hotpaths" => match it.next() {
                Some(path) => opts.hotpaths_path = Some(PathBuf::from(path)),
                None => return flag_needs("--hotpaths", "a file"),
            },
            "--update-baseline" => update_baseline = true,
            other => {
                eprintln!("unknown flag {other}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    if update_baseline {
        return match analyze::update_baseline(&opts) {
            Ok((path, text)) => {
                let entries = text.lines().filter(|l| l.contains(" = ")).count();
                println!(
                    "analyze: wrote {} ({} ratchet entr{})",
                    path.display(),
                    entries,
                    if entries == 1 { "y" } else { "ies" }
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("sann-xtask: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let analysis = match analyze::run(&opts) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sann-xtask: {e}");
            return ExitCode::FAILURE;
        }
    };
    match format {
        Format::Text => print!("{}", analysis.render_text()),
        Format::Sarif => print!("{}", analysis.render_sarif()),
    }
    if analysis.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_determinism(rest: &[String]) -> ExitCode {
    if let Some(other) = rest.first() {
        eprintln!("unknown flag {other}\n{USAGE}");
        return ExitCode::FAILURE;
    }
    match sann_xtask::determinism::run() {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("determinism: FAIL — {e}");
            ExitCode::FAILURE
        }
    }
}

fn flag_needs(flag: &str, what: &str) -> ExitCode {
    eprintln!("{flag} needs {what}");
    ExitCode::FAILURE
}
