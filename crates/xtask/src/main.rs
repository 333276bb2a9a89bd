//! CLI entry point for the workspace checker.
//!
//! ```text
//! sann-xtask analyze [--root DIR] [--update-baseline]
//! sann-xtask determinism
//! ```
//!
//! `analyze` is the static checker: the clippy lint ratchet and the manifest
//! layering check over the workspace (or the tree at `--root`), against
//! that root's `analyze-baseline.toml`. `determinism` is the runtime
//! double-run audit.

use sann_xtask::analyze;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: sann-xtask <analyze|determinism> [options]\n\
    analyze [--root DIR] [--update-baseline]\n\
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
    let mut root = analyze::workspace_root();
    let mut update_baseline = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--update-baseline" => update_baseline = true,
            other => {
                eprintln!("unknown flag {other}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    if update_baseline {
        return match analyze::update_baseline(&root) {
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

    let analysis = match analyze::run(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sann-xtask: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", analysis.render_text());
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
