//! CLI entry point for the workspace's runtime determinism audit.
//!
//! ```text
//! sann-xtask determinism
//! ```

use std::process::ExitCode;

const USAGE: &str = "usage: sann-xtask determinism";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["determinism"] => match sann_xtask::determinism::run() {
            Ok(summary) => {
                println!("{summary}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("determinism: FAIL — {e}");
                ExitCode::FAILURE
            }
        },
        [] => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        ["determinism", other, ..] => {
            eprintln!("unknown flag {other}\n{USAGE}");
            ExitCode::FAILURE
        }
        [other, ..] => {
            eprintln!("unknown subcommand {other}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
