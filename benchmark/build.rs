//! Records the compiler version and the git revision the benchmark was
//! built with, so every result file says what produced its numbers.

use std::process::Command;

/// The trimmed standard output of `program args`, or `unknown` when it
/// cannot run or fails (a source tree outside git has no revision).
fn output_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |v| v.trim().to_owned())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = output_of(&rustc, &["--version"]);
    // `--dirty`: numbers from an edited tree must not pass for the commit's.
    let rev = output_of("git", &["describe", "--always", "--dirty"]);
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");
    println!("cargo:rustc-env=BENCH_GIT_REV={rev}");
    println!("cargo:rerun-if-changed=build.rs");
    // A commit or checkout appends to the first, staging rewrites the
    // second. Outside git neither exists, and naming a missing file would
    // rerun this script on every build.
    for file in ["../.git/logs/HEAD", "../.git/index"] {
        if std::path::Path::new(file).exists() {
            println!("cargo:rerun-if-changed={file}");
        }
    }
}
