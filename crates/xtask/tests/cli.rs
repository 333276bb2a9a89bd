//! The `sann-xtask` command line: anything but `determinism` with no flags
//! exits 1 with a usage line, without running the audit.

use std::process::Command;

#[test]
fn usage_errors_exit_nonzero() {
    for (args, complaint) in [
        (&[][..], "usage:"),
        (&["analyze"][..], "unknown subcommand analyze"),
        (&["lint"][..], "unknown subcommand lint"),
        (&["determinism", "--bogus"][..], "unknown flag --bogus"),
        (
            &["bogus-subcommand"][..],
            "unknown subcommand bogus-subcommand",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sann-xtask"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(complaint), "{args:?}: {stderr}");
    }
}
