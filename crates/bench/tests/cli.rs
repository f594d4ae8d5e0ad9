//! `mspastry-sim` rejects flags its mode does not accept instead of running
//! the default configuration.

use std::process::{Command, Output};

fn sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mspastry-sim"))
        .args(args)
        .output()
        .expect("run mspastry-sim")
}

#[track_caller]
fn assert_rejects(args: &[&str], flag: &str) {
    let out = sim(args);
    assert!(!out.status.success(), "{args:?} must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("unknown flag: {flag}")),
        "{args:?}: {stderr}"
    );
}

#[test]
fn a_typo_fails_and_help_succeeds() {
    assert_rejects(&["--topolgy", "gatech"], "--topolgy");
    assert_rejects(
        &["--nodes", "20", "--hours", "0.01", "--seed=3"],
        "--seed=3",
    );
    // Ad-hoc flags are not scenario flags.
    assert_rejects(
        &["--scenario", "smoke", "--topology", "gatech"],
        "--topology",
    );

    let help = sim(&["--help"]);
    assert!(help.status.success());
    let text = String::from_utf8_lossy(&help.stdout);
    assert!(text.contains("--topology NAME"), "{text}");
}
