//! `mspastry-sim` rejects flags its mode does not accept, and flag values
//! that are missing or out of range, with exit status 2 instead of running
//! a default configuration or panicking.

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

#[track_caller]
fn assert_usage_error(args: &[&str], message: &str) {
    let out = sim(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
}

#[test]
fn missing_values_fail() {
    assert_usage_error(&["--hours"], "missing value for --hours");
    assert_usage_error(&["--nodes", "--hours", "1"], "missing value for --nodes");
    assert_usage_error(&["--scenario"], "missing value for --scenario");
    assert_usage_error(
        &["--scenario", "smoke", "--seeds"],
        "missing value for --seeds",
    );
    // Scenario-mode `--json` takes an optional path, so the next flag is
    // parsed as a flag.
    assert_usage_error(
        &["--scenario", "smoke", "--json", "--jobs", "x"],
        "bad value for --jobs: x",
    );
    assert_usage_error(&["--nodes", "20", "30"], "unexpected argument: 30");
}

#[test]
fn out_of_range_values_fail() {
    for (flag, value) in [
        ("--b", "0"),
        ("--b", "9"),
        ("--l", "7"),
        ("--l", "1000000000000000"),
        ("--target-lr", "0"),
    ] {
        assert_usage_error(&[flag, value], "invalid protocol parameters");
    }
    for (flag, value) in [
        ("--loss", "200"),
        ("--nodes", "-5"),
        ("--hours", "-1"),
        ("--lookups", "nan"),
        ("--b", "4.7"),
        ("--b", "300"),
    ] {
        assert_usage_error(&[flag, value], &format!("bad value for {flag}"));
    }
}
