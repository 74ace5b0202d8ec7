//! Command-line contract of `repro_all`: unknown arguments and malformed
//! `REPRO_*` environment knobs are rejected before anything runs, and
//! every value flag means the same thing in its `--flag V` and `--flag=V`
//! forms.

use std::process::{Command, Output};

/// Runs `repro_all` on 2-second traces with `args`.
fn repro_all(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .args(args)
        .env("REPRO_SECONDS", "2")
        .env_remove("REPRO_THREADS")
        .output()
        .expect("spawn repro_all")
}

/// Stdout of a run that must succeed.
fn stdout_of(args: &[&str]) -> Vec<u8> {
    let out = repro_all(args);
    assert!(
        out.status.success(),
        "repro_all {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty(), "repro_all {args:?} printed nothing");
    out.stdout
}

/// A flag older builds accepted and this one no longer knows.
const RETIRED: &str = concat!("--des", "-threads");

#[test]
fn unknown_arguments_exit_2_without_output() {
    let retired_eq = format!("{RETIRED}=2");
    let cases = [
        &["--bogus"][..],
        &[retired_eq.as_str()],
        &[RETIRED, "2"],
        &["--serial=1"],
        &["--metrics", "dir"],
    ];
    for args in cases {
        let out = repro_all(args);
        assert_eq!(out.status.code(), Some(2), "repro_all {args:?}");
        assert!(out.stdout.is_empty(), "repro_all {args:?} wrote stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown argument"), "{stderr}");
    }
}

#[test]
fn value_flag_without_value_exits_2() {
    let out = repro_all(&["--faults"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

#[test]
fn faults_accepts_the_equals_form() {
    let spaced = stdout_of(&["--faults", "all"]);
    assert_eq!(stdout_of(&["--faults=all"]), spaced);
    assert_ne!(
        stdout_of(&[]),
        spaced,
        "--faults all must change the output"
    );
}

#[test]
fn scale_accepts_the_equals_form() {
    let spaced = stdout_of(&["--scale", "2"]);
    assert_eq!(stdout_of(&["--scale=2"]), spaced);
}

/// Runs `repro_all --serial` with `var` set to `value`.
fn with_env(var: &str, value: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .arg("--serial")
        .env("REPRO_SECONDS", "2")
        .env_remove("REPRO_THREADS")
        .env(var, value)
        .output()
        .expect("spawn repro_all")
}

#[test]
fn malformed_env_knobs_exit_2_without_output() {
    for var in ["REPRO_SECONDS", "REPRO_THREADS"] {
        for value in ["", "0", "-3", "2s", "1.5", "abc", " 4"] {
            let out = with_env(var, value);
            assert_eq!(out.status.code(), Some(2), "{var}={value:?}");
            assert!(out.stdout.is_empty(), "{var}={value:?} wrote stdout");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(var) && stderr.contains("positive integer"),
                "{var}={value:?}: {stderr}"
            );
        }
    }
}

#[test]
fn well_formed_env_knobs_run() {
    let serial = stdout_of(&["--serial"]);
    let out = with_env("REPRO_THREADS", "3");
    assert!(out.status.success());
    assert_eq!(
        out.stdout, serial,
        "REPRO_THREADS must not change the output"
    );
    assert_eq!(with_env("REPRO_SECONDS", "2").stdout, serial);
}
