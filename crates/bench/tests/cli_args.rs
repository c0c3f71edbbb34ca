//! End-to-end CLI contract tests for the experiment binaries: unknown
//! or malformed flags must be rejected with exit status 2 and a usage
//! message on stderr (previously they were silently accepted or
//! panicked), and `--help` must exit 0. Flag rejection happens before
//! any experiment work, so these run in milliseconds even for the
//! heavyweight bins.

use assert_cmd::Command;

fn stderr_of(assert: &assert_cmd::Assert) -> String {
    String::from_utf8_lossy(&assert.get_output().stderr).into_owned()
}

fn stdout_of(assert: &assert_cmd::Assert) -> String {
    String::from_utf8_lossy(&assert.get_output().stdout).into_owned()
}

/// Every bin that parses the shared experiment [`ft_bench::Cli`].
const EXPERIMENT_BINS: [&str; 13] = [
    "ablation",
    "bigsim",
    "experiments",
    "faultsweep",
    "fig6",
    "fig7",
    "fig8",
    "fig10",
    "fig11",
    "hybrid",
    "resilience",
    "table1",
    "table3",
];

#[test]
fn unknown_flag_is_rejected_with_usage() {
    for bin in EXPERIMENT_BINS {
        let assert = Command::cargo_bin(bin)
            .expect("binary built")
            .arg("--bogus")
            .assert()
            .code(2);
        let err = stderr_of(&assert);
        assert!(err.contains("usage:"), "{bin}: no usage on stderr: {err}");
        assert!(
            err.contains("--bogus"),
            "{bin}: offending flag not named: {err}"
        );
        assert!(
            stdout_of(&assert).is_empty(),
            "{bin}: rejected run must not print results"
        );
    }
}

#[test]
fn malformed_seed_is_rejected() {
    let assert = Command::cargo_bin("fig6")
        .expect("binary built")
        .args(["--seed", "not-a-number"])
        .assert()
        .code(2);
    assert!(stderr_of(&assert).contains("usage:"));

    let assert = Command::cargo_bin("fig6")
        .expect("binary built")
        .arg("--seed")
        .assert()
        .code(2);
    assert!(stderr_of(&assert).contains("usage:"));
}

#[test]
fn help_exits_zero_and_names_flags() {
    for bin in EXPERIMENT_BINS.into_iter().chain(["topo", "perfsnap"]) {
        let assert = Command::cargo_bin(bin)
            .expect("binary built")
            .arg("--help")
            .assert()
            .success();
        let out = stdout_of(&assert);
        assert!(out.contains("usage:"), "{bin}: no usage on stdout: {out}");
    }
}

#[test]
fn topo_rejects_unknown_flag_and_bad_dot_mode() {
    let assert = Command::cargo_bin("topo")
        .expect("binary built")
        .arg("--bogus")
        .assert()
        .code(2);
    assert!(stderr_of(&assert).contains("usage:"));

    let assert = Command::cargo_bin("topo")
        .expect("binary built")
        .args(["--dot", "mars"])
        .assert()
        .code(2);
    assert!(stderr_of(&assert).contains("mars"));
}

#[test]
fn perfsnap_rejects_unknown_flag() {
    let assert = Command::cargo_bin("perfsnap")
        .expect("binary built")
        .arg("--frobnicate")
        .assert()
        .code(2);
    assert!(stderr_of(&assert).contains("usage:"));
}

#[test]
fn metrics_flag_requires_a_path() {
    let assert = Command::cargo_bin("fig6")
        .expect("binary built")
        .arg("--metrics")
        .assert()
        .code(2);
    assert!(stderr_of(&assert).contains("usage:"));
}
