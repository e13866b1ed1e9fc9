//! The benchmark's inputs are a function of `--seed` alone: two runs with
//! one seed print the same input and result digests, and another seed
//! generates other inputs.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["route-3d", "serve-mixed", "protocols"];

/// Run one short untraced workload and return its `(inputs, results)`
/// digests, after checking the run passed and ended with its result line.
fn digests(workload: &str, seed: u64) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed:\n{stdout}"
    );
    let last = stdout.lines().last().expect("some output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    let line = stdout
        .lines()
        .find(|l| l.starts_with("digest "))
        .expect("a digest line");
    let field = |key: &str| {
        line.split_whitespace()
            .find_map(|w| w.strip_prefix(key))
            .expect("digest field")
            .to_string()
    };
    (field("inputs="), field("results="))
}

#[test]
fn same_seed_same_digests_other_seed_other_inputs() {
    // One test, run sequentially: every run pins itself to the same CPU.
    for workload in WORKLOADS {
        let first = digests(workload, 1);
        assert_eq!(
            first,
            digests(workload, 1),
            "{workload}: same seed, different digests"
        );
        let other = digests(workload, 2);
        assert_ne!(
            first.0, other.0,
            "{workload}: seeds 1 and 2 gave the same inputs"
        );
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "route-3d"][..],
        &["--workload", "route-3d", "--seed", "1", "--trace", "2"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("benchmark runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
