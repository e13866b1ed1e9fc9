//! Argument handling of the `bench_*` snapshot binaries: a malformed
//! command line exits 2 with a usage line before any measurement runs,
//! and never writes a file named after the bad argument.

use std::process::Command;

const BINS: [(&str, &str); 6] = [
    ("bench_churn", env!("CARGO_BIN_EXE_bench_churn")),
    ("bench_label", env!("CARGO_BIN_EXE_bench_label")),
    ("bench_par", env!("CARGO_BIN_EXE_bench_par")),
    ("bench_service", env!("CARGO_BIN_EXE_bench_service")),
    ("bench_sim", env!("CARGO_BIN_EXE_bench_sim")),
    ("bench_trials", env!("CARGO_BIN_EXE_bench_trials")),
];

#[test]
fn malformed_arguments_exit_2_with_usage_and_write_nothing() {
    let dir = std::env::temp_dir().join(format!("mcc_bench_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for (name, exe) in BINS {
        for args in [&["--bogus"][..], &["--out"][..], &["a.json", "b.json"][..]] {
            let run = Command::new(exe)
                .args(args)
                .current_dir(&dir)
                .output()
                .expect("binary runs");
            assert_eq!(run.status.code(), Some(2), "{name} {args:?}");
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert!(
                stderr.contains(&format!("usage: {name} [--out PATH | PATH]")),
                "{name} {args:?}: {stderr}"
            );
        }
    }
    let written: Vec<_> = std::fs::read_dir(&dir).expect("scratch dir").collect();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        written.is_empty(),
        "a rejected command line wrote {written:?}"
    );
}
