//! Argument handling shared by the `bench_*` snapshot binaries.
//!
//! Each snapshot binary writes one JSON file. Its path is either the
//! single positional argument (`bench_sim -- BENCH_sim_rounds.json`) or
//! `--out PATH`, the form `loadgen` takes; with no argument the binary's
//! default file name is used. Anything else — an unknown `-`-prefixed
//! option, a missing `--out` value, an extra argument — is a usage error
//! (exit status 2), never a file name.

use std::process::exit;

/// Resolve a snapshot binary's output path from its arguments (program
/// name excluded), or describe why they are malformed.
///
/// # Examples
///
/// ```
/// use mcc_bench::cli::parse_out_path;
///
/// let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
/// assert_eq!(parse_out_path(&args(&[]), "BENCH.json").unwrap(), "BENCH.json");
/// assert_eq!(parse_out_path(&args(&["a.json"]), "BENCH.json").unwrap(), "a.json");
/// assert_eq!(parse_out_path(&args(&["--out", "a.json"]), "BENCH.json").unwrap(), "a.json");
/// assert!(parse_out_path(&args(&["--bogus"]), "BENCH.json").is_err());
/// ```
pub fn parse_out_path(args: &[String], default: &str) -> Result<String, String> {
    match args {
        [] => Ok(default.to_string()),
        [flag, path] if flag == "--out" && !path.starts_with('-') => Ok(path.clone()),
        [flag] if flag == "--out" => Err("--out needs a file argument".to_string()),
        [path] if !path.starts_with('-') => Ok(path.clone()),
        _ => match args.iter().find(|a| a.starts_with('-') && *a != "--out") {
            Some(option) => Err(format!("unknown option `{option}`")),
            None => Err(format!("unexpected argument `{}`", args[args.len() - 1])),
        },
    }
}

/// [`parse_out_path`] over the process arguments. A usage error prints
/// `error: <reason>` and the usage line of `bin` to stderr and exits 2.
pub fn out_path_or_exit(bin: &str, default: &str) -> String {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_out_path(&args, default).unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: {bin} [--out PATH | PATH]");
        exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn positional_and_out_forms_name_the_same_file() {
        for form in [&["x.json"][..], &["--out", "x.json"][..]] {
            assert_eq!(parse_out_path(&args(form), "d.json").unwrap(), "x.json");
        }
        assert_eq!(parse_out_path(&[], "d.json").unwrap(), "d.json");
    }

    #[test]
    fn malformed_arguments_are_rejected_not_used_as_paths() {
        for (form, reason) in [
            (&["--out"][..], "--out needs"),
            (&["--bogus"][..], "unknown option `--bogus`"),
            (&["--out", "--bogus"][..], "unknown option `--bogus`"),
            (&["-o", "x.json"][..], "unknown option `-o`"),
            (
                &["--out", "x.json", "--quick"][..],
                "unknown option `--quick`",
            ),
            (&["a.json", "b.json"][..], "unexpected argument `b.json`"),
            (
                &["--out", "a.json", "b.json"][..],
                "unexpected argument `b.json`",
            ),
        ] {
            let err = parse_out_path(&args(form), "d.json").unwrap_err();
            assert!(err.contains(reason), "{form:?}: {err}");
        }
    }
}
