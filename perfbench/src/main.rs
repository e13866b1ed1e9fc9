//! End-to-end and per-layer benchmark of the MCC mesh workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <route-3d|serve-mixed|protocols> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Every input is generated here from `--seed`; the program under test
//! only ever sees explicit requests. All program work runs on this thread
//! with `Parallelism::SEQ`; `serve-mixed` adds the one shard actor thread
//! of its service, which its closed-loop caller keeps idle while it waits
//! (a repetition of its set-up briefly runs a second service beside it).
//! The process pins itself to one CPU.
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced replay. The last line of standard output is the
//! JSON result; a failed output check makes the exit code 1.

mod protocols;
mod route3d;
mod serve;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use util::{metric, result_json, Outcome};

const WORKLOADS: [&str; 3] = ["route-3d", "serve-mixed", "protocols"];

/// Where the traced run writes its spans and the service its journal.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: expected 0 or 1")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
    })
}

/// Close a traced run: tracing overhead against the untraced replay of the
/// same operations, wall time no layer span covers, and the spans on disk.
fn finish_trace(
    out: &mut Outcome,
    tr: &trace::Tracer,
    workload: &str,
    untraced_ns: u64,
    traced_ns: u64,
) {
    let overhead = 100.0 * (traced_ns as f64 - untraced_ns as f64) / untraced_ns as f64;
    out.layers.push(metric("trace.overhead_pct", overhead, "%"));
    out.layers.push(metric(
        "trace.unattributed_ms",
        tr.unattributed_ns(traced_ns) as f64 / 1e6,
        "ms",
    ));
    let path = out_dir().join(format!("spans-{workload}.tsv"));
    match tr.write_tsv(&path) {
        Ok(()) => out
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => out
            .notes
            .push(format!("spans not written to {}: {e}", path.display())),
    }
}

/// Pin the process to the first CPU it may run on, and return that CPU.
///
/// All program work runs on one thread; in `serve-mixed` the caller and
/// the shard actor hand each request back and forth and never run at the
/// same time. On one CPU that hand-off is a plain context switch; across
/// the CPUs of a virtual machine it also pays a cross-CPU wake-up whose
/// cost varied twofold between otherwise identical runs.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `bytes` bytes, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `bytes` bytes, and
    // pid 0 names the calling thread; threads it spawns inherit the mask.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned = pin_to_one_cpu().map_or("none".to_string(), |c| c.to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let shard_threads = u8::from(args.workload == "serve-mixed");
    println!(
        "context workload={} seed={} seconds={} trace={} program_threads=1 shard_threads={shard_threads} nproc={nproc} pinned_cpu={pinned} profile={profile}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let mut out = match args.workload.as_str() {
        "route-3d" => route3d::run(args.seed, args.seconds, args.trace),
        "serve-mixed" => serve::run(args.seed, args.seconds, args.trace, &out_dir()),
        _ => protocols::run(args.seed, args.seconds, args.trace),
    };

    if args.trace {
        // Every run reports every per-layer metric; the layers of the
        // workloads it did not run read 0.
        out.metrics.append(&mut out.layers);
        let idle = [
            ("route-3d", route3d::layers(&Default::default())),
            ("serve-mixed", serve::layers(&Default::default())),
            ("protocols", protocols::layers(&Default::default())),
        ];
        for (workload, layers) in idle {
            if workload != args.workload {
                out.metrics.extend(layers);
            }
        }
    }
    let nan: Vec<String> = out
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.clone())
        .collect();
    out.check(nan.is_empty(), || {
        format!("metrics {nan:?} are not numbers")
    });
    for m in out.metrics.iter().filter(|_| args.trace) {
        out.notes
            .push(format!("layer {} = {} {}", m.name, m.value, m.unit));
    }
    out.notes.push(format!(
        "ops attempted={} failed={}",
        out.attempted, out.failed
    ));
    for line in &out.notes {
        println!("{line}");
    }
    let correct = out.failed == 0;
    println!(
        "{}",
        result_json(correct, out.attempted, out.failed, &out.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
