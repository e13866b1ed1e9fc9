//! Snapshot intra-mesh parallel scaling to `BENCH_par_scaling.json`.
//!
//! Runs the tiled wavefront labelling (`compute_par`) against the
//! sequential raster sweeps on the paper's big-mesh cases — 1024² and
//! 128³ at 20% uniform faults — across thread budgets 1/2/4/8, and
//! writes a JSON record so the scaling trajectory stays in the
//! repository. Regenerate with:
//!
//! ```text
//! cargo run --release -p mcc-bench --bin bench_par -- BENCH_par_scaling.json
//! ```
//!
//! Two gates guard the snapshot:
//!
//! - **Equality** (always on): every parallel labelling is compared
//!   bit-for-bit against the sequential one — statuses, unsafe bitset and
//!   counts. Any divergence aborts without writing, so a snapshot can
//!   never advertise speed bought with wrong answers.
//! - **Scaling bar** (only on machines with >= 8 cores): the 8-thread
//!   run must be at least 3x faster than sequential on every case. On
//!   narrower machines the bar cannot be demonstrated and is recorded as
//!   unenforced (`bar_enforced: false`) rather than silently passed.

use std::time::Instant;

use fault_model::{BorderPolicy, Labelling2, Labelling3};
use mesh_topo::{detected_cores, FaultSpec, Frame2, Frame3, Mesh2D, Mesh3D, Parallelism};

const FAULT_FRACTION: f64 = 0.20;
const SEED: u64 = 42;
const THREADS: [usize; 4] = [1, 2, 4, 8];
const SPEEDUP_BAR: f64 = 3.0;
const BAR_THREADS: usize = 8;

struct Case {
    mesh: &'static str,
    size: i32,
    nodes: usize,
    faults: usize,
    seq_ns: u128,
    /// `(threads, best-of-N ns)` per budget, in `THREADS` order.
    par_ns: Vec<(usize, u128)>,
}

/// Best-of-`reps` wall time of `f` in nanoseconds.
fn time_ns(reps: u32, mut f: impl FnMut() -> usize) -> u128 {
    let mut best = u128::MAX;
    let mut sink = 0usize;
    for _ in 0..reps {
        let start = Instant::now();
        sink = sink.wrapping_add(std::hint::black_box(f()));
        best = best.min(start.elapsed().as_nanos());
    }
    std::hint::black_box(sink);
    best.max(1)
}

fn case_2d(width: i32, reps: u32) -> Case {
    let mut mesh = Mesh2D::kary(width);
    let faults = (mesh.node_count() as f64 * FAULT_FRACTION) as usize;
    FaultSpec::uniform(faults, SEED).inject_2d(&mut mesh, &[]);
    let frame = Frame2::identity(&mesh);
    let seq = Labelling2::compute(&mesh, frame, BorderPolicy::BorderSafe);
    let mut par_ns = Vec::new();
    for t in THREADS {
        let budget = Parallelism::new(t);
        // The equality gate runs outside the timed region, once per budget.
        let par = Labelling2::compute_par(&mesh, frame, BorderPolicy::BorderSafe, budget);
        for ((c, a), (_, b)) in seq.iter().zip(par.iter()) {
            assert_eq!(a, b, "2d/{width}: status diverged at {c} with {t} threads");
        }
        assert_eq!(
            seq.unsafe_set(),
            par.unsafe_set(),
            "2d/{width}: {t} threads"
        );
        assert_eq!(seq.unsafe_count(), par.unsafe_count());
        assert_eq!(seq.sacrificed_count(), par.sacrificed_count());
        par_ns.push((
            t,
            time_ns(reps, || {
                Labelling2::compute_par(&mesh, frame, BorderPolicy::BorderSafe, budget)
                    .unsafe_count()
            }),
        ));
    }
    Case {
        mesh: "2d",
        size: width,
        nodes: mesh.node_count(),
        faults,
        seq_ns: time_ns(reps, || {
            Labelling2::compute(&mesh, frame, BorderPolicy::BorderSafe).unsafe_count()
        }),
        par_ns,
    }
}

fn case_3d(k: i32, reps: u32) -> Case {
    let mut mesh = Mesh3D::kary(k);
    let faults = (mesh.node_count() as f64 * FAULT_FRACTION) as usize;
    FaultSpec::uniform(faults, SEED).inject_3d(&mut mesh, &[]);
    let frame = Frame3::identity(&mesh);
    let seq = Labelling3::compute(&mesh, frame, BorderPolicy::BorderSafe);
    let mut par_ns = Vec::new();
    for t in THREADS {
        let budget = Parallelism::new(t);
        let par = Labelling3::compute_par(&mesh, frame, BorderPolicy::BorderSafe, budget);
        for ((c, a), (_, b)) in seq.iter().zip(par.iter()) {
            assert_eq!(a, b, "3d/{k}: status diverged at {c} with {t} threads");
        }
        assert_eq!(seq.unsafe_set(), par.unsafe_set(), "3d/{k}: {t} threads");
        assert_eq!(seq.unsafe_count(), par.unsafe_count());
        assert_eq!(seq.sacrificed_count(), par.sacrificed_count());
        par_ns.push((
            t,
            time_ns(reps, || {
                Labelling3::compute_par(&mesh, frame, BorderPolicy::BorderSafe, budget)
                    .unsafe_count()
            }),
        ));
    }
    Case {
        mesh: "3d",
        size: k,
        nodes: mesh.node_count(),
        faults,
        seq_ns: time_ns(reps, || {
            Labelling3::compute(&mesh, frame, BorderPolicy::BorderSafe).unsafe_count()
        }),
        par_ns,
    }
}

fn main() {
    let out_path = mcc_bench::cli::out_path_or_exit("bench_par", "BENCH_par_scaling.json");
    let cores = detected_cores();
    let bar_enforced = cores >= BAR_THREADS;

    let cases = [case_2d(1024, 3), case_3d(128, 3)];

    let mut bar_ok = true;
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"par_scaling\",\n");
    json.push_str(
        "  \"description\": \"Tiled wavefront labelling (compute_par) vs sequential raster \
         sweeps, 20% uniform faults, best-of-N wall time; parallel output verified bit-for-bit \
         equal to sequential before timing\",\n",
    );
    json.push_str("  \"units\": \"nanoseconds\",\n");
    json.push_str(&mcc_bench::report::fault_regime_field("uniform"));
    json.push_str(&format!("  \"detected_cores\": {cores},\n"));
    json.push_str(&format!(
        "  \"bar\": {{\"threads\": {BAR_THREADS}, \"min_speedup\": {SPEEDUP_BAR:.1}, \
         \"enforced\": {bar_enforced}}},\n"
    ));
    json.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        println!(
            "{}/{:<5} nodes {:>8} faults {:>7}  seq {:>12} ns",
            c.mesh, c.size, c.nodes, c.faults, c.seq_ns
        );
        let mut threads_json = String::new();
        for (j, &(t, ns)) in c.par_ns.iter().enumerate() {
            let speedup = c.seq_ns as f64 / ns as f64;
            if t == BAR_THREADS && speedup < SPEEDUP_BAR {
                bar_ok = false;
            }
            threads_json.push_str(&format!(
                "{{\"threads\": {t}, \"ns\": {ns}, \"speedup\": {speedup:.2}}}{}",
                if j + 1 < c.par_ns.len() { ", " } else { "" }
            ));
            println!("    {t} threads {ns:>12} ns  speedup {speedup:>6.2}x");
        }
        json.push_str(&format!(
            "    {{\"mesh\": \"{}\", \"size\": {}, \"nodes\": {}, \"faults\": {}, \
             \"seq_ns\": {}, \"par\": [{}]}}{}\n",
            c.mesh,
            c.size,
            c.nodes,
            c.faults,
            c.seq_ns,
            threads_json,
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    if bar_enforced && !bar_ok {
        eprintln!(
            "FAIL: {BAR_THREADS}-thread labelling did not reach the {SPEEDUP_BAR}x bar \
             on a {cores}-core machine; refusing to write {out_path}"
        );
        std::process::exit(1);
    }
    if !bar_enforced {
        println!(
            "note: only {cores} core(s) detected; the {SPEEDUP_BAR}x @ {BAR_THREADS}-thread \
             bar cannot be demonstrated here and is recorded as unenforced"
        );
    }
    mcc_bench::report::write_snapshot_or_exit(&out_path, &json);
}
