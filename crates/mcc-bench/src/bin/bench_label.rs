//! Snapshot the old-vs-new MCC construction speedup to
//! `BENCH_mcc_label.json`.
//!
//! Runs the same cases as `benches/mcc_label.rs` — the hash-based
//! reference pipeline vs the flat bitset pipeline, labelling plus
//! component discovery, at 20% uniform faults — and writes a JSON record
//! so the perf trajectory of the flat node-state layer stays in the
//! repository. Regenerate with:
//!
//! ```text
//! cargo run --release -p mcc-bench --bin bench_label -- BENCH_mcc_label.json
//! ```

use std::time::Instant;

use fault_model::components::{Components2, Components3};
use fault_model::reference::{components2_hash, components3_hash, HashLabelling2, HashLabelling3};
use fault_model::{BorderPolicy, Labelling2, Labelling3};
use mesh_topo::{FaultSpec, Frame2, Frame3, Mesh2D, Mesh3D};

const FAULT_FRACTION: f64 = 0.20;
const SEED: u64 = 42;

struct Case {
    mesh: &'static str,
    size: i32,
    nodes: usize,
    faults: usize,
    hash_ns: u128,
    flat_ns: u128,
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
    let flat_ns = time_ns(reps, || {
        let lab = Labelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
        Components2::compute(&lab).len()
    });
    let hash_ns = time_ns(reps, || {
        let lab = HashLabelling2::compute(&mesh, Frame2::identity(&mesh), BorderPolicy::BorderSafe);
        components2_hash(&lab).len()
    });
    Case {
        mesh: "2d",
        size: width,
        nodes: mesh.node_count(),
        faults,
        hash_ns,
        flat_ns,
    }
}

fn case_3d(k: i32, reps: u32) -> Case {
    let mut mesh = Mesh3D::kary(k);
    let faults = (mesh.node_count() as f64 * FAULT_FRACTION) as usize;
    FaultSpec::uniform(faults, SEED).inject_3d(&mut mesh, &[]);
    let flat_ns = time_ns(reps, || {
        let lab = Labelling3::compute(&mesh, Frame3::identity(&mesh), BorderPolicy::BorderSafe);
        Components3::compute(&lab).len()
    });
    let hash_ns = time_ns(reps, || {
        let lab = HashLabelling3::compute(&mesh, Frame3::identity(&mesh), BorderPolicy::BorderSafe);
        components3_hash(&lab).len()
    });
    Case {
        mesh: "3d",
        size: k,
        nodes: mesh.node_count(),
        faults,
        hash_ns,
        flat_ns,
    }
}

fn main() {
    let out_path = mcc_bench::cli::out_path_or_exit("bench_label", "BENCH_mcc_label.json");

    let mut cases = Vec::new();
    for width in [32i32, 64, 128, 256, 512] {
        let reps = if width >= 256 { 3 } else { 7 };
        cases.push(case_2d(width, reps));
    }
    for k in [16i32, 32, 48, 64] {
        let reps = if k >= 48 { 3 } else { 7 };
        cases.push(case_3d(k, reps));
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"mcc_label\",\n");
    json.push_str(
        "  \"description\": \"MCC construction (labelling closure + component discovery), \
         hash-based reference vs flat bitset pipeline, 20% uniform faults, best-of-N wall \
         time\",\n",
    );
    json.push_str("  \"units\": \"nanoseconds\",\n");
    json.push_str(&mcc_bench::report::fault_regime_field("uniform"));
    // Both pipelines here are the sequential kernels; the core count makes
    // snapshots from different machines comparable at a glance.
    json.push_str("  \"threads\": 1,\n");
    json.push_str(&format!(
        "  \"detected_cores\": {},\n",
        mesh_topo::detected_cores()
    ));
    json.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let speedup = c.hash_ns as f64 / c.flat_ns as f64;
        json.push_str(&format!(
            "    {{\"mesh\": \"{}\", \"size\": {}, \"nodes\": {}, \"faults\": {}, \
             \"hash_ns\": {}, \"flat_ns\": {}, \"speedup\": {:.2}}}{}\n",
            c.mesh,
            c.size,
            c.nodes,
            c.faults,
            c.hash_ns,
            c.flat_ns,
            speedup,
            if i + 1 < cases.len() { "," } else { "" }
        ));
        println!(
            "{}/{:<4} nodes {:>7} faults {:>6}  hash {:>12} ns  flat {:>12} ns  speedup {:>6.2}x",
            c.mesh, c.size, c.nodes, c.faults, c.hash_ns, c.flat_ns, speedup
        );
    }
    json.push_str("  ]\n}\n");

    mcc_bench::report::write_snapshot_or_exit(&out_path, &json);
}
