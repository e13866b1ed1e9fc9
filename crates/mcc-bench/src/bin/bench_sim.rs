//! Snapshot the hash-vs-flat engine speedup on the distributed labelling
//! protocol to `BENCH_sim_rounds.json`.
//!
//! Runs the same protocol logic on both engines — the flat index-addressed
//! [`sim_net::SimNet`] and the pre-refactor hash engine preserved in
//! [`sim_net::reference`] — at 20% uniform faults, and refuses to write a
//! snapshot unless the two report **identical round and message counts**
//! (the refactor must change cost accounting by zero; see also the parity
//! tests in `mcc-protocols`). Regenerate with:
//!
//! ```text
//! cargo run --release -p mcc-bench --bin bench_sim -- BENCH_sim_rounds.json
//! ```

use std::time::Instant;

use mcc_protocols::labelling::{DistLabelling2, DistLabelling3};
use mcc_protocols::reference::{RefDistLabelling2, RefDistLabelling3};
use mesh_topo::{FaultSpec, Frame2, Frame3, Mesh2D, Mesh3D};
use sim_net::RunStats;

const FAULT_FRACTION: f64 = 0.20;
const SEED: u64 = 42;

struct Case {
    mesh: &'static str,
    size: i32,
    nodes: usize,
    faults: usize,
    rounds: usize,
    messages: usize,
    hash_ns: u128,
    flat_ns: u128,
}

/// Best-of-`reps` wall time of `f` in nanoseconds; returns the stats of
/// the last run alongside (all runs are deterministic and identical).
fn time_ns(reps: u32, mut f: impl FnMut() -> RunStats) -> (u128, RunStats) {
    let mut best = u128::MAX;
    let mut stats = RunStats::default();
    for _ in 0..reps {
        let start = Instant::now();
        stats = std::hint::black_box(f());
        best = best.min(start.elapsed().as_nanos());
    }
    (best.max(1), stats)
}

fn case_2d(width: i32, reps: u32) -> Case {
    let mut mesh = Mesh2D::kary(width);
    let faults = (mesh.node_count() as f64 * FAULT_FRACTION) as usize;
    FaultSpec::uniform(faults, SEED).inject_2d(&mut mesh, &[]);
    let frame = Frame2::identity(&mesh);
    let (flat_ns, flat) = time_ns(reps, || DistLabelling2::run(&mesh, frame).stats);
    let (hash_ns, hash) = time_ns(reps, || RefDistLabelling2::run(&mesh, frame).stats);
    assert_eq!(
        flat, hash,
        "2d/{width}: engines disagree on cost accounting"
    );
    Case {
        mesh: "2d",
        size: width,
        nodes: mesh.node_count(),
        faults,
        rounds: flat.rounds,
        messages: flat.messages,
        hash_ns,
        flat_ns,
    }
}

fn case_3d(k: i32, reps: u32) -> Case {
    let mut mesh = Mesh3D::kary(k);
    let faults = (mesh.node_count() as f64 * FAULT_FRACTION) as usize;
    FaultSpec::uniform(faults, SEED).inject_3d(&mut mesh, &[]);
    let frame = Frame3::identity(&mesh);
    let (flat_ns, flat) = time_ns(reps, || DistLabelling3::run(&mesh, frame).stats);
    let (hash_ns, hash) = time_ns(reps, || RefDistLabelling3::run(&mesh, frame).stats);
    assert_eq!(flat, hash, "3d/{k}: engines disagree on cost accounting");
    Case {
        mesh: "3d",
        size: k,
        nodes: mesh.node_count(),
        faults,
        rounds: flat.rounds,
        messages: flat.messages,
        hash_ns,
        flat_ns,
    }
}

fn main() {
    let out_path = mcc_bench::cli::out_path_or_exit("bench_sim", "BENCH_sim_rounds.json");

    let mut cases = Vec::new();
    for width in [64i32, 128, 192] {
        let reps = if width >= 128 { 3 } else { 7 };
        cases.push(case_2d(width, reps));
    }
    for k in [16i32, 24, 32] {
        let reps = if k >= 32 { 3 } else { 7 };
        cases.push(case_3d(k, reps));
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"sim_rounds\",\n");
    json.push_str(
        "  \"description\": \"Distributed labelling protocol to convergence, pre-refactor \
         hash-addressed engine vs flat index-addressed engine (identical protocol logic and \
         identical round/message counts, asserted per case), 20% uniform faults, best-of-N \
         wall time\",\n",
    );
    json.push_str("  \"units\": \"nanoseconds\",\n");
    json.push_str(&mcc_bench::report::fault_regime_field("uniform"));
    // Both engines run their sequential round dispatch here; the core
    // count makes snapshots from different machines comparable.
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
             \"rounds\": {}, \"messages\": {}, \"hash_ns\": {}, \"flat_ns\": {}, \
             \"speedup\": {:.2}}}{}\n",
            c.mesh,
            c.size,
            c.nodes,
            c.faults,
            c.rounds,
            c.messages,
            c.hash_ns,
            c.flat_ns,
            speedup,
            if i + 1 < cases.len() { "," } else { "" }
        ));
        println!(
            "{}/{:<4} nodes {:>7} faults {:>6} rounds {:>3} msgs {:>9}  hash {:>12} ns  \
             flat {:>12} ns  speedup {:>6.2}x",
            c.mesh, c.size, c.nodes, c.faults, c.rounds, c.messages, c.hash_ns, c.flat_ns, speedup
        );
    }
    json.push_str("  ]\n}\n");

    mcc_bench::report::write_snapshot_or_exit(&out_path, &json);
}
