//! Snapshot the fresh-per-trial vs prepared-mesh trial speedup to
//! `BENCH_routing_trials.json`.
//!
//! Each case fixes one mesh size and walks the matching experiment fault
//! ramp (E4's for 2-D, E3's for 3-D). Per fault count one fault
//! configuration is drawn and a batch of source/destination pairs is
//! evaluated twice with identical policy seeds:
//!
//! * **fresh** — `run_trial_*_with`, rebuilding every model per pair
//!   (the pre-PR pipeline),
//! * **prepared** — one `PreparedMesh` per fault configuration
//!   (orientation-keyed model cache + reusable scratch).
//!
//! The snapshot is refused unless the two paths produce **identical**
//! `TrialResult`s — every field, floats compared bit-for-bit — for every
//! trial (amortization must change observable results by zero; the
//! property battery in `mcc-routing/tests/prepared_equiv.rs` pins the
//! same contract), and unless the prepared path is at least 3× faster on
//! every 2-D case of 64² or larger (the E4-shaped sweeps the ROADMAP
//! targets). Regenerate with:
//!
//! ```text
//! cargo run --release -p mcc-bench --bin bench_trials -- BENCH_routing_trials.json
//! ```

use std::time::Instant;

use mcc_routing::prepared::{PreparedMesh2, PreparedMesh3};
use mcc_routing::trial::{run_trial_2d_with, run_trial_3d_with, TrialOptions, TrialResult};
use mesh_topo::coord::{c2, c3};
use mesh_topo::{FaultSpec, Mesh2D, Mesh3D, C2, C3};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// E4's 2-D fault ramp (scenarios/e4_routing_2d.toml).
const RAMP_2D: [usize; 8] = [5, 10, 15, 20, 25, 30, 40, 50];
/// E3's 3-D fault ramp (scenarios/e3_routing_3d.toml).
const RAMP_3D: [usize; 7] = [10, 20, 40, 60, 80, 100, 120];
/// Pairs batched against each fault configuration.
const PAIRS: usize = 32;
const SEED: u64 = 42;

struct Case {
    mesh: &'static str,
    size: i32,
    nodes: usize,
    trials: usize,
    fresh_ns: u128,
    prepared_ns: u128,
}

impl Case {
    fn speedup(&self) -> f64 {
        self.fresh_ns as f64 / self.prepared_ns as f64
    }
}

/// Best-of-`reps` wall time of `f` in nanoseconds, plus the (identical
/// across reps) results of the last run.
fn time_ns(reps: u32, mut f: impl FnMut() -> Vec<TrialResult>) -> (u128, Vec<TrialResult>) {
    let mut best = u128::MAX;
    let mut results = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        results = std::hint::black_box(f());
        best = best.min(start.elapsed().as_nanos());
    }
    (best.max(1), results)
}

/// One fault configuration + its batch of pairs and per-trial policy
/// seeds, pre-drawn so both paths consume identical inputs.
struct Batch2 {
    mesh: Mesh2D,
    pairs: Vec<(C2, C2, u64)>,
}

fn batches_2d(width: i32) -> Vec<Batch2> {
    let min_dist = (width as f64 * 0.5).round() as u32;
    RAMP_2D
        .iter()
        .map(|&faults| {
            let mut rng = SmallRng::seed_from_u64(SEED ^ ((faults as u64) << 20));
            let mut mesh = Mesh2D::new(width, width);
            FaultSpec::uniform(faults, rng.gen()).inject_2d(&mut mesh, &[]);
            let mut pairs = Vec::with_capacity(PAIRS);
            while pairs.len() < PAIRS {
                let s = c2(rng.gen_range(0..width), rng.gen_range(0..width));
                let d = c2(rng.gen_range(0..width), rng.gen_range(0..width));
                if s.dist(d) >= min_dist && mesh.is_healthy(s) && mesh.is_healthy(d) {
                    pairs.push((s, d, rng.gen()));
                }
            }
            Batch2 { mesh, pairs }
        })
        .collect()
}

fn case_2d(width: i32, reps: u32) -> Case {
    let opts = TrialOptions::default();
    let batches = batches_2d(width);
    let (fresh_ns, fresh) = time_ns(reps, || {
        batches
            .iter()
            .flat_map(|b| {
                b.pairs
                    .iter()
                    .map(|&(s, d, seed)| run_trial_2d_with(&b.mesh, s, d, seed, &opts))
            })
            .collect()
    });
    let (prepared_ns, prepared) = time_ns(reps, || {
        batches
            .iter()
            .flat_map(|b| {
                let mut pm = PreparedMesh2::new(&b.mesh, opts);
                b.pairs
                    .iter()
                    .map(|&(s, d, seed)| pm.run_trial(s, d, seed))
                    .collect::<Vec<_>>()
            })
            .collect()
    });
    assert_eq!(fresh.len(), prepared.len());
    for (i, (f, p)) in fresh.iter().zip(&prepared).enumerate() {
        assert!(
            f.bit_identical(p),
            "2d/{width}: trial {i} diverged between fresh and prepared paths"
        );
    }
    Case {
        mesh: "2d",
        size: width,
        nodes: (width * width) as usize,
        trials: fresh.len(),
        fresh_ns,
        prepared_ns,
    }
}

struct Batch3 {
    mesh: Mesh3D,
    pairs: Vec<(C3, C3, u64)>,
}

fn batches_3d(k: i32) -> Vec<Batch3> {
    let min_dist = k as u32;
    RAMP_3D
        .iter()
        .map(|&faults| {
            let mut rng = SmallRng::seed_from_u64(SEED ^ ((faults as u64) << 20));
            let mut mesh = Mesh3D::kary(k);
            FaultSpec::uniform(faults, rng.gen()).inject_3d(&mut mesh, &[]);
            let mut pairs = Vec::with_capacity(PAIRS);
            while pairs.len() < PAIRS {
                let s = c3(
                    rng.gen_range(0..k),
                    rng.gen_range(0..k),
                    rng.gen_range(0..k),
                );
                let d = c3(
                    rng.gen_range(0..k),
                    rng.gen_range(0..k),
                    rng.gen_range(0..k),
                );
                if s.dist(d) >= min_dist && mesh.is_healthy(s) && mesh.is_healthy(d) {
                    pairs.push((s, d, rng.gen()));
                }
            }
            Batch3 { mesh, pairs }
        })
        .collect()
}

fn case_3d(k: i32, reps: u32) -> Case {
    let opts = TrialOptions::default();
    let batches = batches_3d(k);
    let (fresh_ns, fresh) = time_ns(reps, || {
        batches
            .iter()
            .flat_map(|b| {
                b.pairs
                    .iter()
                    .map(|&(s, d, seed)| run_trial_3d_with(&b.mesh, s, d, seed, &opts))
            })
            .collect()
    });
    let (prepared_ns, prepared) = time_ns(reps, || {
        batches
            .iter()
            .flat_map(|b| {
                let mut pm = PreparedMesh3::new(&b.mesh, opts);
                b.pairs
                    .iter()
                    .map(|&(s, d, seed)| pm.run_trial(s, d, seed))
                    .collect::<Vec<_>>()
            })
            .collect()
    });
    assert_eq!(fresh.len(), prepared.len());
    for (i, (f, p)) in fresh.iter().zip(&prepared).enumerate() {
        assert!(
            f.bit_identical(p),
            "3d/{k}: trial {i} diverged between fresh and prepared paths"
        );
    }
    Case {
        mesh: "3d",
        size: k,
        nodes: (k * k * k) as usize,
        trials: fresh.len(),
        fresh_ns,
        prepared_ns,
    }
}

fn main() {
    let out_path = mcc_bench::cli::out_path_or_exit("bench_trials", "BENCH_routing_trials.json");

    let mut cases = Vec::new();
    for width in [32i32, 64, 128] {
        let reps = if width >= 128 { 3 } else { 5 };
        cases.push(case_2d(width, reps));
    }
    for k in [16i32, 24] {
        let reps = if k >= 24 { 3 } else { 5 };
        cases.push(case_3d(k, reps));
    }

    for c in &cases {
        println!(
            "{}/{:<4} nodes {:>7} trials {:>4}  fresh {:>12} ns  prepared {:>12} ns  \
             speedup {:>6.2}x",
            c.mesh,
            c.size,
            c.nodes,
            c.trials,
            c.fresh_ns,
            c.prepared_ns,
            c.speedup()
        );
    }

    // The acceptance bar: ≥3× on every E4-shaped (2-D, 64²+) case. A miss
    // refuses the snapshot rather than recording a regression.
    for c in &cases {
        if c.mesh == "2d" && c.size >= 64 {
            assert!(
                c.speedup() >= 3.0,
                "prepared path below the 3x bar on 2d/{}: {:.2}x",
                c.size,
                c.speedup()
            );
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"routing_trials\",\n");
    json.push_str(
        "  \"description\": \"Routing-trial batches (E4 fault ramp in 2-D, E3 in 3-D, 32 \
         pairs per fault configuration), fresh-per-trial model construction vs the \
         prepared-mesh pipeline (orientation-keyed model cache + scratch buffers); \
         per-trial results asserted identical field-for-field before writing, best-of-N \
         wall time over the whole ramp\",\n",
    );
    json.push_str("  \"units\": \"nanoseconds\",\n");
    json.push_str(&mcc_bench::report::fault_regime_field("uniform"));
    // Both pipelines run sequentially here; the core count makes
    // snapshots from different machines comparable.
    json.push_str("  \"threads\": 1,\n");
    json.push_str(&format!(
        "  \"detected_cores\": {},\n",
        mesh_topo::detected_cores()
    ));
    json.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mesh\": \"{}\", \"size\": {}, \"nodes\": {}, \"trials\": {}, \
             \"fresh_ns\": {}, \"prepared_ns\": {}, \"speedup\": {:.2}}}{}\n",
            c.mesh,
            c.size,
            c.nodes,
            c.trials,
            c.fresh_ns,
            c.prepared_ns,
            c.speedup(),
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    mcc_bench::report::write_snapshot_or_exit(&out_path, &json);
}
