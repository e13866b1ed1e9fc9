//! Snapshot incremental-maintenance speedup under churn to
//! `BENCH_churn.json`.
//!
//! Holds the fault population (64) and the per-round perturbation (8
//! heals + 8 injections) **fixed** while the 2-D mesh ramps 64² → 512²,
//! and times one churn step through [`IncrementalModels2`] (batch apply +
//! localized labelling repair + component/MCC repair) against rebuilding
//! the same models from scratch. Because the perturbation is constant,
//! the incremental step cost should stay roughly flat across the ramp
//! while the from-scratch cost grows with the node count — that widening
//! gap is the point of the snapshot. Regenerate with:
//!
//! ```text
//! cargo run --release -p mcc-bench --bin bench_churn -- BENCH_churn.json
//! ```
//!
//! Two gates guard the snapshot:
//!
//! - **Equivalence** (always on, untimed): after every churn round the
//!   maintained labelling, unsafe set and MCC set are compared against a
//!   from-scratch recomputation on the churned mesh. Any divergence
//!   aborts without writing — the snapshot can never advertise speed
//!   bought with wrong models.
//! - **Speedup bar** (always enforced — the comparison is algorithmic
//!   and single-threaded, not machine-shaped): on the largest mesh the
//!   mean incremental step must be at least 10x faster than the
//!   from-scratch rebuild.

use std::time::Instant;

use fault_model::incremental::IncrementalModels2;
use fault_model::mcc2::MccSet2;
use fault_model::{BorderPolicy, Labelling2};
use mesh_topo::coord::c2;
use mesh_topo::{FaultSpec, Frame2, Mesh2D, C2};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const FAULTS: usize = 64;
const HEAL_PER_ROUND: usize = 8;
const INJECT_PER_ROUND: usize = 8;
const ROUNDS: usize = 24;
const SEED: u64 = 42;
const SIZES: [i32; 4] = [64, 128, 256, 512];
const SPEEDUP_BAR: f64 = 10.0;

struct Case {
    size: i32,
    nodes: usize,
    /// Mean nanoseconds of one incremental step (apply + model repair).
    inc_step_ns: u128,
    /// Mean nanoseconds of one from-scratch rebuild of the same models.
    scratch_ns: u128,
    /// Total node statuses the incremental repairs touched over the
    /// whole trace — perturbation-sized, so roughly flat across the ramp.
    statuses_repaired: usize,
}

/// Draw the round's churn batch: `HEAL_PER_ROUND` distinct current
/// faults and `INJECT_PER_ROUND` distinct currently-healthy nodes.
fn plan_round(mesh: &Mesh2D, rng: &mut SmallRng) -> (Vec<C2>, Vec<C2>) {
    let faults = mesh.faults().to_vec();
    let mut healed: Vec<C2> = Vec::new();
    while healed.len() < HEAL_PER_ROUND.min(faults.len()) {
        let c = faults[rng.gen_range(0..faults.len())];
        if !healed.contains(&c) {
            healed.push(c);
        }
    }
    let (w, h) = (mesh.width(), mesh.height());
    let mut injected: Vec<C2> = Vec::new();
    while injected.len() < INJECT_PER_ROUND {
        let c = c2(rng.gen_range(0..w), rng.gen_range(0..h));
        if mesh.is_healthy(c) && !injected.contains(&c) {
            injected.push(c);
        }
    }
    (injected, healed)
}

fn run_case(size: i32) -> Case {
    let mut mesh = Mesh2D::kary(size);
    FaultSpec::uniform(FAULTS, SEED).inject_2d(&mut mesh, &[]);
    let frame = Frame2::identity(&mesh);
    let nodes = mesh.node_count();
    let mut inc = IncrementalModels2::new(mesh, BorderPolicy::BorderSafe);
    // Warm the identity slot outside any timed region: the first call
    // builds from scratch; every later one repairs.
    std::hint::black_box(inc.models(frame).mccs.mccs.len());

    let mut rng = SmallRng::seed_from_u64(SEED ^ (size as u64));
    let mut inc_total = 0u128;
    let mut scratch_total = 0u128;
    for round in 0..ROUNDS {
        let (injected, healed) = plan_round(inc.mesh(), &mut rng);

        let start = Instant::now();
        inc.apply(&injected, &healed);
        let repaired = inc.models(frame);
        std::hint::black_box(repaired.mccs.mccs.len());
        inc_total += start.elapsed().as_nanos();

        // From-scratch rebuild of the same models, timed on the same
        // churned mesh; doubles as the input to the equivalence gate.
        let mesh_now = inc.mesh().clone();
        let start = Instant::now();
        let lab = Labelling2::compute(&mesh_now, frame, BorderPolicy::BorderSafe);
        let mccs = MccSet2::compute(&lab);
        std::hint::black_box(mccs.mccs.len());
        scratch_total += start.elapsed().as_nanos();

        // Equivalence gate (untimed): refuse to snapshot wrong models.
        let m = inc.models(frame);
        let equal = m.lab.iter().zip(lab.iter()).all(|((_, a), (_, b))| a == b)
            && m.lab.unsafe_set() == lab.unsafe_set()
            && m.mccs.mccs == mccs.mccs;
        if !equal {
            eprintln!(
                "FAIL: incremental models diverged from from-scratch recomputation \
                 on the {size}x{size} mesh at round {round}; refusing to write"
            );
            std::process::exit(1);
        }
    }
    Case {
        size,
        nodes,
        inc_step_ns: (inc_total / ROUNDS as u128).max(1),
        scratch_ns: (scratch_total / ROUNDS as u128).max(1),
        statuses_repaired: inc.statuses_repaired(),
    }
}

fn main() {
    let out_path = mcc_bench::cli::out_path_or_exit("bench_churn", "BENCH_churn.json");

    let cases: Vec<Case> = SIZES.iter().map(|&s| run_case(s)).collect();

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"churn_incremental\",\n");
    json.push_str(
        "  \"description\": \"One churn step (8 heals + 8 injections over a stable 64-fault \
         population) through IncrementalModels2 vs a from-scratch labelling+MCC rebuild, mean \
         over 24 rounds; maintained models verified equal to from-scratch every round before \
         writing\",\n",
    );
    json.push_str("  \"units\": \"nanoseconds\",\n");
    json.push_str(&mcc_bench::report::fault_regime_field("uniform"));
    json.push_str(&format!("  \"faults\": {FAULTS},\n"));
    json.push_str(&format!(
        "  \"churn\": {{\"rounds\": {ROUNDS}, \"heal_per_round\": {HEAL_PER_ROUND}, \
         \"inject_per_round\": {INJECT_PER_ROUND}}},\n"
    ));
    json.push_str(&format!(
        "  \"bar\": {{\"min_speedup\": {SPEEDUP_BAR:.1}, \"at\": \"largest mesh\", \
         \"enforced\": true}},\n"
    ));
    json.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let speedup = c.scratch_ns as f64 / c.inc_step_ns as f64;
        println!(
            "2d/{:<4} nodes {:>7}  inc {:>10} ns  scratch {:>12} ns  speedup {:>8.2}x  \
             repaired {:>6}",
            c.size, c.nodes, c.inc_step_ns, c.scratch_ns, speedup, c.statuses_repaired
        );
        json.push_str(&format!(
            "    {{\"mesh\": \"2d\", \"size\": {}, \"nodes\": {}, \"inc_step_ns\": {}, \
             \"scratch_ns\": {}, \"speedup\": {:.2}, \"statuses_repaired\": {}}}{}\n",
            c.size,
            c.nodes,
            c.inc_step_ns,
            c.scratch_ns,
            speedup,
            c.statuses_repaired,
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let last = cases.last().expect("at least one case");
    let last_speedup = last.scratch_ns as f64 / last.inc_step_ns as f64;
    if last_speedup < SPEEDUP_BAR {
        eprintln!(
            "FAIL: incremental step is only {last_speedup:.2}x faster than from-scratch on \
             the {0}x{0} mesh (bar: {SPEEDUP_BAR}x); refusing to write {out_path}",
            last.size
        );
        std::process::exit(1);
    }
    mcc_bench::report::write_snapshot_or_exit(&out_path, &json);
}
