//! `route-3d`: the paper's headline experiment — adaptive minimal routing
//! in faulty 32³ meshes under the MCC model, against the oracle, the
//! cuboid-block (RFB) model and a greedy walk.
//!
//! Set-up generates a pool of fault configurations; the timed loop cycles
//! through it, preparing each configuration afresh (so every pass pays the
//! model construction again) and running its 32 trials through
//! `PreparedMesh3::run_trial`. The traced run composes the same public
//! layer calls `run_trial` is built from, on the same inputs, and checks
//! they give the same trial results.

use std::time::{Duration, Instant};

use fault_model::components::Components3;
use fault_model::mcc3::MccSet3;
use fault_model::oracle::{self, Useful3};
use fault_model::{minimal_path_exists_3d_in, BorderPolicy, FaultBlocks3, FaultRegime, Labelling3};
use mcc_routing::router2::DecisionRule;
use mcc_routing::{
    baseline, detect_3d_in, FloodScratch3, Policy, PreparedMesh3, RouteScratch3, Router3,
    TrialOptions, TrialResult,
};
use mesh_topo::{Frame3, Mesh3D, C3};

use crate::trace::{busy_ms, SelfNs, Tracer};
use crate::util::{metric, ns_since, timed, Digest, Metric, Outcome, Rng, Setups, Windows};

const SIDE: i32 = 32;
/// E3's fault ramp (10..120 faults on 16³) scaled by the 8× node count.
const RAMP: [usize; 7] = [80, 160, 320, 480, 640, 800, 960];
const PAIRS: usize = 32;
const MIN_DIST: u32 = 32;
/// Spacing of set-up repetitions in the timed loop (one set-up takes
/// about 0.13 s).
const SETUP_EVERY: Duration = Duration::from_millis(1500);
/// Sixteen turns of the ramp.
const POOL: usize = RAMP.len() * 16;
/// Configurations whose trial results enter the result digest; every run
/// completes at least these.
const DIGEST_CONFIGS: usize = 8;
/// Configurations per second of `--seconds` the traced run replays
/// (roughly half the untraced rate, so each phase takes about half).
const TRACE_CONFIGS_PER_S: u64 = 40;

struct Config {
    count: usize,
    fault_seed: u64,
    mesh: Mesh3D,
    /// `(s, d, policy seed)`: healthy endpoints at least `MIN_DIST` apart.
    pairs: Vec<(C3, C3, u64)>,
}

fn faulty_mesh(count: usize, fault_seed: u64) -> Mesh3D {
    let mut mesh = Mesh3D::new(SIDE, SIDE, SIDE);
    FaultRegime::Uniform.inject_3d(&mut mesh, count, fault_seed, &[], BorderPolicy::BorderSafe);
    mesh
}

fn generate(seed: u64) -> Vec<Config> {
    let mut rng = Rng::new(seed ^ 0x3d3d_3d3d);
    (0..POOL)
        .map(|i| {
            let count = RAMP[i % RAMP.len()];
            let fault_seed = rng.next_u64();
            let mesh = faulty_mesh(count, fault_seed);
            let space = mesh.space();
            let mut pairs = Vec::with_capacity(PAIRS);
            while pairs.len() < PAIRS {
                let s = space.coord(rng.below(space.len()));
                let d = space.coord(rng.below(space.len()));
                if mesh.is_healthy(s) && mesh.is_healthy(d) && mesh.dist(s, d) >= MIN_DIST {
                    pairs.push((s, d, rng.next_u64()));
                }
            }
            Config {
                count,
                fault_seed,
                mesh,
                pairs,
            }
        })
        .collect()
}

fn input_digest(pool: &[Config]) -> Digest {
    let mut h = Digest::default();
    for cfg in pool {
        for &w in cfg.mesh.fault_set().words() {
            h.u64(w);
        }
        for &(s, d, seed) in &cfg.pairs {
            h.i32s(&[s.x, s.y, s.z, d.x, d.y, d.z]);
            h.u64(seed);
        }
    }
    h
}

fn digest_result(h: &mut Digest, r: &TrialResult) {
    let flags = [
        r.oracle_ok,
        r.mcc_ok,
        r.rfb_ok,
        r.greedy_ok,
        r.mcc_delivered,
        r.endpoints_safe,
    ];
    h.bytes(&flags.map(u8::from));
    h.u64(r.mcc_hops as u64);
    h.u64(r.detection_cost as u64);
    h.u64(r.mcc_adaptivity.to_bits());
    h.u64(r.rfb_adaptivity.to_bits());
}

/// Timings and results of one untraced pass.
struct Pass {
    /// Classes: warm trials, cold trials (which build an orientation's
    /// models), whole configurations.
    timed: Windows,
    configs: usize,
    /// Loop wall time minus the time spent checking outputs and repeating
    /// the set-up.
    work_ns: u64,
    results: Vec<Vec<TrialResult>>,
}

/// Run configurations from the pool until `more(done, elapsed)` is false,
/// checking every trial: the MCC condition equals the oracle, and a
/// delivered MCC route is minimal.
fn untraced_pass(
    pool: &[Config],
    out: &mut Outcome,
    setups: &mut Setups,
    digest: &mut Digest,
    keep_results: bool,
    more: impl Fn(usize, Duration) -> bool,
) -> Pass {
    let mut pass = Pass {
        timed: Windows::new(RAMP.len()),
        configs: 0,
        work_ns: 0,
        results: Vec::new(),
    };
    let mut check_ns = 0;
    let t_loop = Instant::now();
    let mut results = Vec::with_capacity(PAIRS);
    while more(pass.configs, t_loop.elapsed()) {
        let cfg = &pool[pass.configs % POOL];
        results.clear();
        let t_cfg = Instant::now();
        let mut pm = PreparedMesh3::new(&cfg.mesh, TrialOptions::default());
        for &(s, d, seed) in &cfg.pairs {
            let built = pm.orientations_computed();
            let t = Instant::now();
            let r = pm.run_trial(s, d, seed);
            let ns = ns_since(t);
            let cold = pm.orientations_computed() > built;
            pass.timed.sample(usize::from(cold), ns);
            results.push(r);
        }
        drop(pm);
        pass.timed.sample(2, ns_since(t_cfg));

        let t_check = Instant::now();
        for (r, &(s, d, _)) in results.iter().zip(&cfg.pairs) {
            let dist = cfg.mesh.dist(s, d) as usize;
            let ok = r.mcc_ok == r.oracle_ok && (!r.mcc_delivered || r.mcc_hops == dist);
            out.check(ok, || {
                format!(
                    "config {}: {s:?}->{d:?}: MCC condition {}, oracle {}, MCC route {} hops, D = {dist}",
                    pass.configs, r.mcc_ok, r.oracle_ok, r.mcc_hops
                )
            });
        }
        if pass.configs < DIGEST_CONFIGS {
            results.iter().for_each(|r| digest_result(digest, r));
        }
        if keep_results {
            pass.results.push(results.clone());
        }
        check_ns += ns_since(t_check);
        pass.configs += 1;
        let work_ns = ns_since(t_loop) - check_ns;
        pass.timed.op(work_ns);
        check_ns += setups.repeat_if_due(work_ns, out);
    }
    pass.work_ns = ns_since(t_loop) - check_ns;
    pass
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let every = (!trace).then_some(SETUP_EVERY);
    let (pool, mut setups) =
        Setups::first(every, move || timed(|| generate(seed), |p| input_digest(p)));

    let mut results = Digest::default();
    if !trace {
        let limit = Duration::from_secs(seconds);
        let pass = untraced_pass(
            &pool,
            &mut out,
            &mut setups,
            &mut results,
            false,
            |done, elapsed| done < DIGEST_CONFIGS || elapsed < limit,
        );
        out.end_to_end(
            &setups,
            "configs_per_s",
            ["trial", "cold_trial", "config"],
            &pass.timed,
        );
    } else {
        let n = (TRACE_CONFIGS_PER_S * seconds).max(DIGEST_CONFIGS as u64) as usize;
        let pass = untraced_pass(
            &pool,
            &mut out,
            &mut setups,
            &mut results,
            true,
            |done, _| done < n,
        );
        traced_pass(&pool, &pass, &mut out);
    }
    out.notes.push(format!(
        "digest route-3d seed={seed} inputs={} results={}",
        setups.inputs(),
        results.hex()
    ));
    out
}

/// What the traced pass measured, from which [`layers`] derives the
/// per-layer metrics. The default is a run that did not trace this
/// workload.
#[derive(Default)]
pub struct Traced {
    self_ns: SelfNs,
    configs: u64,
    fetches: u64,
    builds: u64,
    regions: u64,
    detections: u64,
    visited: u64,
    delivered: u64,
    hops: u64,
}

/// Replay the untraced pass's configurations through the layer calls
/// `run_trial` composes, each in its own span, and compare every trial
/// result with the untraced one.
fn traced_pass(pool: &[Config], untraced: &Pass, out: &mut Outcome) {
    let mut tr = Tracer::new();
    let mut c = Traced::default();
    let mut useful = Useful3::scratch();
    let mut cond_useful = Useful3::scratch();
    let mut flood = FloodScratch3::new();
    let mut route_scratch = RouteScratch3::new();
    let border = BorderPolicy::BorderSafe;
    let mut check_ns = 0;
    let t_loop = Instant::now();
    for (i, expected) in untraced.results.iter().enumerate() {
        let cfg = &pool[i % POOL];
        let req = i as u64;
        tr.begin("config", req);
        let mesh = tr.span("regime.inject_3d", req, || {
            faulty_mesh(cfg.count, cfg.fault_seed)
        });
        let mut blocks: Option<FaultBlocks3> = None;
        let mut slots: [Option<(Labelling3, MccSet3)>; 8] = Default::default();
        let mut got = Vec::with_capacity(PAIRS);
        for &(s, d, seed) in &cfg.pairs {
            let frame = Frame3::for_pair(&mesh, s, d);
            let (cs, cd) = (frame.to_canon(s), frame.to_canon(d));
            c.fetches += 1;
            let slot = &mut slots[frame.index()];
            if slot.is_none() {
                c.builds += 1;
                let lab = tr.span("labelling3.compute", req, || {
                    Labelling3::compute(&mesh, frame, border)
                });
                tr.span("components.compute3", req, || Components3::compute(&lab));
                let mccs = tr.span("mcc3.compute", req, || MccSet3::compute(&lab));
                c.regions += mccs.len() as u64;
                *slot = Some((lab, mccs));
            }
            let (lab, mccs) = slot.as_ref().expect("just built");
            let blocks = blocks.get_or_insert_with(|| {
                tr.span("rfb3.compute", req, || FaultBlocks3::compute(&mesh))
            });

            let oracle_ok = tr.span("oracle.reachable_3d", req, || {
                oracle::reachable_3d_in(
                    cs,
                    cd,
                    |x| {
                        let m = frame.from_canon(x);
                        !mesh.contains(m) || mesh.is_faulty(m)
                    },
                    &mut useful,
                )
            });
            let mcc_ok = tr.span("condition3.exists", req, || {
                minimal_path_exists_3d_in(lab, cs, cd, &mut cond_useful).exists()
            });
            let (rfb_ok, rfb_adaptivity) = tr.span("baseline.rfb_3d", req, || {
                if !blocks.minimal_path_exists_in(&mesh, s, d, &mut useful) {
                    return (false, 0.0);
                }
                let o = baseline::route_rfb_3d_in(
                    blocks,
                    &mesh,
                    s,
                    d,
                    &mut Policy::random(seed ^ 0x51),
                    &mut useful,
                );
                (true, if o.delivered() { o.adaptivity() } else { 0.0 })
            });
            let endpoints_safe = lab.is_safe(cs) && lab.is_safe(cd);
            let greedy_ok = tr.span("baseline.greedy_3d", req, || {
                baseline::route_greedy_3d(lab, cs, cd, &mut Policy::random(seed)).delivered()
            });
            let mut r = TrialResult {
                oracle_ok,
                mcc_ok,
                rfb_ok,
                greedy_ok,
                endpoints_safe,
                rfb_adaptivity,
                ..TrialResult::default()
            };
            if endpoints_safe {
                let det = tr.span("feasibility3.detect", req, || {
                    detect_3d_in(lab, cs, cd, &mut flood)
                });
                c.detections += 1;
                c.visited += det.visited as u64;
                let o = tr.span("router3.route", req, || {
                    Router3::new(lab, mccs).route_with_rule_in(
                        cs,
                        cd,
                        &mut Policy::random(seed ^ 0x9e37_79b9),
                        DecisionRule::BoundaryExact,
                        &mut route_scratch,
                    )
                });
                r.detection_cost = o.detection_cost;
                if o.delivered() {
                    c.delivered += 1;
                    c.hops += o.path.hops() as u64;
                    r.mcc_delivered = true;
                    r.mcc_hops = o.path.hops();
                    r.mcc_adaptivity = o.adaptivity();
                }
            }
            got.push(r);
        }
        tr.end();
        let t_check = Instant::now();
        out.check(mesh.fault_set() == cfg.mesh.fault_set(), || {
            format!("config {i}: traced injection differs from set-up")
        });
        for (j, (g, e)) in got.iter().zip(expected).enumerate() {
            out.check(g.bit_identical(e), || {
                format!("config {i} pair {j}: layer calls gave {g:?}, run_trial gave {e:?}")
            });
        }
        check_ns += ns_since(t_check);
    }
    let traced_ns = ns_since(t_loop) - check_ns;

    c.self_ns = tr.self_ns();
    c.configs = untraced.results.len() as u64;
    out.layers = layers(&c);
    crate::finish_trace(out, &tr, "route-3d", untraced.work_ns, traced_ns);
}

/// This workload's per-layer metrics. Every layer a trial or a
/// configuration passes through reports its busy (self) time; the counts
/// are per configuration, per build or per call.
pub fn layers(t: &Traced) -> Vec<Metric> {
    let busy = |span| busy_ms(&t.self_ns, span);
    let per = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let label_ns = t.self_ns.get("labelling3.compute").copied().unwrap_or(0);
    vec![
        busy("regime.inject_3d"),
        metric("labelling3.compute.calls", t.builds as f64, "count"),
        busy("labelling3.compute"),
        metric(
            "labelling3.compute.ns_per_node",
            per(label_ns, t.builds) / (SIDE as f64).powi(3),
            "ns",
        ),
        busy("components.compute3"),
        busy("mcc3.compute"),
        metric("mcc3.regions", per(t.regions, t.builds), "count"),
        busy("rfb3.compute"),
        metric(
            "models.orientation_builds",
            per(t.builds, t.configs),
            "count",
        ),
        metric(
            "models.hit_ratio",
            per(t.fetches - t.builds, t.fetches),
            "ratio",
        ),
        busy("oracle.reachable_3d"),
        busy("condition3.exists"),
        busy("feasibility3.detect"),
        metric(
            "feasibility3.detect.visited",
            per(t.visited, t.detections),
            "count",
        ),
        busy("router3.route"),
        metric("router3.route.hops", per(t.hops, t.delivered), "count"),
        busy("baseline.greedy_3d"),
        busy("baseline.rfb_3d"),
    ]
}
