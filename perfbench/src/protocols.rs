//! `protocols`: distributed construction of the MCC model on the
//! simulated network — the only workload on sim-net and mcc-protocols.
//!
//! One configuration is a 48² mesh with 110 faults run through the 2-D
//! construction pipeline (labelling → component ids → identification →
//! boundaries) plus a 32³ mesh with 330 faults run through the 3-D
//! labelling and the distributed detection floods of a few pairs. It
//! bypasses the centralized model cache, routing and the service.

use std::time::{Duration, Instant};

use fault_model::{minimal_path_exists_3d, BorderPolicy, FaultRegime, Labelling2, Labelling3};
use mcc_protocols::boundary2::Boundary2;
use mcc_protocols::compid::DistComponents2;
use mcc_protocols::detect3::detect_distributed_3d;
use mcc_protocols::ident2::Ident2;
use mcc_protocols::{DistLabelling2, DistLabelling3};
use mesh_topo::coord::c3;
use mesh_topo::{Frame2, Frame3, Mesh2D, Mesh3D, C3};

use crate::trace::{busy_ms, SelfNs, Tracer};
use crate::util::{metric, ns_since, timed, Digest, Metric, Outcome, Rng, Setups, Windows};

const SIDE2: i32 = 48;
const FAULTS2: usize = 110;
const SIDE3: i32 = 32;
const FAULTS3: usize = 330;
const PAIRS3: usize = 2;
const MIN_DIST3: u32 = 24;
const POOL: usize = 16;
/// Spacing of set-up repetitions in the timed loop (one set-up takes
/// about 20 ms).
const SETUP_EVERY: Duration = Duration::from_millis(500);
/// Configurations whose outputs enter the result digest; every run
/// completes at least these.
const DIGEST_CONFIGS: usize = 4;
/// Configurations per window: one turn of the pool (about 0.6 s), so every
/// window has the same mix of work.
const WINDOW: usize = POOL;
/// Configurations per second of `--seconds` the traced run replays
/// (roughly half the untraced rate).
const TRACE_CONFIGS_PER_S: u64 = 12;

/// The construction phases, in pipeline order; each is a span and a
/// metric prefix.
const PHASES: [&str; 6] = [
    "labelling.dist2",
    "compid",
    "ident2",
    "boundary2",
    "labelling.dist3",
    "detect3",
];

struct Config {
    mesh2: Mesh2D,
    mesh3: Mesh3D,
    /// Healthy `s ≤ d` pairs (identity frame) at least `MIN_DIST3` apart.
    pairs: Vec<(C3, C3)>,
}

fn generate(seed: u64) -> Vec<Config> {
    let mut rng = Rng::new(seed ^ 0x9a07_0c01);
    let border = BorderPolicy::BorderSafe;
    (0..POOL)
        .map(|_| {
            let mut mesh2 = Mesh2D::new(SIDE2, SIDE2);
            FaultRegime::Uniform.inject_2d(&mut mesh2, FAULTS2, rng.next_u64(), &[], border);
            let mut mesh3 = Mesh3D::new(SIDE3, SIDE3, SIDE3);
            FaultRegime::Uniform.inject_3d(&mut mesh3, FAULTS3, rng.next_u64(), &[], border);
            let space = mesh3.space();
            let mut pairs = Vec::with_capacity(PAIRS3);
            while pairs.len() < PAIRS3 {
                let (a, b) = (
                    space.coord(rng.below(space.len())),
                    space.coord(rng.below(space.len())),
                );
                let s = c3(a.x.min(b.x), a.y.min(b.y), a.z.min(b.z));
                let d = c3(a.x.max(b.x), a.y.max(b.y), a.z.max(b.z));
                if mesh3.is_healthy(s) && mesh3.is_healthy(d) && mesh3.dist(s, d) >= MIN_DIST3 {
                    pairs.push((s, d));
                }
            }
            Config {
                mesh2,
                mesh3,
                pairs,
            }
        })
        .collect()
}

fn input_digest(pool: &[Config]) -> Digest {
    let mut h = Digest::default();
    for cfg in pool {
        cfg.mesh2.fault_set().words().iter().for_each(|&w| h.u64(w));
        cfg.mesh3.fault_set().words().iter().for_each(|&w| h.u64(w));
        for &(s, d) in &cfg.pairs {
            h.i32s(&[s.x, s.y, s.z, d.x, d.y, d.z]);
        }
    }
    h
}

/// Everything one configuration's construction produced that must repeat
/// exactly: `(rounds, messages)` per phase call, the boundary record
/// count, and each pair's verdict (`None`: an endpoint is unsafe).
#[derive(Clone, Debug, PartialEq, Eq)]
struct Record {
    phases: Vec<(&'static str, usize, usize)>,
    records: usize,
    verdicts: Vec<Option<bool>>,
}

impl Record {
    fn digest(&self, h: &mut Digest) {
        for &(_, rounds, messages) in &self.phases {
            h.u64(rounds as u64);
            h.u64(messages as u64);
        }
        h.u64(self.records as u64);
        h.bytes(
            &self
                .verdicts
                .iter()
                .map(|v| v.map_or(2, u8::from))
                .collect::<Vec<_>>(),
        );
    }
}

/// Run one configuration, timing each phase call through `time(phase, f)`.
/// With `check`, also compare it with the centralized models; the second
/// value is the time that took.
fn construct(
    cfg: &Config,
    mut time: impl FnMut(&'static str, &mut dyn FnMut()),
    check: Option<&mut Outcome>,
) -> (Record, u64) {
    let (frame2, frame3) = (Frame2::identity(&cfg.mesh2), Frame3::identity(&cfg.mesh3));
    let mut phases = Vec::with_capacity(PHASES.len() + PAIRS3);
    let mut lab2 = None;
    time("labelling.dist2", &mut || {
        lab2 = Some(DistLabelling2::run(&cfg.mesh2, frame2))
    });
    let lab2 = lab2.expect("ran");
    let mut comps = None;
    time("compid", &mut || {
        comps = Some(DistComponents2::run(&cfg.mesh2, &lab2))
    });
    let comps = comps.expect("ran");
    let mut ident = None;
    time("ident2", &mut || {
        ident = Some(Ident2::run(&cfg.mesh2, &comps))
    });
    let ident = ident.expect("ran");
    let mut bound = None;
    time("boundary2", &mut || {
        bound = Some(Boundary2::run(&cfg.mesh2, &ident))
    });
    let bound = bound.expect("ran");
    let mut lab3 = None;
    time("labelling.dist3", &mut || {
        lab3 = Some(DistLabelling3::run(&cfg.mesh3, frame3))
    });
    let lab3 = lab3.expect("ran");
    for (name, st) in [
        ("labelling.dist2", lab2.stats),
        ("compid", comps.stats),
        ("ident2", ident.stats),
        ("boundary2", bound.stats),
        ("labelling.dist3", lab3.stats),
    ] {
        phases.push((name, st.rounds, st.messages));
    }
    let mut verdicts = Vec::with_capacity(PAIRS3);
    for &(s, d) in &cfg.pairs {
        if !(lab3.status(s).is_safe() && lab3.status(d).is_safe()) {
            verdicts.push(None);
            continue;
        }
        let mut res = None;
        time("detect3", &mut || {
            res = Some(detect_distributed_3d(&cfg.mesh3, &lab3, s, d))
        });
        let (ok, st) = res.expect("ran");
        phases.push(("detect3", st.rounds, st.messages));
        verdicts.push(Some(ok));
    }

    let t_check = Instant::now();
    if let Some(out) = check {
        let border = BorderPolicy::BorderSafe;
        let sem2 = Labelling2::compute(&cfg.mesh2, frame2, border);
        let sem3 = Labelling3::compute(&cfg.mesh3, frame3, border);
        let detect_ok = cfg.pairs.iter().zip(&verdicts).all(|(&(s, d), v)| {
            let safe = sem3.is_safe(s) && sem3.is_safe(d);
            match v {
                None => !safe,
                Some(ok) => safe && *ok == minimal_path_exists_3d(&sem3, s, d).exists(),
            }
        });
        out.check(
            lab2.matches(&sem2)
                && comps.matches(&cfg.mesh2, frame2)
                && lab3.matches(&sem3)
                && detect_ok,
            || "distributed construction differs from the centralized models".into(),
        );
    }
    let record = Record {
        phases,
        records: bound.total_records(),
        verdicts,
    };
    (record, ns_since(t_check))
}

/// Timings and outputs of one untraced pass.
struct Pass {
    /// Classes: the 2-D construction, the 3-D labelling, one detection.
    timed: Windows,
    configs: usize,
    /// Loop wall time minus the time spent checking outputs and repeating
    /// the set-up.
    work_ns: u64,
    records: Vec<Record>,
}

fn untraced_pass(
    pool: &[Config],
    out: &mut Outcome,
    setups: &mut Setups,
    digest: &mut Digest,
    more: impl Fn(usize, Duration) -> bool,
) -> Pass {
    let mut pass = Pass {
        timed: Windows::new(WINDOW),
        configs: 0,
        work_ns: 0,
        records: Vec::new(),
    };
    let mut first: Vec<Record> = Vec::with_capacity(POOL);
    let mut check_ns = 0;
    let t_loop = Instant::now();
    while more(pass.configs, t_loop.elapsed()) {
        let i = pass.configs % POOL;
        let first_run = pass.configs < POOL;
        let mut t2d = 0;
        let timed = &mut pass.timed;
        let mut time = |phase: &'static str, f: &mut dyn FnMut()| {
            let t = Instant::now();
            f();
            let ns = ns_since(t);
            match phase {
                "labelling.dist3" => timed.sample(1, ns),
                "detect3" => timed.sample(2, ns),
                _ => t2d += ns,
            }
        };
        let (rec, in_checks) = construct(&pool[i], &mut time, first_run.then_some(&mut *out));
        pass.timed.sample(0, t2d);
        let t_check = Instant::now();
        if first_run {
            first.push(rec.clone());
        } else {
            out.check(rec == first[i], || {
                format!("configuration {i} did not repeat its first run")
            });
        }
        if pass.configs < DIGEST_CONFIGS {
            rec.digest(digest);
        }
        pass.records.push(rec);
        check_ns += ns_since(t_check) + in_checks;
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
            |done, elapsed| done < DIGEST_CONFIGS || elapsed < limit,
        );
        out.end_to_end(
            &setups,
            "configs_per_s",
            ["construct", "label3", "detect3"],
            &pass.timed,
        );
    } else {
        let n = (TRACE_CONFIGS_PER_S * seconds).max(DIGEST_CONFIGS as u64) as usize;
        let pass = untraced_pass(&pool, &mut out, &mut setups, &mut results, |done, _| {
            done < n
        });
        traced_pass(&pool, &pass, &mut out);
    }
    out.notes.push(format!(
        "digest protocols seed={seed} inputs={} results={}",
        setups.inputs(),
        results.hex()
    ));
    out
}

/// Replay the untraced pass's configurations with every phase in its own
/// span, and check each repeats its untraced outputs.
fn traced_pass(pool: &[Config], untraced: &Pass, out: &mut Outcome) {
    let mut tr = Tracer::new();
    let mut check_ns = 0;
    let t_loop = Instant::now();
    for (i, expected) in untraced.records.iter().enumerate() {
        let req = i as u64;
        tr.begin("config", req);
        let (rec, _) = construct(&pool[i % POOL], |phase, f| tr.span(phase, req, f), None);
        tr.end();
        let t_check = Instant::now();
        out.check(rec == *expected, || {
            format!("traced configuration {i} differs from its untraced run")
        });
        check_ns += ns_since(t_check);
    }
    let traced_ns = ns_since(t_loop) - check_ns;

    let mut t = Traced {
        self_ns: tr.self_ns(),
        ..Traced::default()
    };
    for (phase, sums) in PHASES.iter().zip(&mut t.phases) {
        for p in untraced.records.iter().flat_map(|r| &r.phases) {
            if p.0 == *phase {
                *sums = (sums.0 + 1, sums.1 + p.1, sums.2 + p.2);
            }
        }
    }
    out.layers = layers(&t);
    crate::finish_trace(out, &tr, "protocols", untraced.work_ns, traced_ns);
}

/// What the traced replay measured, from which [`layers`] derives the
/// per-layer metrics. The default is a run that did not trace this
/// workload.
#[derive(Default)]
pub struct Traced {
    self_ns: SelfNs,
    /// Per phase, in `PHASES` order: calls, and rounds and messages summed
    /// over the calls.
    phases: [(usize, usize, usize); PHASES.len()],
}

/// This workload's per-layer metrics: each phase's busy time, and its
/// rounds and messages per call; then the simulated network's cost per
/// message over all phases.
pub fn layers(t: &Traced) -> Vec<Metric> {
    let per = |num: usize, den: usize| num as f64 / den.max(1) as f64;
    let mut all = Vec::new();
    let (mut busy_ns, mut messages) = (0, 0);
    for (phase, &(calls, rounds, msgs)) in PHASES.iter().zip(&t.phases) {
        all.push(busy_ms(&t.self_ns, phase));
        all.push(metric(
            format!("{phase}.rounds"),
            per(rounds, calls),
            "count",
        ));
        all.push(metric(
            format!("{phase}.messages"),
            per(msgs, calls),
            "count",
        ));
        busy_ns += t.self_ns.get(phase).copied().unwrap_or(0);
        messages += msgs;
    }
    all.push(metric(
        "sim_net.ns_per_message",
        busy_ns as f64 / messages.max(1) as f64,
        "ns",
    ));
    all
}
