//! `serve-mixed`: the journaled mesh service under a mix of reads and
//! writes — the only workload with writes beside reads, and the only one
//! on the 2-D kernels and the service layers.
//!
//! One `MeshService` owns one 128² shard (`snapshot_every = 64`,
//! `SyncPolicy::Never`, admission loose enough that nothing is shed). A
//! single closed-loop caller sends 70 % `Route2`, 20 % `Query2` and 10 %
//! `Churn2` (one heal plus one inject). A churn only journals its delta;
//! the incremental models replay it on the next read, so repair cost
//! lands in route and query latency.
//!
//! The traced run replays the identical request sequence through a
//! `ShardCore` (snapshotting itself every 64 churns) plus mirror
//! `Admission`, `IncrementalModels2` and `Router2` calls, each in its own
//! span, and checks every reply equals the service's.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fault_model::incremental::LOG_CAP;
use fault_model::{BorderPolicy, IncrementalModels2};
use mcc_routing::{Policy, Router2};
use mesh_service::{
    Admission, AdmissionConfig, CrashPoint, Geometry, MeshService, OpClass, Request, Response,
    ServiceConfig, ServiceError, ShardCore, ShardModels, ShardSpec, StateDigest, SyncPolicy,
};
use mesh_topo::{Frame2, Mesh2D, NodeSet, NodeSpace2, Parallelism, C2};

use crate::trace::{busy_ms, SelfNs, Tracer};
use crate::util::{metric, ns_since, Digest, Metric, Outcome, Rng, Samples, Setups, Windows};

const SIDE: i32 = 128;
const SEED_FAULTS: usize = 160;
const SNAPSHOT_EVERY: u64 = 64;
const MIN_DIST: u32 = 64;
/// Spacing of set-up repetitions in the timed loop (one set-up takes
/// about 1.5 ms).
const SETUP_EVERY: Duration = Duration::from_millis(250);
/// Requests per throughput window (about 0.05 s).
const WINDOW: usize = 1000;
/// Replies that enter the result digest; every run serves at least these.
const DIGEST_REQUESTS: usize = 2000;
/// Requests per second of `--seconds` the traced run replays (about a
/// fifth of the closed-loop rate: the replay keeps every span in memory).
const TRACE_REQUESTS_PER_S: u64 = 5_000;
/// Virtual spacing of request arrivals for admission. With a 1 ns cost
/// per request the admission queue is always empty.
const ARRIVAL_GAP_NS: u64 = 1_000;

fn spec(snapshot_every: u64) -> ShardSpec {
    ShardSpec {
        geom: Geometry::M2 {
            width: SIDE,
            height: SIDE,
            wrap: false,
        },
        border: BorderPolicy::BorderSafe,
        snapshot_every,
        sync: SyncPolicy::Never,
    }
}

fn admission() -> AdmissionConfig {
    AdmissionConfig {
        queue_cap: 1024,
        deadline_ns: 1_000_000_000,
        cost_ns: [1, 1, 1],
    }
}

fn space() -> NodeSpace2 {
    NodeSpace2::new(SIDE, SIDE)
}

/// The seed-driven request stream. It tracks the fault set itself, so
/// routes get healthy endpoints and churn heals a faulty node and injects
/// a healthy one.
struct Gen {
    rng: Rng,
    faulty: Vec<bool>,
    faults: Vec<usize>,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            rng: Rng::new(seed ^ 0x5e7e_5e7e),
            faulty: vec![false; space().len()],
            faults: Vec::new(),
        }
    }

    fn healthy(&mut self) -> usize {
        loop {
            let i = self.rng.below(self.faulty.len());
            if !self.faulty[i] {
                return i;
            }
        }
    }

    fn inject(&mut self) -> C2 {
        let i = self.healthy();
        self.faulty[i] = true;
        self.faults.push(i);
        space().coord(i)
    }

    /// A healthy pair at least `MIN_DIST` apart; `quadrant` (bit 0: x
    /// decreasing, bit 1: y decreasing) fixes its orientation.
    fn pair(&mut self, quadrant: Option<usize>) -> Request {
        loop {
            let (s, d) = (space().coord(self.healthy()), space().coord(self.healthy()));
            let q = usize::from(d.x < s.x) | usize::from(d.y < s.y) << 1;
            let fits = quadrant.is_none_or(|k| k == q && d.x != s.x && d.y != s.y);
            if fits && space().dist(s, d) >= MIN_DIST {
                return Request::Route2 {
                    s,
                    d,
                    seed: self.rng.next_u64(),
                };
            }
        }
    }

    /// The journaled seed batch, then one route per orientation and one
    /// query, which build all four orientation slots.
    fn setup(&mut self) -> Vec<Request> {
        let injected = (0..SEED_FAULTS).map(|_| self.inject()).collect();
        let mut reqs = vec![Request::Churn2 {
            injected,
            healed: vec![],
        }];
        reqs.extend((0..4).map(|q| self.pair(Some(q))));
        reqs.push(Request::Query2(
            space().coord(self.rng.below(space().len())),
        ));
        reqs
    }

    fn next(&mut self) -> Request {
        match self.rng.below(10) {
            0..=6 => self.pair(None),
            7 | 8 => Request::Query2(space().coord(self.rng.below(space().len()))),
            _ => {
                // The healed node stays marked faulty until the injected
                // one is chosen, so the two never coincide.
                let healed = self.faults.swap_remove(self.rng.below(self.faults.len()));
                let injected = vec![self.inject()];
                self.faulty[healed] = false;
                Request::Churn2 {
                    injected,
                    healed: vec![space().coord(healed)],
                }
            }
        }
    }

    fn fault_set(&self) -> NodeSet {
        NodeSet::from_indices(space().len(), self.faults.iter().copied())
    }
}

fn class(req: &Request) -> OpClass {
    req.op_class()
        .expect("the stream sends only route, query and churn")
}

/// Check one reply against the request: a churn advances the generation
/// by one, a delivered route is minimal.
fn reply_ok(req: &Request, reply: &Result<Response, ServiceError>, gen: &mut u64) -> bool {
    match (req, reply) {
        (Request::Route2 { s, d, .. }, Ok(Response::Route { delivered, hops })) => {
            !delivered || *hops == space().dist(*s, *d) as usize
        }
        (Request::Query2(_), Ok(Response::Region { .. })) => true,
        (Request::Churn2 { .. }, Ok(Response::Churn { gen: g })) => {
            *gen += 1;
            *g == *gen
        }
        _ => false,
    }
}

/// The state a from-scratch build of `faults` gives at generation `gen`.
fn fresh_digest(faults: &NodeSet, gen: u64) -> StateDigest {
    let spec = spec(SNAPSHOT_EVERY);
    ShardModels::from_fault_words(
        &spec,
        Some((faults.capacity(), faults.words().to_vec())),
        Parallelism::SEQ,
    )
    .expect("fault set matches the geometry")
    .digest(gen)
}

/// The untraced phase: the service, its request log and call latencies.
struct Served {
    gen: Gen,
    setup: Vec<Request>,
    requests: Vec<Request>,
    replies: Vec<Result<Response, ServiceError>>,
    calls: Windows,
    wall_ns: u64,
    /// Generation after the last churn.
    final_gen: u64,
    /// Cold reopen of the journal after the run: microseconds, records
    /// replayed.
    reopen: (f64, u64),
}

fn start(dir: &Path) -> MeshService {
    let mut cfg = ServiceConfig::new(dir);
    cfg.admission = admission();
    cfg.threads = Parallelism::SEQ;
    MeshService::start(cfg, &[spec(SNAPSHOT_EVERY)]).expect("service starts on an empty journal")
}

pub fn run(seed: u64, seconds: u64, trace: bool, out_dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let root = out_dir.join(format!("serve-{}", std::process::id()));
    let served = serve(seed, seconds, trace, &root, &mut out);
    if trace {
        traced(&served, &root, &mut out);
    }
    let _ = fs::remove_dir_all(&root);
    out
}

/// Start the service on an empty journal in `dir`, send the journaled
/// seed batch and warm every orientation slot. Returns the seconds that
/// took; the service, the generator ready for the timed loop, the set-up
/// requests and whether every reply was right; and a digest of the
/// requests with their replies.
fn set_up_service(seed: u64, dir: &Path) -> (f64, (MeshService, Gen, Vec<Request>, bool), String) {
    let _ = fs::remove_dir_all(dir);
    let t = Instant::now();
    let mut gen = Gen::new(seed);
    let svc = start(dir);
    let reqs = gen.setup();
    let replies: Vec<_> = reqs
        .iter()
        .enumerate()
        .map(|(i, req)| svc.call(0, req.clone(), i as u64 * ARRIVAL_GAP_NS))
        .collect();
    let secs = t.elapsed().as_secs_f64();
    let mut churn_gen = 0;
    let ok = reqs
        .iter()
        .zip(&replies)
        .all(|(req, reply)| reply_ok(req, reply, &mut churn_gen));
    let mut h = Digest::default();
    h.bytes(format!("{reqs:?} {replies:?}").as_bytes());
    (secs, (svc, gen, reqs, ok), h.hex())
}

/// Set up the service (repeating the set-up during the loop, for
/// `setup_s`), drive the closed loop, then check the journal reopens to
/// the from-scratch state.
fn serve(seed: u64, seconds: u64, trace: bool, root: &Path, out: &mut Outcome) -> Served {
    let journal = |rep: usize| root.join(format!("journal-{rep}"));
    let dir = journal(0);
    let mut reps = 0;
    // Repetitions start a second service while the first one idles; each
    // is shut down before the loop goes on.
    let every = (!trace).then_some(SETUP_EVERY);
    let ((svc, mut gen, setup_reqs, ok), mut setups) = Setups::first(every, move || {
        if reps > 1 {
            let _ = fs::remove_dir_all(journal(reps - 1));
        }
        reps += 1;
        set_up_service(seed, &journal(reps - 1))
    });
    out.check(ok, || "the set-up was refused".into());
    let mut inputs = Digest::default();
    for req in &setup_reqs {
        inputs.bytes(format!("{req:?}").as_bytes());
    }

    let mut results = Digest::default();
    let (mut requests, mut replies) = (Vec::new(), Vec::new());
    let mut churn_gen = 1;
    let limit = Duration::from_secs(seconds);
    let fixed = (TRACE_REQUESTS_PER_S * seconds) as usize;
    let more = |n: usize, elapsed: Duration| {
        if trace {
            n < fixed.max(DIGEST_REQUESTS)
        } else {
            n < DIGEST_REQUESTS || elapsed < limit
        }
    };
    let mut n = 0;
    let mut calls = Windows::new(WINDOW);
    let mut setup_ns = 0;
    let t_loop = Instant::now();
    while more(n, t_loop.elapsed()) {
        let req = gen.next();
        let sched = (setup_reqs.len() + n) as u64 * ARRIVAL_GAP_NS;
        let t = Instant::now();
        let reply = svc.call(0, req.clone(), sched);
        calls.sample(class(&req).index(), ns_since(t));
        let ok = reply_ok(&req, &reply, &mut churn_gen);
        out.check(ok, || format!("request {n}: {req:?} got {reply:?}"));
        if n < DIGEST_REQUESTS {
            inputs.bytes(format!("{req:?}").as_bytes());
            results.bytes(format!("{reply:?}").as_bytes());
        }
        if trace {
            requests.push(req);
            replies.push(reply);
        }
        n += 1;
        let work_ns = ns_since(t_loop) - setup_ns;
        calls.op(work_ns);
        setup_ns += setups.repeat_if_due(work_ns, out);
    }
    let wall_ns = ns_since(t_loop) - setup_ns;
    svc.shutdown();
    drop(svc);

    // Cold reopen of the journal: snapshot plus replayed suffix.
    let t = Instant::now();
    let reopened = ShardCore::open(
        &dir.join("shard-0000"),
        spec(SNAPSHOT_EVERY),
        Parallelism::SEQ,
        CrashPoint::none(),
    );
    let recover_us = t.elapsed().as_secs_f64() * 1e6;
    let fresh = fresh_digest(&gen.fault_set(), churn_gen);
    let mut reopen = (0.0, 0);
    match reopened {
        Ok(mut core) => {
            let stats = core.stats();
            out.check(core.digest() == fresh, || {
                "reopened journal differs from a from-scratch build of the final fault set".into()
            });
            reopen = (recover_us, stats.gen - stats.snapshot_gen);
        }
        Err(e) => out.check(false, || format!("journal does not reopen: {e}")),
    }

    if !trace {
        out.end_to_end(&setups, "ops_per_s", ["route", "query", "churn"], &calls);
        out.notes.push(format!(
            "diag sync_policy=Never snapshot_every={SNAPSHOT_EVERY} shard={SIDE}x{SIDE} seed_faults={SEED_FAULTS}"
        ));
    }
    out.notes.push(format!(
        "digest serve-mixed seed={seed} inputs={} results={}",
        inputs.hex(),
        results.hex()
    ));
    Served {
        gen,
        setup: setup_reqs,
        requests,
        replies,
        calls,
        wall_ns,
        final_gen: churn_gen,
        reopen,
    }
}

/// Counts the mirror models' slot rebuilds: a slot is rebuilt when first
/// used, or when more than `LOG_CAP` churns passed since it last synced
/// (the models then drop it rather than replay the log).
struct SlotAges([Option<u64>; 4]);

impl SlotAges {
    fn fetch(&mut self, frame: Frame2, gen: u64) -> bool {
        let last = self.0[frame.index()].replace(gen);
        last.is_none_or(|l| gen - l > LOG_CAP)
    }
}

/// The mirror's work for one read: bring the orientation's models up to
/// date, then (for a route) run the router over them.
fn mirror_read(
    tr: &mut Tracer,
    mirror: &mut IncrementalModels2,
    ages: &mut SlotAges,
    req: &Request,
    id: u64,
) -> (bool, Response) {
    let gen = mirror.generation();
    match *req {
        Request::Route2 { s, d, seed } => {
            let frame = Frame2::for_pair(mirror.mesh(), s, d);
            let rebuilt = ages.fetch(frame, gen);
            let m = tr.span("incremental.models", id, || mirror.models(frame));
            let (cs, cd) = (frame.to_canon(s), frame.to_canon(d));
            let o = tr.span("router2.route", id, || {
                Router2::new(m.lab, m.mccs).route(cs, cd, &mut Policy::random(seed))
            });
            (
                rebuilt,
                Response::Route {
                    delivered: o.delivered(),
                    hops: o.path.hops(),
                },
            )
        }
        Request::Query2(c) => {
            let frame = Frame2::identity(mirror.mesh());
            let rebuilt = ages.fetch(frame, gen);
            let m = tr.span("incremental.models", id, || mirror.models(frame));
            (
                rebuilt,
                Response::Region {
                    status: format!("{:?}", m.lab.status(c)),
                    in_unsafe: m.lab.unsafe_set().contains(space().index(c)),
                    mccs: m.mccs.len(),
                },
            )
        }
        _ => unreachable!("reads are routes and queries"),
    }
}

fn traced(served: &Served, root: &Path, out: &mut Outcome) {
    let dir: PathBuf = root.join("traced");
    let _ = fs::remove_dir_all(&dir);
    // Snapshots are the replay's own job: every 64 churns, as the service.
    let mut core = match ShardCore::open(&dir, spec(0), Parallelism::SEQ, CrashPoint::none()) {
        Ok(core) => core,
        Err(e) => return out.check(false, || format!("traced shard does not open: {e}")),
    };
    let mut mirror = IncrementalModels2::new(Mesh2D::new(SIDE, SIDE), BorderPolicy::BorderSafe);
    let mut adm = Admission::new(admission());
    let mut ages = SlotAges([None; 4]);

    // Replay the set-up outside the trace: the seed batch and the warm-up.
    let mut warm = Tracer::new();
    let mut churn_gen = 0;
    for (i, req) in served.setup.iter().enumerate() {
        let _ = adm.offer(i as u64 * ARRIVAL_GAP_NS, class(req));
        let reply = core.handle(req);
        let ok = reply_ok(req, &reply, &mut churn_gen);
        out.check(ok, || format!("traced set-up {i}: {req:?} got {reply:?}"));
        match req {
            Request::Churn2 { injected, healed } => mirror.apply(injected, healed),
            _ => {
                mirror_read(&mut warm, &mut mirror, &mut ages, req, 0);
            }
        }
    }
    let mut tr = Tracer::new();
    let repaired0 = mirror.statuses_repaired();
    let mut handle: [Samples; 3] = Default::default();
    let mut t = Traced::default();
    let mut check_ns = 0;
    let t_loop = Instant::now();
    for (n, (req, expected)) in served.requests.iter().zip(&served.replies).enumerate() {
        let id = n as u64;
        let cls = class(req);
        tr.begin("request", id);
        let sched = (served.setup.len() + n) as u64 * ARRIVAL_GAP_NS;
        let admitted = tr
            .span("admission.offer", id, || adm.offer(sched, cls))
            .is_ok();
        let wal_before = core.stats().wal_bytes;
        let t_handle = Instant::now();
        let reply = tr.span("shard.handle", id, || core.handle(req));
        handle[cls.index()].push(ns_since(t_handle));
        let mirrored = match req {
            Request::Churn2 { injected, healed } => {
                t.churns += 1;
                t.wal_bytes += core.stats().wal_bytes - wal_before;
                if core.gen() - core.stats().snapshot_gen >= SNAPSHOT_EVERY {
                    let snap = tr.span("snapshot.write", id, || core.snapshot_now());
                    out.check(snap.is_ok(), || {
                        format!("snapshot after request {n}: {snap:?}")
                    });
                }
                let applied = tr.span("incremental.apply", id, || {
                    mirror.try_apply(injected, healed)
                });
                applied.is_ok().then(|| Response::Churn { gen: core.gen() })
            }
            _ => {
                let (rebuilt, r) = mirror_read(&mut tr, &mut mirror, &mut ages, req, id);
                t.slot_rebuilds += u64::from(rebuilt);
                if let Response::Route {
                    delivered: true,
                    hops: h,
                } = r
                {
                    t.routes += 1;
                    t.hops += h as u64;
                }
                Some(r)
            }
        };
        tr.end();
        let t_check = Instant::now();
        let ok = admitted
            && reply_ok(req, &reply, &mut churn_gen)
            && reply == *expected
            && mirrored.as_ref() == expected.as_ref().ok();
        out.check(ok, || format!("traced request {n}: {req:?}: service {expected:?}, shard {reply:?}, mirror {mirrored:?}"));
        check_ns += ns_since(t_check);
    }
    let traced_ns = ns_since(t_loop) - check_ns;

    let fresh = fresh_digest(&served.gen.fault_set(), served.final_gen);
    out.check(core.digest() == fresh, || {
        "live shard state differs from a from-scratch build of the final fault set".into()
    });
    out.check(mirror.mesh().fault_set() == &served.gen.fault_set(), || {
        "mirror models hold a different fault set".into()
    });

    t.self_ns = tr.self_ns();
    for cls in CLASSES {
        let k = cls.index();
        t.call_p50_us[k] = served.calls.all[k].p50_us();
        t.handle_p50_us[k] = handle[k].p50_us();
    }
    t.statuses_repaired = mirror.statuses_repaired() - repaired0;
    t.snapshots = tr.calls("snapshot.write") as u64;
    t.admitted = adm.admitted();
    t.shed = adm.shed_overloaded() + adm.shed_deadline();
    t.reopen = served.reopen;
    out.layers = layers(&t);
    crate::finish_trace(out, &tr, "serve-mixed", served.wall_ns, traced_ns);
}

const CLASSES: [OpClass; 3] = [OpClass::Route, OpClass::Query, OpClass::Churn];

/// What the traced replay measured, from which [`layers`] derives the
/// per-layer metrics. The default is a run that did not trace this
/// workload.
#[derive(Default)]
pub struct Traced {
    self_ns: SelfNs,
    /// p50 of the untraced `MeshService::call` and of the traced
    /// `ShardCore::handle`, per request class, in microseconds.
    call_p50_us: [f64; 3],
    handle_p50_us: [f64; 3],
    statuses_repaired: usize,
    slot_rebuilds: u64,
    routes: u64,
    hops: u64,
    churns: u64,
    wal_bytes: u64,
    snapshots: u64,
    admitted: u64,
    shed: u64,
    reopen: (f64, u64),
}

/// This workload's per-layer metrics. The actor hop of a class is its
/// untraced `call` p50 minus its traced `handle` p50.
pub fn layers(t: &Traced) -> Vec<Metric> {
    let busy = |span| busy_ms(&t.self_ns, span);
    let per = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let mut all = Vec::new();
    for cls in CLASSES {
        let (k, name) = (cls.index(), format!("{cls:?}").to_lowercase());
        all.push(metric(
            format!("service.hop_us.{name}"),
            t.call_p50_us[k] - t.handle_p50_us[k],
            "us",
        ));
        all.push(metric(
            format!("shard.handle_p50_us.{name}"),
            t.handle_p50_us[k],
            "us",
        ));
    }
    all.extend([
        busy("incremental.apply"),
        busy("incremental.models"),
        metric(
            "incremental.statuses_repaired",
            t.statuses_repaired as f64,
            "count",
        ),
        metric("incremental.slot_rebuilds", t.slot_rebuilds as f64, "count"),
        busy("router2.route"),
        metric("router2.route.hops", per(t.hops, t.routes), "count"),
        metric("wal.bytes_per_churn", per(t.wal_bytes, t.churns), "B"),
        metric("snapshot.write.calls", t.snapshots as f64, "count"),
        busy("snapshot.write"),
        metric("admission.admitted", t.admitted as f64, "count"),
        metric("admission.shed", t.shed as f64, "count"),
        metric("shard.open.recover_us", t.reopen.0, "us"),
        metric("shard.open.records_replayed", t.reopen.1 as f64, "count"),
    ]);
    all
}
