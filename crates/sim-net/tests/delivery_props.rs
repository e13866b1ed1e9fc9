//! Delivery equivalence of the flat engine against the reference twin.
//!
//! Random sparse send patterns run on both [`SimNet`] and
//! [`HashSimNet`] over the same index-addressed mesh or torus. The
//! reference engine is the ground truth for *what* arrives *when*: it
//! dispatches every node every round and sorts each inbox by sender. The
//! flat engine must hand every dispatched node the same inbox — senders,
//! payloads and order — in the same round, and report the same
//! [`RunStats`], while dispatching only round 0 and message recipients.
//!
//! Each case covers the delivery invariant's edge cases: `post` before
//! a run, a first run cut at `max_rounds` with sends still pending, a
//! second run whose round 0 re-dispatches every node after a sparse last
//! round, and `post` between runs. `run_par` at two threads must
//! reproduce `run` exactly.

use std::sync::Mutex;

use mesh_topo::Parallelism;
use sim_net::reference::HashSimNet;
use sim_net::{Grid2, Grid3, RunStats, SimNet, Topology};

/// `(hops left, tag)`.
type Msg = (u32, u64);

/// One dispatch worth checking: `(run, round, node, inbox)`.
type Entry = (u64, usize, usize, Vec<(usize, Msg)>);

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d1_049b_133e_b111);
    z ^ (z >> 31)
}

/// The handler both engines run: fold the inbox into the state, start a
/// few walks spontaneously in round 0, and forward each message to 0–2
/// pseudo-random neighbours while it has hops left. Returns the sends.
fn react<T: Topology>(
    topo: &T,
    seed: u64,
    run: u64,
    me: usize,
    round: usize,
    state: &mut u64,
    inbox: &[(usize, Msg)],
) -> Vec<(usize, Msg)> {
    let mut nbrs = Vec::new();
    topo.for_neighbors(me, |j| nbrs.push(j));
    let mut out = Vec::new();
    let mut fan = |h: u64, fanout: u64, hops: u32| {
        for j in 0..fanout {
            let to = nbrs[((h >> 8).wrapping_add(j) % nbrs.len() as u64) as usize];
            out.push((to, (hops, mix(h ^ j))));
        }
    };
    if round == 0 {
        let h = mix(seed ^ (run << 40) ^ me as u64);
        if h.is_multiple_of(11) {
            fan(h, 1 + (h >> 4) % 2, 2 + ((h >> 20) % 10) as u32);
        }
    }
    for &(from, (hops, tag)) in inbox {
        *state = mix(*state ^ ((from as u64) << 32) ^ tag ^ hops as u64);
        if hops > 0 {
            let h = mix(tag ^ ((me as u64) << 20) ^ round as u64);
            fan(h, h % 3, hops - 1);
        }
    }
    out
}

/// The stimuli and round limits of one case, drawn from its seed.
struct Plan {
    posts_before: Vec<(usize, Msg)>,
    first_limit: usize,
    /// Posted between the runs, but only after a quiescent first run:
    /// with sends still pending the engines order a node's inbox
    /// differently (the reference sorts the posted message among pending
    /// ones by sender; the flat engine appends it after them).
    posts_between: Vec<(usize, Msg)>,
}

impl Plan {
    fn draw(seed: u64, n: usize) -> Plan {
        let posts = |salt: u64, count: u64| {
            (0..count)
                .map(|k| {
                    let h = mix(seed ^ salt ^ k);
                    ((h % n as u64) as usize, (3 + ((h >> 32) % 8) as u32, h))
                })
                .collect()
        };
        let h = mix(seed ^ 0x51);
        Plan {
            posts_before: posts(0xb0, 1 + h % 3),
            // A third of the first runs go to quiescence; the rest are
            // cut after a few rounds, usually with sends pending.
            first_limit: match (h >> 8) % 9 {
                0..=2 => SECOND_LIMIT,
                r => r as usize - 2,
            },
            posts_between: posts(0xbe, 1 + (h >> 16) % 3),
        }
    }
}

struct Outcome {
    log: Vec<Entry>,
    runs: Vec<RunStats>,
    total: RunStats,
    states: Vec<u64>,
}

const SECOND_LIMIT: usize = 400;

fn run_reference<T: Topology + 'static>(topo: T, seed: u64, plan: &Plan) -> Outcome {
    let mut net: HashSimNet<usize, u64, Msg> =
        HashSimNet::new(0..topo.len(), |_| 0, move |a, b| topo.linked(a, b));
    let mut log = Vec::new();
    let mut runs: Vec<RunStats> = Vec::new();
    for &(to, msg) in &plan.posts_before {
        net.post(to, msg);
    }
    for run in 0..2u64 {
        if run == 1 && runs[0].quiescent {
            for &(to, msg) in &plan.posts_between {
                net.post(to, msg);
            }
        }
        let limit = if run == 0 {
            plan.first_limit
        } else {
            SECOND_LIMIT
        };
        runs.push(net.run(limit, |state, inbox, ctx| {
            let (me, round) = (ctx.me(), ctx.round);
            if round == 0 || !inbox.is_empty() {
                log.push((run, round, me, inbox.to_vec()));
            }
            for (to, msg) in react(&topo, seed, run, me, round, state, inbox) {
                ctx.send(to, msg);
            }
        }));
    }
    Outcome {
        log,
        runs,
        total: net.stats(),
        states: net.iter().map(|(_, &s)| s).collect(),
    }
}

/// Run the plan on the flat engine, sequentially (`threads == 1`) or
/// sharded over `threads` with `run_par`.
fn run_flat<T: Topology + Sync>(topo: T, seed: u64, plan: &Plan, threads: usize) -> Outcome {
    let mut net: SimNet<T, u64, Msg> = SimNet::new(topo, |_| 0);
    let log = Mutex::new(Vec::new());
    let mut runs: Vec<RunStats> = Vec::new();
    for &(to, msg) in &plan.posts_before {
        net.post(to, msg);
    }
    for run in 0..2u64 {
        if run == 1 && runs[0].quiescent {
            for &(to, msg) in &plan.posts_between {
                net.post(to, msg);
            }
        }
        let limit = if run == 0 {
            plan.first_limit
        } else {
            SECOND_LIMIT
        };
        let step = |state: &mut u64,
                    inbox: sim_net::Inbox<'_, Msg>,
                    ctx: &mut sim_net::Ctx<'_, T, Msg>| {
            let (me, round) = (ctx.me(), ctx.round);
            assert!(
                round == 0 || !inbox.is_empty(),
                "node {me} dispatched in round {round} with an empty inbox"
            );
            let inbox: Vec<(usize, Msg)> = inbox.iter().map(|&(f, m)| (f as usize, m)).collect();
            if round == 0 || !inbox.is_empty() {
                log.lock().unwrap().push((run, round, me, inbox.clone()));
            }
            for (to, msg) in react(&topo, seed, run, me, round, state, &inbox) {
                ctx.send(to, msg);
            }
        };
        runs.push(if threads == 1 {
            net.run(limit, step)
        } else {
            net.run_par(limit, Parallelism::new(threads), step)
        });
    }
    let mut log = log.into_inner().unwrap();
    // Shards log concurrently; (run, round, node) names each dispatch once.
    log.sort_by_key(|e| (e.0, e.1, e.2));
    Outcome {
        log,
        runs,
        total: net.stats(),
        states: net.iter().map(|(_, &s)| s).collect(),
    }
}

#[derive(Default)]
struct Coverage {
    cut_with_pending: usize,
    posted_between: usize,
    messages: usize,
}

fn check<T: Topology + Sync + std::fmt::Debug + 'static>(topo: T, seed: u64, cov: &mut Coverage) {
    let plan = Plan::draw(seed, topo.len());
    let want = run_reference(topo, seed, &plan);
    for threads in [1, 2] {
        let got = run_flat(topo, seed, &plan, threads);
        let what = format!("{topo:?}, seed {seed}, {threads} thread(s)");
        assert_eq!(got.runs, want.runs, "per-run stats: {what}");
        assert_eq!(got.total, want.total, "cumulative stats: {what}");
        assert_eq!(got.log.len(), want.log.len(), "dispatch count: {what}");
        for (g, w) in got.log.iter().zip(&want.log) {
            assert_eq!(g, w, "inbox: {what}");
        }
        assert_eq!(got.states, want.states, "states: {what}");
    }
    let first = want.runs[0];
    if !first.quiescent
        && want
            .log
            .iter()
            .any(|e| e.0 == 1 && e.1 == 0 && !e.3.is_empty())
    {
        cov.cut_with_pending += 1;
    }
    if first.quiescent {
        cov.posted_between += 1;
    }
    cov.messages += want.total.messages;
}

#[test]
fn flat_delivery_matches_reference_on_random_sparse_patterns() {
    let mut cov = Coverage::default();
    for seed in 0..48u64 {
        let h = mix(seed);
        let (w, ht) = (3 + (h % 7) as i32, 3 + ((h >> 8) % 7) as i32);
        let (x, y, z) = (
            3 + ((h >> 16) % 3) as i32,
            3 + ((h >> 24) % 3) as i32,
            3 + ((h >> 32) % 3) as i32,
        );
        check(Grid2::new(w, ht), seed, &mut cov);
        check(Grid2::torus(w, ht), seed, &mut cov);
        check(Grid3::new(x, y, z), seed, &mut cov);
        check(Grid3::torus(x, y, z), seed, &mut cov);
    }
    // The edge cases must actually occur, not just be allowed.
    assert!(
        cov.cut_with_pending >= 60,
        "cut runs with pending sends: {}",
        cov.cut_with_pending
    );
    assert!(
        cov.posted_between >= 30,
        "posts between runs: {}",
        cov.posted_between
    );
    assert!(cov.messages >= 10_000, "messages: {}", cov.messages);
}
