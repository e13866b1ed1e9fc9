//! Pinning battery: the tiled wavefront labelling (`compute_par`) is
//! **bit-for-bit equal** across thread counts and to an independent
//! implementation, on random meshes and tori, under both border policies —
//! statuses, unsafe bitsets and counts all identical. `compute` is the
//! one-band case of the same wavefront, so each multi-band result is also
//! checked against a closure that shares no code with it: the hash-based
//! worklist of `fault_model::reference` on meshes (any frame, either
//! policy), the definitional wrapped-neighbor worklist of `tests/common`
//! on tori. Mesh sizes sit at/above the `PAR_MIN_NODES` floor so the
//! multi-band path really runs (below 4096 nodes it runs one band).

mod common;

use common::{worklist_closure_2d, worklist_closure_3d};
use fault_model::reference::{HashLabelling2, HashLabelling3};
use fault_model::{BorderPolicy, Labelling2, Labelling3, NodeStatus};
use mesh_topo::coord::{c2, c3};
use mesh_topo::{Frame2, Frame3, Mesh2D, Mesh3D, Parallelism};
use proptest::prelude::*;

/// Thread budgets exercised against the sequential baseline. 1 is the
/// one-band path; the rest force real tile fan-out (incl. more threads
/// than this machine has cores, and more tiles than rows is impossible —
/// bands() caps at the row count).
const THREADS: [usize; 4] = [1, 2, 5, 8];

/// The independent closure, indexed like the labelling's canonical space.
fn reference2(mesh: &Mesh2D, frame: Frame2, policy: BorderPolicy) -> Vec<NodeStatus> {
    if mesh.space().wraps() {
        assert_eq!(
            frame,
            Frame2::identity(mesh),
            "torus reference is identity-only"
        );
        return worklist_closure_2d(mesh);
    }
    let hash = HashLabelling2::compute(mesh, frame, policy);
    mesh.space().coords().map(|c| hash.status[&c]).collect()
}

fn reference3(mesh: &Mesh3D, frame: Frame3, policy: BorderPolicy) -> Vec<NodeStatus> {
    if mesh.space().wraps() {
        assert_eq!(
            frame,
            Frame3::identity(mesh),
            "torus reference is identity-only"
        );
        return worklist_closure_3d(mesh);
    }
    let hash = HashLabelling3::compute(mesh, frame, policy);
    mesh.space().coords().map(|c| hash.status[&c]).collect()
}

fn assert_lab2_eq(mesh: &Mesh2D, frame: Frame2, policy: BorderPolicy) {
    let seq = Labelling2::compute(mesh, frame, policy);
    let reference = reference2(mesh, frame, policy);
    for t in THREADS {
        let par = Labelling2::compute_par(mesh, frame, policy, Parallelism::new(t));
        for (((c, a), (_, b)), r) in seq.iter().zip(par.iter()).zip(&reference) {
            assert_eq!(a, b, "status diverged at {c} with {t} threads");
            assert_eq!(
                b, *r,
                "status diverged from the reference at {c} with {t} threads"
            );
        }
        assert_eq!(seq.unsafe_set(), par.unsafe_set(), "{t} threads");
        assert_eq!(seq.unsafe_count(), par.unsafe_count());
        assert_eq!(seq.sacrificed_count(), par.sacrificed_count());
    }
}

fn assert_lab3_eq(mesh: &Mesh3D, frame: Frame3, policy: BorderPolicy) {
    let seq = Labelling3::compute(mesh, frame, policy);
    let reference = reference3(mesh, frame, policy);
    for t in THREADS {
        let par = Labelling3::compute_par(mesh, frame, policy, Parallelism::new(t));
        for (((c, a), (_, b)), r) in seq.iter().zip(par.iter()).zip(&reference) {
            assert_eq!(a, b, "status diverged at {c} with {t} threads");
            assert_eq!(
                b, *r,
                "status diverged from the reference at {c} with {t} threads"
            );
        }
        assert_eq!(seq.unsafe_set(), par.unsafe_set(), "{t} threads");
        assert_eq!(seq.unsafe_count(), par.unsafe_count());
        assert_eq!(seq.sacrificed_count(), par.sacrificed_count());
    }
}

/// Random faults over a `64×64` grid (4096 nodes — at the parallel
/// floor). Dense enough (up to ~12%) to build long label cascades that
/// cross tile boundaries and force wavefront re-enqueues.
fn faults2() -> impl Strategy<Value = Vec<(i32, i32)>> {
    proptest::collection::vec((0..64i32, 0..64i32), 0..500)
}

fn mesh2(faults: &[(i32, i32)], wrap: bool) -> Mesh2D {
    let mut mesh = if wrap {
        Mesh2D::torus(64, 64)
    } else {
        Mesh2D::new(64, 64)
    };
    for &(x, y) in faults {
        let c = c2(x, y);
        if mesh.is_healthy(c) {
            mesh.inject_fault(c);
        }
    }
    mesh
}

fn faults3() -> impl Strategy<Value = Vec<(i32, i32, i32)>> {
    proptest::collection::vec((0..16i32, 0..16i32, 0..16i32), 0..500)
}

fn mesh3(faults: &[(i32, i32, i32)], wrap: bool) -> Mesh3D {
    let mut mesh = if wrap {
        Mesh3D::torus_kary(16)
    } else {
        Mesh3D::kary(16)
    };
    for &(x, y, z) in faults {
        let c = c3(x, y, z);
        if mesh.is_healthy(c) {
            mesh.inject_fault(c);
        }
    }
    mesh
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn par_labelling2_mesh_matches_sequential(faults in faults2()) {
        let mesh = mesh2(&faults, false);
        let frame = Frame2::identity(&mesh);
        assert_lab2_eq(&mesh, frame, BorderPolicy::BorderSafe);
        assert_lab2_eq(&mesh, frame, BorderPolicy::BorderBlocked);
    }

    #[test]
    fn par_labelling2_torus_matches_sequential(faults in faults2()) {
        let torus = mesh2(&faults, true);
        let frame = Frame2::identity(&torus);
        assert_lab2_eq(&torus, frame, BorderPolicy::BorderSafe);
    }

    #[test]
    fn par_labelling2_reflected_frame_matches_sequential(faults in faults2()) {
        let mesh = mesh2(&faults, false);
        let frame = Frame2::for_pair(&mesh, c2(63, 0), c2(0, 63));
        assert_lab2_eq(&mesh, frame, BorderPolicy::BorderSafe);
    }

    #[test]
    fn par_labelling3_mesh_matches_sequential(faults in faults3()) {
        let mesh = mesh3(&faults, false);
        let frame = Frame3::identity(&mesh);
        assert_lab3_eq(&mesh, frame, BorderPolicy::BorderSafe);
        assert_lab3_eq(&mesh, frame, BorderPolicy::BorderBlocked);
    }

    #[test]
    fn par_labelling3_torus_matches_sequential(faults in faults3()) {
        let torus = mesh3(&faults, true);
        let frame = Frame3::identity(&torus);
        assert_lab3_eq(&torus, frame, BorderPolicy::BorderSafe);
    }

    #[test]
    fn par_labelling3_reflected_frame_matches_sequential(faults in faults3()) {
        let mesh = mesh3(&faults, false);
        let frame = Frame3::for_pair(&mesh, c3(15, 0, 15), c3(0, 15, 0));
        assert_lab3_eq(&mesh, frame, BorderPolicy::BorderSafe);
    }
}

/// A label cascade laid along the wrap seam, crossing every tile
/// boundary: the worst case for the wavefront (labels must propagate
/// from the last tile back through every earlier tile, one round per
/// hop). Deterministic, not random, so it always runs.
#[test]
fn par_labelling2_torus_seam_cascade_matches_sequential() {
    let mut torus = Mesh2D::torus(64, 64);
    // A diagonal staircase of faults seals a long chain of pockets.
    for k in 0..63 {
        torus.inject_fault(c2(k + 1, k));
        torus.inject_fault(c2(k, k + 1));
    }
    let frame = Frame2::identity(&torus);
    assert_lab2_eq(&torus, frame, BorderPolicy::BorderSafe);
}

#[test]
fn par_labelling2_full_column_wall_matches_sequential() {
    // A full wall minus one gap funnels labels across all row bands.
    let mut mesh = Mesh2D::new(64, 64);
    for y in 1..64 {
        mesh.inject_fault(c2(32, y));
    }
    for x in 33..64 {
        mesh.inject_fault(c2(x, 1));
    }
    let frame = Frame2::identity(&mesh);
    assert_lab2_eq(&mesh, frame, BorderPolicy::BorderSafe);
    assert_lab2_eq(&mesh, frame, BorderPolicy::BorderBlocked);
}
