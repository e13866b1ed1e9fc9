//! Equivalence battery for the word-parallel fault-block closure.
//!
//! [`FaultBlocks2::compute`] and [`FaultBlocks3::compute`] run one
//! word-parallel kernel. This file keeps the node-at-a-time three-phase
//! fixpoint it replaced — rule closure from a full worklist, BFS component
//! boxes merged until disjoint, box fill, repeated until nothing changes —
//! as the definitional spec, and asserts that the kernel produces the same
//! disabled set and the same `blocks` vector, order included, on 2-D and
//! 3-D meshes and tori.
//!
//! The shapes aim at the word edge cases: rows shorter than, equal to and
//! longer than 64 bits (so rows straddle word boundaries unaligned), tori
//! three nodes wide, 2-D tori (which never wrap in z), degenerate
//! one-node-wide axes, and fault densities from empty to percolating.

use fault_model::{FaultBlocks2, FaultBlocks3};
use mesh_topo::coord::{c2, c3};
use mesh_topo::{Box3, Mesh2D, Mesh3D, NodeSet, NodeSpace2, NodeSpace3, Rect};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Fault densities swept for every shape: empty to percolating.
const DENSITIES: [f64; 9] = [0.0, 0.01, 0.03, 0.06, 0.1, 0.15, 0.22, 0.35, 0.6];
const SEEDS: u64 = 12;

/// The spec: the three-phase node-at-a-time fixpoint, 2-D.
fn spec2(space: NodeSpace2, faults: &NodeSet) -> (NodeSet, Vec<Rect>) {
    let mut disabled = faults.clone();
    loop {
        let mut grew = false;
        let mut work: Vec<usize> = (0..space.len()).collect();
        while let Some(u) = work.pop() {
            let mut n = 0;
            space.for_neighbors4(u, |j| n += disabled.contains(j) as usize);
            if disabled.contains(u) || n < 2 {
                continue;
            }
            disabled.insert(u);
            grew = true;
            space.for_neighbors4(u, |v| {
                if !disabled.contains(v) {
                    work.push(v);
                }
            });
        }
        let mut seen = NodeSet::new(space.len());
        let mut blocks: Vec<Rect> = Vec::new();
        for start in disabled.iter() {
            if !seen.insert(start) {
                continue;
            }
            let mut rect = Rect::point(space.coord(start));
            let mut queue = vec![start];
            while let Some(u) = queue.pop() {
                rect.include(space.coord(u));
                space.for_neighbors4(u, |v| {
                    if disabled.contains(v) && seen.insert(v) {
                        queue.push(v);
                    }
                });
            }
            blocks.push(rect);
        }
        while let Some((i, j)) = first_intersecting(&blocks, Rect::intersects) {
            blocks[i] = blocks[i].union(&blocks[j]);
            blocks.swap_remove(j);
        }
        let mut filled = false;
        for r in &blocks {
            for c in r.iter() {
                filled |= disabled.insert(space.index(c));
            }
        }
        if !grew && !filled {
            return (disabled, blocks);
        }
    }
}

/// The spec: the three-phase node-at-a-time fixpoint, 3-D.
fn spec3(space: NodeSpace3, faults: &NodeSet) -> (NodeSet, Vec<Box3>) {
    let mut disabled = faults.clone();
    loop {
        let mut grew = false;
        let mut work: Vec<usize> = (0..space.len()).collect();
        while let Some(u) = work.pop() {
            let mut n = 0;
            space.for_neighbors6(u, |j| n += disabled.contains(j) as usize);
            if disabled.contains(u) || n < 2 {
                continue;
            }
            disabled.insert(u);
            grew = true;
            space.for_neighbors6(u, |v| {
                if !disabled.contains(v) {
                    work.push(v);
                }
            });
        }
        let mut seen = NodeSet::new(space.len());
        let mut blocks: Vec<Box3> = Vec::new();
        for start in disabled.iter() {
            if !seen.insert(start) {
                continue;
            }
            let mut bb = Box3::point(space.coord(start));
            let mut queue = vec![start];
            while let Some(u) = queue.pop() {
                bb.include(space.coord(u));
                space.for_neighbors6(u, |v| {
                    if disabled.contains(v) && seen.insert(v) {
                        queue.push(v);
                    }
                });
            }
            blocks.push(bb);
        }
        while let Some((i, j)) = first_intersecting(&blocks, Box3::intersects) {
            blocks[i] = blocks[i].union(&blocks[j]);
            blocks.swap_remove(j);
        }
        let mut filled = false;
        for b in &blocks {
            for c in b.iter() {
                filled |= disabled.insert(space.index(c));
            }
        }
        if !grew && !filled {
            return (disabled, blocks);
        }
    }
}

/// The first pair `i < j` (in `i`, then `j` order) of intersecting boxes.
fn first_intersecting<T>(blocks: &[T], meets: fn(&T, &T) -> bool) -> Option<(usize, usize)> {
    (0..blocks.len())
        .flat_map(|i| ((i + 1)..blocks.len()).map(move |j| (i, j)))
        .find(|&(i, j)| meets(&blocks[i], &blocks[j]))
}

fn random_mesh2(w: i32, h: i32, torus: bool, density: f64, rng: &mut SmallRng) -> Mesh2D {
    let mut mesh = if torus {
        Mesh2D::torus(w, h)
    } else {
        Mesh2D::new(w, h)
    };
    for y in 0..h {
        for x in 0..w {
            if rng.gen_bool(density) {
                mesh.inject_fault(c2(x, y));
            }
        }
    }
    mesh
}

fn random_mesh3(dims: (i32, i32, i32), torus: bool, density: f64, rng: &mut SmallRng) -> Mesh3D {
    let (nx, ny, nz) = dims;
    let mut mesh = if torus {
        Mesh3D::torus(nx, ny, nz)
    } else {
        Mesh3D::new(nx, ny, nz)
    };
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                if rng.gen_bool(density) {
                    mesh.inject_fault(c3(x, y, z));
                }
            }
        }
    }
    mesh
}

fn check2(mesh: &Mesh2D, what: &str) {
    let space = mesh.space();
    let got = FaultBlocks2::compute(mesh);
    let (disabled, blocks) = spec2(space, mesh.fault_set());
    for i in 0..space.len() {
        assert_eq!(
            got.is_disabled(space.coord(i)),
            disabled.contains(i),
            "{what}: disabled set differs at {}",
            space.coord(i)
        );
    }
    assert_eq!(
        got.disabled_count(),
        disabled.len(),
        "{what}: disabled count"
    );
    assert_eq!(got.blocks, blocks, "{what}: blocks (order included)");
    // Invariants: disjoint, fully disabled, volumes sum to the count.
    for (i, a) in got.blocks.iter().enumerate() {
        assert!(
            a.iter().all(|c| got.is_disabled(c)),
            "{what}: {a:?} not filled"
        );
        for b in &got.blocks[i + 1..] {
            assert!(!a.intersects(b), "{what}: {a:?} meets {b:?}");
        }
    }
    let area: u64 = got.blocks.iter().map(Rect::area).sum();
    assert_eq!(area as usize, got.disabled_count(), "{what}: block areas");
}

fn check3(mesh: &Mesh3D, what: &str) {
    let space = mesh.space();
    let got = FaultBlocks3::compute(mesh);
    let (disabled, blocks) = spec3(space, mesh.fault_set());
    for i in 0..space.len() {
        assert_eq!(
            got.is_disabled(space.coord(i)),
            disabled.contains(i),
            "{what}: disabled set differs at {}",
            space.coord(i)
        );
    }
    assert_eq!(
        got.disabled_count(),
        disabled.len(),
        "{what}: disabled count"
    );
    assert_eq!(got.blocks, blocks, "{what}: blocks (order included)");
    for (i, a) in got.blocks.iter().enumerate() {
        assert!(
            a.iter().all(|c| got.is_disabled(c)),
            "{what}: {a:?} not filled"
        );
        for b in &got.blocks[i + 1..] {
            assert!(!a.intersects(b), "{what}: {a:?} meets {b:?}");
        }
    }
    let volume: u64 = got.blocks.iter().map(Box3::volume).sum();
    assert_eq!(
        volume as usize,
        got.disabled_count(),
        "{what}: block volumes"
    );
}

fn sweep2(shapes: &[(i32, i32)], torus: bool) {
    for &(w, h) in shapes {
        for (di, &density) in DENSITIES.iter().enumerate() {
            for seed in 0..SEEDS {
                let mut rng = SmallRng::seed_from_u64(seed * 1000 + di as u64);
                let mesh = random_mesh2(w, h, torus, density, &mut rng);
                check2(
                    &mesh,
                    &format!("{w}x{h} torus={torus} p={density} seed={seed}"),
                );
            }
        }
    }
}

fn sweep3(shapes: &[(i32, i32, i32)], torus: bool) {
    for &dims in shapes {
        for (di, &density) in DENSITIES.iter().enumerate() {
            for seed in 0..SEEDS {
                let mut rng = SmallRng::seed_from_u64(seed * 1000 + di as u64);
                let mesh = random_mesh3(dims, torus, density, &mut rng);
                check3(
                    &mesh,
                    &format!("{dims:?} torus={torus} p={density} seed={seed}"),
                );
            }
        }
    }
}

#[test]
fn mesh_2d_matches_spec() {
    sweep2(
        &[
            (1, 1),
            (1, 9),
            (9, 1),
            (5, 5),
            (7, 3),
            (13, 17),
            (63, 2),
            (64, 3),
            (65, 4),
            (70, 5),
            (130, 3),
        ],
        false,
    );
}

#[test]
fn torus_2d_matches_spec() {
    sweep2(
        &[(3, 3), (3, 7), (7, 3), (5, 13), (64, 3), (70, 5), (3, 70)],
        true,
    );
}

#[test]
fn mesh_3d_matches_spec() {
    sweep3(
        &[
            (1, 1, 1),
            (4, 4, 4),
            (3, 5, 7),
            (8, 8, 1),
            (1, 6, 6),
            (2, 3, 64),
            (70, 2, 2),
            (65, 3, 2),
            (6, 7, 8),
        ],
        false,
    );
}

#[test]
fn torus_3d_matches_spec() {
    sweep3(
        &[
            (3, 3, 3),
            (3, 4, 5),
            (5, 3, 4),
            (5, 5, 5),
            (64, 3, 3),
            (70, 3, 3),
        ],
        true,
    );
}

#[test]
fn staircase_propagates_along_rows_inside_a_word() {
    // Two faulty rows offset by a staircase: every disabled node enables
    // its +x neighbor through the row above, so the closure must run the
    // length of a row inside one word (and across unaligned word edges).
    for w in [20, 64, 70, 100] {
        let mut mesh = Mesh2D::new(w, 4);
        mesh.inject_fault(c2(0, 1));
        for x in 0..w {
            mesh.inject_fault(c2(x, 2));
        }
        check2(&mesh, &format!("staircase {w}x4"));
        let got = FaultBlocks2::compute(&mesh);
        assert_eq!(got.blocks, vec![Rect::spanning(c2(0, 1), c2(w - 1, 2))]);
    }
}

#[test]
fn blocks_across_the_wrap_span_the_axis() {
    // Faults at both ends of a torus row are neighbors across the wrap:
    // the component's coordinate bounding box spans the whole row.
    let mut mesh = Mesh2D::torus(70, 5);
    mesh.inject_fault(c2(0, 2));
    mesh.inject_fault(c2(69, 2));
    check2(&mesh, "x-wrap pair");
    let got = FaultBlocks2::compute(&mesh);
    assert_eq!(got.blocks, vec![Rect::spanning(c2(0, 2), c2(69, 2))]);

    let mut mesh = Mesh3D::torus(4, 5, 6);
    mesh.inject_fault(c3(1, 2, 0));
    mesh.inject_fault(c3(1, 2, 5));
    check3(&mesh, "z-wrap pair");
    let got = FaultBlocks3::compute(&mesh);
    assert_eq!(got.blocks, vec![Box3::spanning(c3(1, 2, 0), c3(1, 2, 5))]);
}
