//! The labelling closure of Algorithms 1 and 4, written once for both
//! dimensions (crate-internal).
//!
//! Both algorithms are one monotone closure: a safe node becomes
//! *useless* when its `+` neighbor on every axis blocks (is faulty or
//! useless) and *can't-reach* when its `-` neighbor on every axis blocks.
//! They differ only in the number of axes, so the core runs on one raster
//! shape: `nz` planes of `nx × ny` nodes, `x` fastest. A 3-D
//! [`NodeSpace3`] is that raster as is; a 2-D [`NodeSpace2`] is the
//! raster with a one-node middle axis (`ny = 1`) that the 2-D instance
//! never reads, so its rows are the planes. [`Lattice::D3`] is a constant
//! per space type, so each dimension gets its own monomorphized kernel.
//!
//! * **Closure.** Each direction is one band sweep, run by the tiled
//!   wavefront of [`crate::par`] over contiguous plane bands (rows in 2-D).
//!   The sequential closure is the same wavefront with a single band: on a
//!   mesh one raster pass in dependency order reaches the fixpoint; on a
//!   torus the band re-enqueues itself until a label chain stops crossing
//!   the wrap seam.
//! * **Repair.** Small churn batches run one node-granular worklist
//!   (retract the reader cone of healed nodes, then re-propagate from the
//!   perturbed seeds), big ones ([`BULK_REPAIR_FANOUT`]) relabel through
//!   the wavefront and diff. See DESIGN.md §12.

use std::marker::PhantomData;

use mesh_topo::{par, NodeGrid, NodeSet, NodeSpace2, NodeSpace3, Parallelism, C2, C3};

use crate::par::{unsafe_set_par, wavefront, SweepDir, PAR_MIN_NODES, TILES_PER_THREAD};
use crate::status::{BorderPolicy, NodeStatus};

/// Perturbation-size fanout above which `Labelling2::repair` and
/// `Labelling3::repair` abandon the node-granular worklist for a full
/// relabel: batches of `≥ nodes / BULK_REPAIR_FANOUT` flips re-sweep the
/// grid. A pure function of batch and mesh size — never thread count — so
/// the repair path taken is identical under every parallelism budget.
pub const BULK_REPAIR_FANOUT: usize = 48;

/// A node index space the closure core and component discovery run on.
pub(crate) trait Lattice: Copy {
    /// Canonical coordinate of a node.
    type Coord: Copy;
    /// Whether the middle raster axis is a real axis (3-D) or the one-node
    /// filler of the 2-D raster.
    const D3: bool;
    /// Raster extents `(nx, ny, nz)`; 2-D is `(width, 1, height)`.
    fn dims(self) -> (usize, usize, usize);
    /// True on a torus.
    fn wraps(self) -> bool;
    /// Coordinate of index `i`.
    fn coord(self, i: usize) -> Self::Coord;
    /// Index of coordinate `c`.
    fn index(self, c: Self::Coord) -> usize;
    /// Region connectivity: the 8-neighborhood in 2-D, 18 in 3-D.
    fn for_region_neighbors(self, i: usize, f: impl FnMut(usize));
}

impl Lattice for NodeSpace2 {
    type Coord = C2;
    const D3: bool = false;
    fn dims(self) -> (usize, usize, usize) {
        (self.width() as usize, 1, self.height() as usize)
    }
    fn wraps(self) -> bool {
        NodeSpace2::wraps(self)
    }
    #[inline]
    fn coord(self, i: usize) -> C2 {
        NodeSpace2::coord(self, i)
    }
    #[inline]
    fn index(self, c: C2) -> usize {
        NodeSpace2::index(self, c)
    }
    #[inline]
    fn for_region_neighbors(self, i: usize, f: impl FnMut(usize)) {
        self.for_neighbors8(i, f)
    }
}

impl Lattice for NodeSpace3 {
    type Coord = C3;
    const D3: bool = true;
    fn dims(self) -> (usize, usize, usize) {
        (self.nx() as usize, self.ny() as usize, self.nz() as usize)
    }
    fn wraps(self) -> bool {
        NodeSpace3::wraps(self)
    }
    #[inline]
    fn coord(self, i: usize) -> C3 {
        NodeSpace3::coord(self, i)
    }
    #[inline]
    fn index(self, c: C3) -> usize {
        NodeSpace3::index(self, c)
    }
    #[inline]
    fn for_region_neighbors(self, i: usize, f: impl FnMut(usize)) {
        self.for_neighbors18(i, f)
    }
}

/// Run both closures over the fault raster of `space` (`faults` are
/// canonical indices) and build the unsafe bitset.
pub(crate) fn label<S: Lattice>(
    space: S,
    policy: BorderPolicy,
    faults: impl IntoIterator<Item = usize>,
    parallelism: Parallelism,
) -> (NodeGrid<NodeStatus>, NodeSet) {
    let raster = Raster::new(space, policy);
    let mut status = NodeGrid::new(raster.len(), NodeStatus::SAFE);
    for i in faults {
        status[i] = NodeStatus::FAULT;
    }
    let threads = raster.close(status.as_mut_slice(), parallelism);
    let unsafe_set = unsafe_set_par(status.as_slice(), threads);
    (status, unsafe_set)
}

/// Repair a labelling in place after a churn batch: `inj` went
/// healthy→faulty and `heal` faulty→healthy (canonical indices, disjoint,
/// duplicate-free). Afterwards `status` and `unsafe_set` equal a fresh
/// [`label`] of the churned faults. Returns the indices whose status
/// changed, sorted ascending.
pub(crate) fn repair<S: Lattice>(
    space: S,
    policy: BorderPolicy,
    status: &mut NodeGrid<NodeStatus>,
    unsafe_set: &mut NodeSet,
    inj: &[usize],
    heal: &[usize],
    parallelism: Parallelism,
) -> Vec<usize> {
    if inj.is_empty() && heal.is_empty() {
        return Vec::new();
    }
    let raster = Raster::new(space, policy);
    let s = status.as_mut_slice();
    let mut changed = if (inj.len() + heal.len()) * BULK_REPAIR_FANOUT >= s.len() {
        raster.repair_bulk(s, inj, heal, parallelism)
    } else {
        raster.repair_worklist(s, inj, heal)
    };
    changed.sort_unstable();
    for &i in &changed {
        if s[i].is_unsafe() {
            unsafe_set.insert(i);
        } else {
            unsafe_set.remove(i);
        }
    }
    changed
}

/// Whether `st` blocks the forward (useless) closure when `FWD`, the
/// backward (can't-reach) closure otherwise.
#[inline(always)]
fn blocks<const FWD: bool>(st: NodeStatus) -> bool {
    if FWD {
        st.blocks_forward()
    } else {
        st.blocks_backward()
    }
}

/// The coordinate one step from `c` along an axis of extent `n`, toward
/// `+` when `up`: wrapped on a torus, `None` past the mesh border.
#[inline(always)]
fn step(c: usize, n: usize, up: bool, wraps: bool) -> Option<usize> {
    if up {
        if c + 1 < n {
            Some(c + 1)
        } else {
            wraps.then_some(0)
        }
    } else if c > 0 {
        Some(c - 1)
    } else {
        wraps.then(|| n - 1)
    }
}

/// The raster geometry and rule constants of one labelling.
#[derive(Clone, Copy)]
struct Raster<S> {
    space: PhantomData<fn() -> S>,
    nx: usize,
    ny: usize,
    nz: usize,
    plane: usize,
    wraps: bool,
    /// What an off-mesh neighbor reads as (never read on a torus).
    border_blocks: bool,
}

impl<S: Lattice> Raster<S> {
    fn new(space: S, policy: BorderPolicy) -> Self {
        let (nx, ny, nz) = space.dims();
        Raster {
            space: PhantomData,
            nx,
            ny,
            nz,
            plane: nx * ny,
            wraps: space.wraps(),
            border_blocks: matches!(policy, BorderPolicy::BorderBlocked),
        }
    }

    fn len(&self) -> usize {
        self.plane * self.nz
    }

    /// Run both closures over `s` to the least fixpoint: a tiled wavefront
    /// over plane bands under `parallelism`, or a single band when the
    /// budget is one thread, the raster is small, or there are not two
    /// bands to split. Returns the thread count used.
    fn close(&self, s: &mut [NodeStatus], parallelism: Parallelism) -> usize {
        let mut threads = parallelism.resolve();
        let mut bands = par::bands(self.nz, threads * TILES_PER_THREAD);
        if threads <= 1 || s.len() < PAR_MIN_NODES || bands.len() < 2 {
            (bands, threads) = (par::bands(self.nz, 1), 1);
        }
        let (plane, wraps) = (self.plane, self.wraps);
        wavefront(s, plane, &bands, threads, wraps, SweepDir::Decreasing, {
            |band: &mut [NodeStatus], halo: Option<&[NodeStatus]>| {
                self.sweep_band::<true>(band, halo)
            }
        });
        wavefront(s, plane, &bands, threads, wraps, SweepDir::Increasing, {
            |band: &mut [NodeStatus], halo: Option<&[NodeStatus]>| {
                self.sweep_band::<false>(band, halo)
            }
        });
        threads
    }

    /// One band's sweep of the `FWD` closure to the band-local fixpoint, in
    /// dependency order: decreasing `(z, y, x)` for useless, increasing for
    /// can't-reach. `halo` is the frozen plane the band's edge plane reads
    /// along `z` (`None` only on the mesh border, where the border policy
    /// applies). The `x`/`y` reads, wrapped or not, never leave the band, so
    /// on a torus the loop-until-quiescent resolves their rings locally; on
    /// a mesh one pass suffices. Returns whether the band's dependent-facing
    /// edge plane (first for useless, last for can't-reach) gained a label.
    fn sweep_band<const FWD: bool>(
        &self,
        band: &mut [NodeStatus],
        halo: Option<&[NodeStatus]>,
    ) -> bool {
        let Raster {
            nx,
            ny,
            plane,
            wraps,
            border_blocks,
            ..
        } = *self;
        let planes = band.len() / plane;
        let edge = if FWD { 0 } else { planes - 1 };
        // Visiting order: dependencies first.
        let order = move |n: usize| (0..n).map(move |k| if FWD { n - 1 - k } else { k });
        let blocked = |st: Option<NodeStatus>| st.map_or(border_blocks, blocks::<FWD>);
        let mut edge_changed = false;
        loop {
            let mut changed = false;
            for z in order(planes) {
                for y in order(ny) {
                    let row = z * plane + y * nx;
                    for x in order(nx) {
                        let i = row + x;
                        if blocks::<FWD>(band[i]) {
                            continue;
                        }
                        let bx = blocked(step(x, nx, FWD, wraps).map(|x2| band[row + x2]));
                        let by = !S::D3
                            || blocked(
                                step(y, ny, FWD, wraps).map(|y2| band[i - y * nx + y2 * nx]),
                            );
                        let bz = match step(z, planes, FWD, false) {
                            Some(z2) => blocks::<FWD>(band[i - z * plane + z2 * plane]),
                            None => blocked(halo.map(|h| h[y * nx + x])),
                        };
                        if bx && by && bz {
                            if FWD {
                                band[i].mark_useless();
                            } else {
                                band[i].mark_cant_reach();
                            }
                            changed = true;
                            edge_changed |= z == edge;
                        }
                    }
                }
            }
            if !(wraps && changed) {
                return edge_changed;
            }
        }
    }

    /// Call `f` with the neighbor of `i` one step toward `+` (when `up`) or
    /// `-` along each axis: `Some(index)`, or `None` past the mesh border.
    #[inline(always)]
    fn for_axis_neighbors(&self, i: usize, up: bool, mut f: impl FnMut(Option<usize>)) {
        let Raster {
            nx,
            ny,
            nz,
            plane,
            wraps,
            ..
        } = *self;
        let x = i % nx;
        let (y, z) = if S::D3 {
            ((i / nx) % ny, i / plane)
        } else {
            (0, i / nx)
        };
        f(step(x, nx, up, wraps).map(|x2| i - x + x2));
        if S::D3 {
            f(step(y, ny, up, wraps).map(|y2| i - y * nx + y2 * nx));
        }
        f(step(z, nz, up, wraps).map(|z2| i - z * plane + z2 * plane));
    }

    /// Whether the `FWD` closure's rule fires at `i` under the current `s`.
    #[inline(always)]
    fn fires<const FWD: bool>(&self, s: &[NodeStatus], i: usize) -> bool {
        let mut all = true;
        self.for_axis_neighbors(i, FWD, |j| {
            all &= j.map_or(self.border_blocks, |j| blocks::<FWD>(s[j]));
        });
        all
    }

    /// The readers of `i` in the `FWD` closure — the nodes whose rule input
    /// includes `i`, one step the other way along each axis.
    #[inline(always)]
    fn for_readers<const FWD: bool>(&self, i: usize, mut f: impl FnMut(usize)) {
        self.for_axis_neighbors(i, !FWD, |j| {
            if let Some(j) = j {
                f(j);
            }
        });
    }

    /// Node-granular repair tier. Returns the changed indices, unsorted.
    fn repair_worklist(&self, s: &mut [NodeStatus], inj: &[usize], heal: &[usize]) -> Vec<usize> {
        // `(index, status at first touch)`: every mutation below pushes the
        // node's pre-mutation status first, so after a stable sort the first
        // entry per index holds the true pre-churn status and the rest are
        // intermediate states the dedup drops.
        let mut touched: Vec<(usize, NodeStatus)> =
            heal.iter().chain(inj).map(|&i| (i, s[i])).collect();
        flip_faults(s, inj, heal);
        let mut scratch = (Vec::new(), Vec::new());
        self.reclose::<true>(s, inj, heal, &mut touched, &mut scratch);
        self.reclose::<false>(s, inj, heal, &mut touched, &mut scratch);
        touched.sort_by_key(|&(i, _)| i);
        touched.dedup_by_key(|&mut (i, _)| i);
        touched
            .into_iter()
            .filter(|&(i, old)| s[i] != old)
            .map(|(i, _)| i)
            .collect()
    }

    /// Re-close the `FWD` closure after the churn: retract the labelled
    /// reader cone of every healed node (clearing doubles as the visited
    /// mark), then re-propagate from the cleared nodes, the healed nodes
    /// themselves, and the readers of injected nodes. Injection is monotone
    /// (a faulty node still blocks both closures), so it never needs
    /// retraction.
    fn reclose<const FWD: bool>(
        &self,
        s: &mut [NodeStatus],
        inj: &[usize],
        heal: &[usize],
        touched: &mut Vec<(usize, NodeStatus)>,
        (stack, work): &mut (Vec<usize>, Vec<usize>),
    ) {
        let labelled = |st: NodeStatus| {
            if FWD {
                st.is_useless()
            } else {
                st.is_cant_reach()
            }
        };
        debug_assert!(stack.is_empty() && work.is_empty());
        if !(FWD && mutation::skip_heal_retraction()) {
            stack.extend_from_slice(heal);
            while let Some(i) = stack.pop() {
                self.for_readers::<FWD>(i, |j| {
                    if labelled(s[j]) {
                        touched.push((j, s[j]));
                        if FWD {
                            s[j].clear_useless();
                        } else {
                            s[j].clear_cant_reach();
                        }
                        work.push(j);
                        stack.push(j);
                    }
                });
            }
        }
        work.extend_from_slice(heal);
        for &i in inj {
            self.for_readers::<FWD>(i, |j| work.push(j));
        }
        while let Some(i) = work.pop() {
            if blocks::<FWD>(s[i]) || !self.fires::<FWD>(s, i) {
                continue;
            }
            touched.push((i, s[i]));
            if FWD {
                s[i].mark_useless();
            } else {
                s[i].mark_cant_reach();
            }
            self.for_readers::<FWD>(i, |j| work.push(j));
        }
    }

    /// Bulk repair tier: reset every label bit and rerun the closures over
    /// the whole raster through [`Raster::close`]. The changed list comes
    /// from diffing a pre-churn snapshot.
    fn repair_bulk(
        &self,
        s: &mut [NodeStatus],
        inj: &[usize],
        heal: &[usize],
        parallelism: Parallelism,
    ) -> Vec<usize> {
        let snapshot = s.to_vec();
        flip_faults(s, inj, heal);
        for st in s.iter_mut() {
            *st = if st.is_faulty() {
                NodeStatus::FAULT
            } else {
                NodeStatus::SAFE
            };
        }
        self.close(s, parallelism);
        snapshot
            .iter()
            .enumerate()
            .filter(|&(i, &old)| s[i] != old)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Apply a churn batch's fault flips: `heal` nodes become safe, `inj`
/// nodes faulty.
fn flip_faults(s: &mut [NodeStatus], inj: &[usize], heal: &[usize]) {
    for &i in heal {
        debug_assert!(s[i].is_faulty(), "healed node was not faulty");
        s[i] = NodeStatus::SAFE;
    }
    for &i in inj {
        debug_assert!(!s[i].is_faulty(), "injected node was already faulty");
        s[i] = NodeStatus::FAULT;
    }
}

/// Test-only fault injection for the mutation-style negative tests: prove
/// the churn equivalence gates actually bite by disabling one invalidation
/// path and watching them fail (see `crate::incremental` unit tests).
pub(crate) mod mutation {
    #[cfg(test)]
    thread_local! {
        /// When set on the calling thread, the worklist repair skips the
        /// heal-retraction flood of the useless closure — exactly the
        /// silent-staleness bug the equivalence battery must catch.
        pub static SKIP_HEAL_RETRACTION: std::cell::Cell<bool> =
            const { std::cell::Cell::new(false) };
    }

    #[inline(always)]
    pub(super) fn skip_heal_retraction() -> bool {
        #[cfg(test)]
        return SKIP_HEAL_RETRACTION.with(|c| c.get());
        #[cfg(not(test))]
        false
    }
}
