//! Algorithm 4 — the MCC labelling closure in 3-D meshes.
//!
//! The 3-D rules strengthen the 2-D ones: a safe node is *useless* only if
//! **all three** of its `+X`, `+Y`, `+Z` neighbors are faulty-or-useless
//! (with only two blocked the message can still escape along the third
//! positive dimension), and *can't-reach* only if all three negative
//! neighbors are faulty-or-can't-reach.
//!
//! Like the 2-D closure, this runs as two raster sweeps over a flat status
//! array on the node-state layer ([`mesh_topo::nodeset`]): the useless rule
//! depends only on strictly-larger `(z, y, x)`, so a single decreasing
//! sweep reaches the fixpoint, and the can't-reach rule is the increasing
//! mirror image. On a torus the sweeps read the wrapped neighbors and
//! iterate to the fixpoint (see [`crate::labelling2`]). The sweeps, the
//! churn repair and the unsafe-set build are the closure core shared with
//! [`crate::labelling2`], monomorphized for three axes; the tiled wavefront
//! bands z-planes.

use mesh_topo::{Frame3, Mesh3D, NodeGrid, NodeSet, NodeSpace3, Parallelism, C3};

use crate::closure;
use crate::status::{BorderPolicy, NodeStatus};

/// The fixpoint of Algorithm 4 for one octant orientation of a 3-D mesh.
///
/// Coordinates exposed by this type are **canonical** (post-reflection).
#[derive(Clone, Debug)]
pub struct Labelling3 {
    frame: Frame3,
    policy: BorderPolicy,
    space: NodeSpace3,
    status: NodeGrid<NodeStatus>,
    unsafe_set: NodeSet,
}

impl Labelling3 {
    /// Run the labelling closure for `mesh` under `frame`: the one-band
    /// case of [`Labelling3::compute_par`].
    pub fn compute(mesh: &Mesh3D, frame: Frame3, policy: BorderPolicy) -> Labelling3 {
        Labelling3::compute_par(mesh, frame, policy, Parallelism::SEQ)
    }

    /// Run the labelling closure with a thread budget: the raster sweeps
    /// run as a tiled wavefront over contiguous **z-plane** bands (see
    /// `crate::par` and DESIGN.md §11), **bit-for-bit equal** for every
    /// thread count. The `±X` and `±Y` dependencies (including their torus
    /// wraps) stay inside a band's planes; only `±Z` crosses bands, through
    /// the one frozen halo plane. Runs a single band when the budget
    /// resolves to one thread, the mesh is small, or there are not at
    /// least two bands.
    pub fn compute_par(
        mesh: &Mesh3D,
        frame: Frame3,
        policy: BorderPolicy,
        parallelism: Parallelism,
    ) -> Labelling3 {
        let space = mesh.space();
        let faults = mesh
            .faults()
            .iter()
            .map(|&f| space.index(frame.to_canon(f)));
        let (status, unsafe_set) = closure::label(space, policy, faults, parallelism);
        Labelling3 {
            frame,
            policy,
            space,
            status,
            unsafe_set,
        }
    }

    /// Run the labelling for the pair `(s, d)` in mesh coordinates.
    pub fn for_pair(mesh: &Mesh3D, s: C3, d: C3, policy: BorderPolicy) -> Labelling3 {
        Labelling3::compute(mesh, Frame3::for_pair(mesh, s, d), policy)
    }

    /// The octant frame this labelling was computed under.
    #[inline]
    pub fn frame(&self) -> Frame3 {
        self.frame
    }

    /// The border policy used.
    #[inline]
    pub fn policy(&self) -> BorderPolicy {
        self.policy
    }

    /// The linear index space of the underlying mesh (canonical coords).
    #[inline]
    pub fn space(&self) -> NodeSpace3 {
        self.space
    }

    /// Status of the node at **canonical** coordinate `c`.
    ///
    /// # Panics
    /// If `c` is outside the mesh.
    #[inline]
    pub fn status(&self, c: C3) -> NodeStatus {
        self.status[self.space.index(c)]
    }

    /// Status at canonical `c`, or `None` if outside the mesh.
    #[inline]
    pub fn status_get(&self, c: C3) -> Option<NodeStatus> {
        self.space.index_checked(c).map(|i| self.status[i])
    }

    /// True if canonical `c` is inside the mesh and unsafe.
    #[inline]
    pub fn is_unsafe(&self, c: C3) -> bool {
        self.space
            .index_checked(c)
            .is_some_and(|i| self.unsafe_set.contains(i))
    }

    /// True if canonical `c` is inside the mesh and safe.
    #[inline]
    pub fn is_safe(&self, c: C3) -> bool {
        self.space
            .index_checked(c)
            .is_some_and(|i| !self.unsafe_set.contains(i))
    }

    /// Status of the node at **mesh** coordinate `c`.
    #[inline]
    pub fn status_mesh(&self, c: C3) -> NodeStatus {
        self.status[self.space.index(self.frame.to_canon(c))]
    }

    /// The unsafe nodes (faulty + labelled) as a bitset over
    /// [`Labelling3::space`] — the flat input of component discovery.
    #[inline]
    pub fn unsafe_set(&self) -> &NodeSet {
        &self.unsafe_set
    }

    /// Total number of unsafe nodes (faulty + labelled).
    #[inline]
    pub fn unsafe_count(&self) -> usize {
        self.unsafe_set.len()
    }

    /// Number of healthy nodes labelled unsafe.
    pub fn sacrificed_count(&self) -> usize {
        self.unsafe_set
            .iter()
            .filter(|&i| !self.status[i].is_faulty())
            .count()
    }

    /// Extent along X.
    #[inline]
    pub fn nx(&self) -> i32 {
        self.space.nx()
    }

    /// Extent along Y.
    #[inline]
    pub fn ny(&self) -> i32 {
        self.space.ny()
    }

    /// Extent along Z.
    #[inline]
    pub fn nz(&self) -> i32 {
        self.space.nz()
    }

    /// Iterate `(canonical coordinate, status)` for all nodes.
    pub fn iter(&self) -> impl Iterator<Item = (C3, NodeStatus)> + '_ {
        self.space
            .coords()
            .zip(self.status.as_slice().iter().copied())
    }

    /// Incrementally repair this labelling after a fault-churn batch —
    /// the 3-D twin of [`crate::Labelling2::repair`], with the same
    /// contract: `injected`/`healed` in mesh coordinates, disjoint and
    /// duplicate-free; afterwards statuses and the unsafe set are
    /// bit-for-bit equal to a from-scratch [`Labelling3::compute`] on the
    /// churned mesh; returns the changed canonical indices, sorted
    /// ascending. Small batches run the node-granular worklist, batches
    /// over `nodes /` [`crate::labelling2::BULK_REPAIR_FANOUT`] fall back
    /// to a full relabel under `parallelism`.
    pub fn repair(
        &mut self,
        injected: &[C3],
        healed: &[C3],
        parallelism: Parallelism,
    ) -> Vec<usize> {
        let (space, frame) = (self.space, self.frame);
        let index = |c: &C3| space.index(frame.to_canon(*c));
        let inj: Vec<usize> = injected.iter().map(index).collect();
        let heal: Vec<usize> = healed.iter().map(index).collect();
        closure::repair(
            space,
            self.policy,
            &mut self.status,
            &mut self.unsafe_set,
            &inj,
            &heal,
            parallelism,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_topo::coord::c3;

    fn lab(mesh: &Mesh3D) -> Labelling3 {
        Labelling3::compute(mesh, Frame3::identity(mesh), BorderPolicy::BorderSafe)
    }

    /// The exact fault set of Figure 5 of the paper.
    fn figure5_mesh() -> Mesh3D {
        let mut mesh = Mesh3D::kary(10);
        for c in [
            c3(5, 5, 6),
            c3(6, 5, 5),
            c3(5, 6, 5),
            c3(6, 7, 5),
            c3(7, 6, 5),
            c3(5, 4, 7),
            c3(4, 5, 7),
            c3(7, 8, 4),
        ] {
            mesh.inject_fault(c);
        }
        mesh
    }

    #[test]
    fn figure5_labelling_matches_paper() {
        // The paper states: "(5,5,5) becomes useless and (5,5,7) becomes
        // can't-reach in our labelling process."
        let l = lab(&figure5_mesh());
        assert!(
            l.status(c3(5, 5, 5)).is_useless(),
            "(5,5,5) must be useless"
        );
        assert!(
            l.status(c3(5, 5, 7)).is_cant_reach(),
            "(5,5,7) must be can't-reach"
        );
        // And exactly those two healthy nodes are sacrificed.
        assert_eq!(l.sacrificed_count(), 2);
        assert_eq!(l.unsafe_count(), 10);
    }

    #[test]
    fn figure5_other_neighbors_stay_safe() {
        let l = lab(&figure5_mesh());
        // The isolated fault (7,8,4) labels nothing around it.
        for c in [
            c3(6, 8, 4),
            c3(7, 7, 4),
            c3(7, 8, 3),
            c3(7, 8, 5),
            c3(8, 8, 4),
        ] {
            assert!(l.status(c).is_safe(), "{c} should stay safe");
        }
        // The hole (6,6,5) of the section z=5 stays safe (non-convex section).
        assert!(l.status(c3(6, 6, 5)).is_safe());
    }

    #[test]
    fn two_blocked_dims_are_not_enough_in_3d() {
        // +X and +Y blocked, +Z open -> still safe (escape along +Z).
        let mut mesh = Mesh3D::kary(8);
        mesh.inject_fault(c3(5, 4, 4));
        mesh.inject_fault(c3(4, 5, 4));
        let l = lab(&mesh);
        assert!(l.status(c3(4, 4, 4)).is_safe());
        assert_eq!(l.sacrificed_count(), 0);
    }

    #[test]
    fn three_blocked_dims_label_useless() {
        let mut mesh = Mesh3D::kary(8);
        mesh.inject_fault(c3(5, 4, 4));
        mesh.inject_fault(c3(4, 5, 4));
        mesh.inject_fault(c3(4, 4, 5));
        let l = lab(&mesh);
        assert!(l.status(c3(4, 4, 4)).is_useless());
        // and the symmetric pocket on the other side stays safe
        assert!(l.status(c3(5, 5, 5)).is_safe());
    }

    #[test]
    fn cant_reach_in_3d() {
        let mut mesh = Mesh3D::kary(8);
        mesh.inject_fault(c3(3, 4, 4));
        mesh.inject_fault(c3(4, 3, 4));
        mesh.inject_fault(c3(4, 4, 3));
        let l = lab(&mesh);
        assert!(l.status(c3(4, 4, 4)).is_cant_reach());
        assert_eq!(l.sacrificed_count(), 1);
    }

    #[test]
    fn torus_pocket_wraps_in_all_three_dimensions() {
        // The corner node (4,4,4) of a 5-ary torus is sealed by its three
        // *wrapped* positive neighbors; on the mesh the BorderSafe policy
        // keeps it safe.
        let faults = [c3(0, 4, 4), c3(4, 0, 4), c3(4, 4, 0)];
        let mut torus = Mesh3D::torus_kary(5);
        for c in faults {
            torus.inject_fault(c);
        }
        let lt = Labelling3::compute(&torus, Frame3::identity(&torus), BorderPolicy::BorderSafe);
        assert!(lt.status(c3(4, 4, 4)).is_useless());
        assert_eq!(lt.sacrificed_count(), 1);

        let mut mesh = Mesh3D::kary(5);
        for c in faults {
            mesh.inject_fault(c);
        }
        let lm = lab(&mesh);
        assert!(lm.status(c3(4, 4, 4)).is_safe());
        assert_eq!(lm.sacrificed_count(), 0);
    }

    #[test]
    fn torus_label_chain_crosses_the_z_seam() {
        // On a 6-ary torus, (2,2,0) is useless behind three faults, and
        // (2,2,5) and then (2,2,4) become useless only through their
        // wrapped `+Z` neighbor across the z seam. The one-band sweep
        // visits z = 5 before z = 0 and reads the seam through its frozen
        // halo, so it must re-enqueue itself to see that label. The
        // can't-reach chain (4,4,5) → (4,4,0) → (4,4,1) is the mirror
        // image in the increasing sweep.
        let mut torus = Mesh3D::torus_kary(6);
        for c in [
            c3(3, 2, 0),
            c3(2, 3, 0),
            c3(2, 2, 1),
            c3(3, 2, 5),
            c3(2, 3, 5),
            c3(3, 2, 4),
            c3(2, 3, 4),
            c3(3, 4, 5),
            c3(4, 3, 5),
            c3(4, 4, 4),
            c3(3, 4, 0),
            c3(4, 3, 0),
            c3(3, 4, 1),
            c3(4, 3, 1),
        ] {
            torus.inject_fault(c);
        }
        let l = lab(&torus);
        for c in [c3(2, 2, 0), c3(2, 2, 5), c3(2, 2, 4)] {
            assert!(l.status(c).is_useless(), "{c} must be useless");
        }
        for c in [c3(4, 4, 5), c3(4, 4, 0), c3(4, 4, 1)] {
            assert!(l.status(c).is_cant_reach(), "{c} must be can't-reach");
        }
        // And the fixpoint is closed: no rule fires anywhere.
        let space = torus.space();
        let blocked = |c: C3, d: mesh_topo::Dir3, fwd: bool| {
            let st = l.status(space.wrap_coord(c.step(d)));
            if fwd {
                st.blocks_forward()
            } else {
                st.blocks_backward()
            }
        };
        use mesh_topo::Dir3::{Xm, Xp, Ym, Yp, Zm, Zp};
        for c in torus.nodes() {
            let st = l.status(c);
            assert!(
                st.blocks_forward() || ![Xp, Yp, Zp].iter().all(|&d| blocked(c, d, true)),
                "{c} missed useless"
            );
            assert!(
                st.blocks_backward() || ![Xm, Ym, Zm].iter().all(|&d| blocked(c, d, false)),
                "{c} missed can't-reach"
            );
        }
    }

    #[test]
    fn fault_free_all_safe() {
        let mesh = Mesh3D::kary(6);
        let l = lab(&mesh);
        assert_eq!(l.unsafe_count(), 0);
    }

    #[test]
    fn octant_reflection_changes_labelling() {
        // A useless pocket for the identity octant is a can't-reach pocket
        // for the fully flipped octant.
        let mut mesh = Mesh3D::kary(8);
        mesh.inject_fault(c3(5, 4, 4));
        mesh.inject_fault(c3(4, 5, 4));
        mesh.inject_fault(c3(4, 4, 5));
        let f = Frame3::for_pair(&mesh, c3(7, 7, 7), c3(0, 0, 0));
        let l = Labelling3::compute(&mesh, f, BorderPolicy::BorderSafe);
        assert!(l.status_mesh(c3(4, 4, 4)).is_cant_reach());
    }

    #[test]
    fn repair_matches_recompute_on_random_churn_3d() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for torus in [false, true] {
            for policy in [BorderPolicy::BorderSafe, BorderPolicy::BorderBlocked] {
                let k = 6;
                let mut mesh = if torus {
                    Mesh3D::torus_kary(k)
                } else {
                    Mesh3D::kary(k)
                };
                let mut rng = SmallRng::seed_from_u64(torus as u64 * 2 + 3);
                for _ in 0..20 {
                    mesh.inject_fault(c3(
                        rng.gen_range(0..k),
                        rng.gen_range(0..k),
                        rng.gen_range(0..k),
                    ));
                }
                let mut l = Labelling3::compute(&mesh, Frame3::identity(&mesh), policy);
                for _ in 0..30 {
                    let mut injected = Vec::new();
                    let mut healed = Vec::new();
                    for _ in 0..rng.gen_range(0..4) {
                        let c = c3(
                            rng.gen_range(0..k),
                            rng.gen_range(0..k),
                            rng.gen_range(0..k),
                        );
                        if mesh.is_healthy(c) && !injected.contains(&c) {
                            injected.push(c);
                        }
                    }
                    let faults = mesh.faults().to_vec();
                    for _ in 0..rng.gen_range(0..4) {
                        let c = faults[rng.gen_range(0..faults.len())];
                        if !healed.contains(&c) {
                            healed.push(c);
                        }
                    }
                    for &c in &injected {
                        assert!(mesh.inject_fault(c));
                    }
                    for &c in &healed {
                        assert!(mesh.heal_fault(c));
                    }
                    l.repair(&injected, &healed, Parallelism::SEQ);
                    let fresh = Labelling3::compute(&mesh, l.frame(), policy);
                    for ((c, a), (_, b)) in l.iter().zip(fresh.iter()) {
                        assert_eq!(a, b, "status diverged at {c}");
                    }
                    assert_eq!(l.unsafe_set(), fresh.unsafe_set());
                }
            }
        }
    }

    #[test]
    fn status_mesh_roundtrip() {
        let mut mesh = Mesh3D::kary(5);
        mesh.inject_fault(c3(2, 2, 2));
        for f in Frame3::all(&mesh) {
            let l = Labelling3::compute(&mesh, f, BorderPolicy::BorderSafe);
            for c in mesh.nodes() {
                assert_eq!(l.status_mesh(c), l.status(f.to_canon(c)));
            }
        }
    }
}
