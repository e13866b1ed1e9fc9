//! Cuboid faulty blocks — the classical 3-D baseline model.
//!
//! The 3-D generalization of the rectangular block model (Boppana–Chalasani
//! style, as used by the routing literature the paper compares against): a
//! healthy node is *disabled* if it has **two or more** faulty-or-disabled
//! neighbors. The closure is iterated together with cuboid completion
//! (components widen to bounding boxes, intersecting boxes merge, boxes are
//! filled) until the disabled set is a disjoint union of full cuboids.
//!
//! The closure runs 64 nodes per step on the words of the disabled bitset:
//! a dirty-word worklist for the rule, union-find over the x-runs of each
//! row for the components, and range masks for the fill (see
//! `block_closure`, shared with [`crate::rfb2`]).

use mesh_topo::{Box3, Mesh3D, NodeSet, NodeSpace3, C3};

use crate::block_closure;
use crate::oracle;

/// The cuboid-faulty-block decomposition of a 3-D mesh.
///
/// Like [`crate::rfb2::FaultBlocks2`], the disabled set is a [`NodeSet`]
/// bitset over the mesh's [`NodeSpace3`], and the blocks are listed in
/// ascending linear index of their `lo` corner.
#[derive(Clone, Debug)]
pub struct FaultBlocks3 {
    space: NodeSpace3,
    disabled: NodeSet,
    /// The fault cuboids (bounding boxes of the disabled components).
    pub blocks: Vec<Box3>,
    fault_count: usize,
}

impl FaultBlocks3 {
    /// Compute the cuboid-block closure of the mesh's fault set.
    pub fn compute(mesh: &Mesh3D) -> FaultBlocks3 {
        let space = mesh.space();
        let [nx, ny, nz] = [space.nx(), space.ny(), space.nz()].map(|n| n as usize);
        let (disabled, blocks) = block_closure::close(nx, ny, nz, space.wraps(), mesh.fault_set());
        FaultBlocks3 {
            space,
            disabled,
            blocks,
            fault_count: mesh.fault_count(),
        }
    }

    /// True if `c` is inside some fault cuboid.
    #[inline]
    pub fn is_disabled(&self, c: C3) -> bool {
        self.space
            .index_checked(c)
            .is_some_and(|i| self.disabled.contains(i))
    }

    /// Healthy nodes sacrificed by the model.
    pub fn sacrificed_count(&self) -> usize {
        self.disabled.len() - self.fault_count
    }

    /// Total disabled nodes (faulty + sacrificed).
    pub fn disabled_count(&self) -> usize {
        self.disabled.len()
    }

    /// Existence of a minimal path from `s` to `d` under the cuboid model:
    /// a monotone path (after canonicalization) avoiding every disabled
    /// node. `s`, `d` are mesh coordinates.
    pub fn minimal_path_exists(&self, mesh: &Mesh3D, s: C3, d: C3) -> bool {
        self.minimal_path_exists_in(mesh, s, d, &mut oracle::Useful3::scratch())
    }

    /// [`FaultBlocks3::minimal_path_exists`] with a caller-provided scratch
    /// buffer for the reachability sweep (see [`oracle::Useful3::recompute`]).
    pub fn minimal_path_exists_in(
        &self,
        mesh: &Mesh3D,
        s: C3,
        d: C3,
        useful: &mut oracle::Useful3,
    ) -> bool {
        if self.is_disabled(s) || self.is_disabled(d) {
            return false;
        }
        let frame = mesh_topo::Frame3::for_pair(mesh, s, d);
        let (cs, cd) = (frame.to_canon(s), frame.to_canon(d));
        oracle::reachable_3d_in(cs, cd, |c| self.is_disabled(frame.from_canon(c)), useful)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_topo::coord::c3;

    fn blocks_of(faults: &[C3], k: i32) -> (Mesh3D, FaultBlocks3) {
        let mut mesh = Mesh3D::kary(k);
        for &f in faults {
            mesh.inject_fault(f);
        }
        let b = FaultBlocks3::compute(&mesh);
        (mesh, b)
    }

    #[test]
    fn single_fault_single_cell() {
        let (_, b) = blocks_of(&[c3(3, 3, 3)], 8);
        assert_eq!(b.blocks.len(), 1);
        assert_eq!(b.blocks[0].volume(), 1);
        assert_eq!(b.sacrificed_count(), 0);
    }

    #[test]
    fn diagonal_pair_merges_in_3d_blocks() {
        // Planar diagonal: the two nodes between them each see two faulty
        // neighbors -> disabled -> one 2x2x1 block.
        let (_, b) = blocks_of(&[c3(3, 3, 3), c3(4, 4, 3)], 8);
        assert_eq!(b.blocks.len(), 1);
        assert_eq!(b.blocks[0], Box3::spanning(c3(3, 3, 3), c3(4, 4, 3)));
        assert_eq!(b.sacrificed_count(), 2);
    }

    #[test]
    fn space_diagonal_stays_separate() {
        // Space diagonal (differs in all 3 coords): no node has two
        // faulty neighbors, and the two singleton boxes do not intersect.
        let (_, b) = blocks_of(&[c3(4, 4, 4), c3(5, 5, 5)], 8);
        assert_eq!(b.blocks.len(), 2);
    }

    #[test]
    fn blocks_are_filled_cuboids() {
        let (_, b) = blocks_of(&[c3(2, 2, 2), c3(3, 3, 2), c3(2, 3, 3)], 8);
        for blk in &b.blocks {
            for c in blk.iter() {
                assert!(b.is_disabled(c), "{c} in block {blk:?} not disabled");
            }
        }
        let total: u64 = b.blocks.iter().map(|bb| bb.volume()).sum();
        assert_eq!(total as usize, b.disabled_count());
    }

    #[test]
    fn rfb3_coarser_than_mcc3() {
        use crate::labelling3::Labelling3;
        use crate::status::BorderPolicy;
        use mesh_topo::Frame3;
        let (mesh, b) = blocks_of(&[c3(3, 3, 3), c3(4, 4, 3)], 8);
        let lab = Labelling3::compute(&mesh, Frame3::identity(&mesh), BorderPolicy::BorderSafe);
        // MCC: two blocked dims are not enough in 3-D -> nothing sacrificed.
        assert_eq!(lab.sacrificed_count(), 0);
        assert_eq!(b.sacrificed_count(), 2);
    }

    #[test]
    fn minimal_path_under_cuboids() {
        // A cuboid spanning the full RMP cross-section blocks.
        let mut faults = Vec::new();
        for x in 0..4 {
            for y in 0..4 {
                faults.push(c3(x, y, 2));
            }
        }
        let (mesh, b) = blocks_of(&faults, 8);
        assert!(!b.minimal_path_exists(&mesh, c3(0, 0, 0), c3(3, 3, 4)));
        assert!(b.minimal_path_exists(&mesh, c3(0, 0, 0), c3(4, 3, 4)));
    }

    #[test]
    fn endpoint_in_block_fails() {
        let (mesh, b) = blocks_of(&[c3(3, 3, 3), c3(4, 4, 3)], 8);
        assert!(b.is_disabled(c3(3, 4, 3)));
        assert!(mesh.is_healthy(c3(3, 4, 3)));
        assert!(!b.minimal_path_exists(&mesh, c3(0, 0, 0), c3(3, 4, 3)));
    }

    #[test]
    fn disjoint_blocks_stay_disjoint() {
        let (_, b) = blocks_of(&[c3(1, 1, 1), c3(6, 6, 6)], 8);
        assert_eq!(b.blocks.len(), 2);
        assert!(!b.blocks[0].intersects(&b.blocks[1]));
    }
}
