//! Test helpers shared by the fault-model integration batteries.

use fault_model::NodeStatus;
use mesh_topo::{Dir2, Dir3, Mesh2D, Mesh3D, C2, C3};

/// Definitional worklist closure with wrapped neighbors: Algorithm 1's
/// rules re-applied over every node until none fires, statuses indexed
/// like `mesh.space()` (identity frame; on a mesh an off-border neighbor
/// does not exist, so only tori are meaningful inputs).
pub fn worklist_closure_2d(mesh: &Mesh2D) -> Vec<NodeStatus> {
    let space = mesh.space();
    let mut st = vec![NodeStatus::SAFE; space.len()];
    for &f in mesh.faults() {
        st[space.index(f)] = NodeStatus::FAULT;
    }
    let nbr = |c: C2, d: Dir2| space.index(space.wrap_coord(c.step(d)));
    loop {
        let mut changed = false;
        for c in mesh.nodes() {
            let i = space.index(c);
            if !st[i].blocks_forward()
                && st[nbr(c, Dir2::Xp)].blocks_forward()
                && st[nbr(c, Dir2::Yp)].blocks_forward()
            {
                st[i].mark_useless();
                changed = true;
            }
            if !st[i].blocks_backward()
                && st[nbr(c, Dir2::Xm)].blocks_backward()
                && st[nbr(c, Dir2::Ym)].blocks_backward()
            {
                st[i].mark_cant_reach();
                changed = true;
            }
        }
        if !changed {
            return st;
        }
    }
}

/// 3-D twin of [`worklist_closure_2d`].
pub fn worklist_closure_3d(mesh: &Mesh3D) -> Vec<NodeStatus> {
    let space = mesh.space();
    let mut st = vec![NodeStatus::SAFE; space.len()];
    for &f in mesh.faults() {
        st[space.index(f)] = NodeStatus::FAULT;
    }
    let nbr = |c: C3, d: Dir3| space.index(space.wrap_coord(c.step(d)));
    loop {
        let mut changed = false;
        for c in mesh.nodes() {
            let i = space.index(c);
            if !st[i].blocks_forward()
                && st[nbr(c, Dir3::Xp)].blocks_forward()
                && st[nbr(c, Dir3::Yp)].blocks_forward()
                && st[nbr(c, Dir3::Zp)].blocks_forward()
            {
                st[i].mark_useless();
                changed = true;
            }
            if !st[i].blocks_backward()
                && st[nbr(c, Dir3::Xm)].blocks_backward()
                && st[nbr(c, Dir3::Ym)].blocks_backward()
                && st[nbr(c, Dir3::Zm)].blocks_backward()
            {
                st[i].mark_cant_reach();
                changed = true;
            }
        }
        if !changed {
            return st;
        }
    }
}
