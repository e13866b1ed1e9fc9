//! The word-parallel fault-block closure behind [`crate::rfb2`] and
//! [`crate::rfb3`].
//!
//! Both block models compute the same thing: the least superset of the
//! fault set that is closed under the "two or more faulty-or-disabled
//! neighbors" rule and whose connected components are all filled boxes.
//! The 2-D model is the 3-D one with `nz = 1` (no z neighbors, never a z
//! wrap), so one kernel serves both.
//!
//! The kernel works on the 64-bit words of the disabled [`NodeSet`]
//! (linear index `(z·ny + y)·nx + x`, 64 nodes per word):
//!
//! 1. **Rule closure.** A word's six neighbor masks are the set read at
//!    offsets ±1, ±nx and ±nx·ny (funnel shifts across word boundaries),
//!    each masked at its axis edge; on a torus the edge lanes read the
//!    wrapped offset instead. "≥ 2 of 6" is carry-save counting
//!    (`two |= one & n; one |= n`). A word is re-evaluated until stable —
//!    that covers propagation inside the word — and every word that can
//!    read a changed bit is queued on a dirty-word worklist.
//! 2. **Components from x-runs.** Each row's runs of disabled bits are cut
//!    out with word scans; a union-find links runs that overlap in the
//!    rows `(y−1, z)` and `(y, z−1)` (plus the wrap rows and the
//!    `x = 0`/`x = nx−1` runs of a row on a torus), and each root carries
//!    its bounding box.
//! 3. **Merge and fill.** Intersecting boxes merge; each box is filled one
//!    range mask per row, and the readers of every changed word are queued
//!    for step 1 again.
//!
//! Every step adds only nodes that the least closed set must contain, and
//! the loop stops at a closed set, so the result is that least fixpoint
//! whatever the evaluation order. In the final pass the components are
//! disjoint filled boxes; [`close`] returns them sorted by the linear index
//! of their low corner.

use mesh_topo::{Box3, NodeSet, C3};

/// Close `faults` over an `nx × ny × nz` space (a torus if `wrap`; the z
/// axis wraps only when `nz > 1`) into its fault blocks. Returns the
/// disabled set and the blocks, ordered by the linear index of `lo`.
pub(crate) fn close(
    nx: usize,
    ny: usize,
    nz: usize,
    wrap: bool,
    faults: &NodeSet,
) -> (NodeSet, Vec<Box3>) {
    let mut k = Kernel::new(nx, ny, nz, wrap, faults);
    let mut blocks = loop {
        k.close_rule();
        let boxes = k.merged_component_boxes();
        if !k.fill(&boxes) {
            break boxes;
        }
    };
    blocks.sort_unstable_by_key(|b| (b.lo.z, b.lo.y, b.lo.x));
    (NodeSet::from_raw_words(k.len, k.words), blocks)
}

struct Kernel {
    nx: usize,
    ny: usize,
    nz: usize,
    plane: usize,
    len: usize,
    wrap: bool,
    wrap_z: bool,
    words: Vec<u64>,
    /// Lane masks of the nodes at `x = 0`, `x = nx−1`, `y = 0`, `y = ny−1`.
    x_first: Vec<u64>,
    x_last: Vec<u64>,
    y_first: Vec<u64>,
    y_last: Vec<u64>,
    /// Every offset a word reads its neighbors at.
    offsets: Vec<isize>,
    queued: Vec<bool>,
    work: Vec<usize>,
    /// Runs of disabled nodes as `[start, end)` linear ranges, row by row;
    /// the runs of row `r` are `runs[row_start[r]..row_start[r + 1]]`.
    runs: Vec<(usize, usize)>,
    row_start: Vec<usize>,
    parent: Vec<usize>,
    bbox: Vec<Box3>,
}

impl Kernel {
    fn new(nx: usize, ny: usize, nz: usize, wrap: bool, faults: &NodeSet) -> Kernel {
        let plane = nx * ny;
        let len = plane * nz;
        assert_eq!(faults.capacity(), len, "fault set does not match the space");
        let nwords = len.div_ceil(64);
        let mut x_first = vec![0u64; nwords];
        let mut x_last = vec![0u64; nwords];
        let mut y_first = vec![0u64; nwords];
        let mut y_last = vec![0u64; nwords];
        for row in 0..ny * nz {
            set_bit(&mut x_first, row * nx);
            set_bit(&mut x_last, row * nx + nx - 1);
        }
        for z in 0..nz {
            set_range(&mut y_first, z * plane, z * plane + nx);
            set_range(&mut y_last, (z + 1) * plane - nx, (z + 1) * plane);
        }
        let wrap_z = wrap && nz > 1;
        let (ox, op, ol) = (nx as isize, plane as isize, len as isize);
        let mut offsets = vec![1, -1, ox, -ox];
        if nz > 1 {
            offsets.extend([op, -op]);
        }
        if wrap {
            offsets.extend([1 - ox, ox - 1, ox - op, op - ox]);
        }
        if wrap_z {
            offsets.extend([op - ol, ol - op]);
        }
        Kernel {
            nx,
            ny,
            nz,
            plane,
            len,
            wrap,
            wrap_z,
            words: faults.words().to_vec(),
            x_first,
            x_last,
            y_first,
            y_last,
            offsets,
            queued: vec![true; nwords],
            work: (0..nwords).rev().collect(),
            runs: Vec::new(),
            row_start: Vec::new(),
            parent: Vec::new(),
            bbox: Vec::new(),
        }
    }

    /// Lanes of word `w` with at least two disabled neighbors.
    #[inline]
    fn two_or_more(&self, w: usize) -> u64 {
        let d = &self.words;
        let (nx, plane) = (self.nx as isize, self.plane as isize);
        let (xf, xl) = (self.x_first[w], self.x_last[w]);
        let (yf, yl) = (self.y_first[w], self.y_last[w]);
        let mut xp = shifted(d, w, 1) & !xl;
        let mut xm = shifted(d, w, -1) & !xf;
        let mut yp = shifted(d, w, nx) & !yl;
        let mut ym = shifted(d, w, -nx) & !yf;
        if self.wrap {
            xp |= shifted(d, w, 1 - nx) & xl;
            xm |= shifted(d, w, nx - 1) & xf;
            yp |= shifted(d, w, nx - plane) & yl;
            ym |= shifted(d, w, plane - nx) & yf;
        }
        let (mut one, mut two) = (0u64, 0u64);
        for n in [xp, xm, yp, ym] {
            two |= one & n;
            one |= n;
        }
        if self.nz > 1 {
            // Reads past either end of the space are zero, so the z
            // probes need no edge masks; the wrapped probes read only in
            // the first and last planes.
            let len = self.len as isize;
            let mut zp = shifted(d, w, plane);
            let mut zm = shifted(d, w, -plane);
            if self.wrap_z {
                zp |= shifted(d, w, plane - len);
                zm |= shifted(d, w, len - plane);
            }
            for n in [zp, zm] {
                two |= one & n;
                one |= n;
            }
        }
        two
    }

    /// Apply the rule to word `w` until it is stable; returns the new bits.
    fn settle(&mut self, w: usize) -> u64 {
        let valid = if (w + 1) * 64 > self.len {
            (1u64 << (self.len % 64)) - 1
        } else {
            !0
        };
        let mut grown = 0;
        loop {
            let new = self.two_or_more(w) & !self.words[w] & valid;
            if new == 0 {
                return grown;
            }
            self.words[w] |= new;
            grown |= new;
        }
    }

    /// Queue every word that reads a bit of `changed` (a mask of word `w`).
    fn queue_readers(&mut self, w: usize, changed: u64) {
        let lo = (w * 64 + changed.trailing_zeros() as usize) as isize;
        let hi = (w * 64 + 63 - changed.leading_zeros() as usize) as isize;
        let nwords = self.words.len() as isize;
        for &off in &self.offsets {
            let first = (lo - off).div_euclid(64).max(0);
            let last = (hi - off).div_euclid(64).min(nwords - 1);
            for r in first..=last {
                let r = r as usize;
                if !self.queued[r] {
                    self.queued[r] = true;
                    self.work.push(r);
                }
            }
        }
    }

    /// Run the rule to a fixpoint over the queued words.
    fn close_rule(&mut self) {
        while let Some(w) = self.work.pop() {
            let grown = self.settle(w);
            if grown != 0 {
                // `w` is still flagged, so it is not re-queued: it is stable.
                self.queue_readers(w, grown);
            }
            self.queued[w] = false;
        }
    }

    /// Cut the disabled set into per-row runs.
    fn scan_runs(&mut self) {
        self.runs.clear();
        self.row_start.clear();
        let mut pos = 0;
        loop {
            let s = next_one(&self.words, pos, self.len);
            if s == self.len {
                break;
            }
            let row = s / self.nx;
            while self.row_start.len() <= row {
                self.row_start.push(self.runs.len());
            }
            let e = next_zero(&self.words, s, (row + 1) * self.nx);
            self.runs.push((s, e));
            pos = e;
        }
        while self.row_start.len() <= self.ny * self.nz {
            self.row_start.push(self.runs.len());
        }
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (root, child) = (ra.min(rb), ra.max(rb));
            self.parent[child] = root;
            self.bbox[root] = self.bbox[root].union(&self.bbox[child]);
        }
    }

    /// Union the runs of row `a` with the x-overlapping runs of row `b`.
    fn link_rows(&mut self, a: usize, b: usize) {
        let (mut i, ia_end) = (self.row_start[a], self.row_start[a + 1]);
        let (mut j, jb_end) = (self.row_start[b], self.row_start[b + 1]);
        let (oa, ob) = (a * self.nx, b * self.nx);
        while i < ia_end && j < jb_end {
            let (s0, e0) = (self.runs[i].0 - oa, self.runs[i].1 - oa);
            let (s1, e1) = (self.runs[j].0 - ob, self.runs[j].1 - ob);
            if s0 < e1 && s1 < e0 {
                self.union(i, j);
            }
            if e0 <= e1 {
                i += 1;
            } else {
                j += 1;
            }
        }
    }

    /// Bounding boxes of the connected components of the disabled set,
    /// merged until pairwise disjoint.
    fn merged_component_boxes(&mut self) -> Vec<Box3> {
        self.scan_runs();
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        self.parent.clear();
        self.parent.extend(0..self.runs.len());
        self.bbox.clear();
        for &(s, e) in &self.runs {
            let row = s / nx;
            let (x0, x1) = ((s - row * nx) as i32, (e - 1 - row * nx) as i32);
            let (y, z) = ((row % ny) as i32, (row / ny) as i32);
            self.bbox.push(Box3 {
                lo: C3 { x: x0, y, z },
                hi: C3 { x: x1, y, z },
            });
        }
        for row in 0..ny * nz {
            let (y, z) = (row % ny, row / ny);
            if y > 0 {
                self.link_rows(row, row - 1);
            }
            if z > 0 {
                self.link_rows(row, row - ny);
            }
            if self.wrap {
                if y == ny - 1 {
                    self.link_rows(row, row - y);
                }
                if self.wrap_z && z == nz - 1 {
                    self.link_rows(row, y);
                }
                let (first, end) = (self.row_start[row], self.row_start[row + 1]);
                if first < end
                    && self.runs[first].0 == row * nx
                    && self.runs[end - 1].1 == (row + 1) * nx
                {
                    self.union(first, end - 1);
                }
            }
        }
        let mut boxes = Vec::new();
        for i in 0..self.runs.len() {
            if self.parent[i] == i {
                boxes.push(self.bbox[i]);
            }
        }
        merge_intersecting(&mut boxes);
        boxes
    }

    /// Disable every node of every box, queueing the readers of each word
    /// that changed. Returns true if anything changed.
    fn fill(&mut self, boxes: &[Box3]) -> bool {
        let mut changed = false;
        for b in boxes {
            for z in b.lo.z..=b.hi.z {
                for y in b.lo.y..=b.hi.y {
                    let row = (z as usize * self.ny + y as usize) * self.nx;
                    let (p, end) = (row + b.lo.x as usize, row + b.hi.x as usize + 1);
                    for (w, mask) in range_words(p, end) {
                        let new = mask & !self.words[w];
                        if new != 0 {
                            self.words[w] |= new;
                            // The ±1 readers of a changed bit include `w`.
                            self.queue_readers(w, new);
                            changed = true;
                        }
                    }
                }
            }
        }
        changed
    }
}

/// Merge intersecting boxes until they are pairwise disjoint: a sweep over
/// the boxes sorted by `lo.x`, repeated while it merges anything.
fn merge_intersecting(boxes: &mut Vec<Box3>) {
    loop {
        boxes.sort_unstable_by_key(|b| b.lo.x);
        let mut merged = false;
        let mut alive = vec![true; boxes.len()];
        for i in 0..boxes.len() {
            if !alive[i] {
                continue;
            }
            let mut j = i + 1;
            while j < boxes.len() && boxes[j].lo.x <= boxes[i].hi.x {
                if alive[j] && boxes[i].intersects(&boxes[j]) {
                    boxes[i] = boxes[i].union(&boxes[j]);
                    alive[j] = false;
                    merged = true;
                }
                j += 1;
            }
        }
        if !merged {
            return;
        }
        *boxes = boxes
            .iter()
            .zip(&alive)
            .filter(|(_, &a)| a)
            .map(|(b, _)| *b)
            .collect();
    }
}

/// Bit `b` of the result is node `64·w + b + off`; nodes outside the
/// words read as absent.
#[inline]
fn shifted(words: &[u64], w: usize, off: isize) -> u64 {
    let p = (w * 64) as isize + off;
    let (q, r) = (p.div_euclid(64), p.rem_euclid(64) as u32);
    let at = |q: isize| {
        if q >= 0 && (q as usize) < words.len() {
            words[q as usize]
        } else {
            0
        }
    };
    if r == 0 {
        at(q)
    } else {
        (at(q) >> r) | (at(q + 1) << (64 - r))
    }
}

/// The `(word, mask)` pieces of the node range `[p, end)`.
fn range_words(mut p: usize, end: usize) -> impl Iterator<Item = (usize, u64)> {
    std::iter::from_fn(move || {
        (p < end).then(|| {
            let (w, bit) = (p / 64, p % 64);
            let n = (end - p).min(64 - bit);
            p += n;
            (
                w,
                if n == 64 {
                    !0
                } else {
                    ((1u64 << n) - 1) << bit
                },
            )
        })
    })
}

fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

fn set_range(words: &mut [u64], p: usize, end: usize) {
    for (w, mask) in range_words(p, end) {
        words[w] |= mask;
    }
}

/// The first member at or after `from` and before `end`, else `end`.
fn next_one(words: &[u64], from: usize, end: usize) -> usize {
    next_where(words, from, end, false)
}

/// The first non-member at or after `from` and before `end`, else `end`.
fn next_zero(words: &[u64], from: usize, end: usize) -> usize {
    next_where(words, from, end, true)
}

fn next_where(words: &[u64], from: usize, end: usize, invert: bool) -> usize {
    if from >= end {
        return end;
    }
    let flip = if invert { !0 } else { 0 };
    let mut w = from / 64;
    let mut bits = (words[w] ^ flip) & (!0u64 << (from % 64));
    loop {
        if bits != 0 {
            return (w * 64 + bits.trailing_zeros() as usize).min(end);
        }
        w += 1;
        if w * 64 >= end {
            return end;
        }
        bits = words[w] ^ flip;
    }
}
