//! Tiled wavefront execution of the labelling sweeps (crate-internal).
//!
//! The labelling closures are monotone fixpoints: labels are only ever
//! *added*, and a rule that fires under an under-approximation of the
//! final labels also fires at the fixpoint. Any chaotic iteration that
//! (a) only marks justified labels and (b) terminates with no applicable
//! rule therefore converges to the **unique least fixpoint**. That
//! argument is what makes the schedule here bit-for-bit equal for every
//! band count (see DESIGN.md §11). The closure core (`crate::closure`)
//! drives every labelling, sequential ones included, through
//! [`wavefront`]: the sequential closure is the one-band case, which runs
//! on the calling thread and, on a torus, re-enqueues its own band while
//! labels cross the wrap seam.
//!
//! The schedule is a bulk-synchronous wavefront over contiguous row
//! (2-D) / plane (3-D) tiles:
//!
//! 1. every tile is enqueued for round one;
//! 2. each enqueued tile freezes a one-row *halo* copy of the neighboring
//!    tile's boundary row, then runs its local sweep to the tile-local
//!    fixpoint on its own scoped thread (tiles are disjoint `&mut` slices
//!    of the status array — no sharing, no atomics);
//! 3. a tile whose *dependency-facing* boundary row gained labels
//!    re-enqueues the one tile that reads that row; rounds repeat until
//!    no tile is enqueued.
//!
//! Termination leaves no applicable rule anywhere (tile-local fixpoints
//! plus re-enqueue on every cross-tile change), so the result is the
//! least fixpoint regardless of tile count, thread count or interleaving.

use std::ops::Range;

use mesh_topo::NodeSet;

use crate::status::NodeStatus;

/// Raster direction of a labelling sweep.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum SweepDir {
    /// Decreasing `(y, x)` / `(z, y, x)` — the useless closure. A tile's
    /// dependency points *up*: it reads the first row of the tile above,
    /// and its own first row is read by the tile below.
    Decreasing,
    /// Increasing order — the can't-reach closure, the mirror image.
    Increasing,
}

/// One unit of wavefront work: `(band index, band slice, frozen halo)`.
type Tile<'a, 'h> = (usize, &'a mut [NodeStatus], Option<&'h [NodeStatus]>);

/// Split `s` (a `rows × row_len` raster) into per-band `&mut` slices.
fn band_slices<'a>(
    mut s: &'a mut [NodeStatus],
    row_len: usize,
    bands: &[Range<usize>],
) -> Vec<&'a mut [NodeStatus]> {
    let mut out = Vec::with_capacity(bands.len());
    for b in bands {
        let (head, tail) = s.split_at_mut(b.len() * row_len);
        out.push(head);
        s = tail;
    }
    debug_assert!(s.is_empty(), "bands must cover the raster exactly");
    out
}

/// Run one labelling phase over `s` as a tiled wavefront until quiescent.
///
/// `bands` partitions the `nrows` rows (2-D) or planes (3-D, with
/// `row_len = nx·ny`) into contiguous tiles. `sweep` runs one tile's
/// local sweep — `(tile slice, frozen halo row or `None` for the mesh
/// border)` — to the tile-local fixpoint and returns whether the tile's
/// dependency-facing boundary row (first row for [`SweepDir::Decreasing`],
/// last for [`SweepDir::Increasing`]) gained a label.
pub(crate) fn wavefront(
    s: &mut [NodeStatus],
    row_len: usize,
    bands: &[Range<usize>],
    threads: usize,
    wraps: bool,
    dir: SweepDir,
    sweep: impl Fn(&mut [NodeStatus], Option<&[NodeStatus]>) -> bool + Sync,
) {
    let nb = bands.len();
    let nrows = bands.last().map_or(0, |b| b.end);
    let mut dirty = vec![true; nb];
    let mut next_dirty = vec![false; nb];
    loop {
        let active = dirty.iter().filter(|&&d| d).count();
        if active == 0 {
            break;
        }
        // Freeze each enqueued tile's halo row before any tile runs, so
        // every tile of a round reads the same pre-round boundary state.
        let halos: Vec<Option<Vec<NodeStatus>>> = (0..nb)
            .map(|k| {
                if !dirty[k] {
                    return None;
                }
                let r = match dir {
                    SweepDir::Decreasing => {
                        let r = bands[k].end;
                        (r < nrows).then_some(r).or_else(|| wraps.then_some(0))
                    }
                    SweepDir::Increasing => {
                        let r = bands[k].start;
                        r.checked_sub(1).or_else(|| wraps.then_some(nrows - 1))
                    }
                };
                r.map(|r| s[r * row_len..(r + 1) * row_len].to_vec())
            })
            .collect();
        // Deal the enqueued tiles round-robin onto the worker threads.
        let workers = threads.min(active).max(1);
        let mut buckets: Vec<Vec<Tile<'_, '_>>> = (0..workers).map(|_| Vec::new()).collect();
        for (slot, (k, slice)) in band_slices(s, row_len, bands)
            .into_iter()
            .enumerate()
            .filter(|&(k, _)| dirty[k])
            .enumerate()
        {
            buckets[slot % workers].push((k, slice, halos[k].as_deref()));
        }
        next_dirty.iter_mut().for_each(|d| *d = false);
        let mut enqueue_dependent = |k: usize| {
            let dep = match dir {
                SweepDir::Decreasing => k.checked_sub(1).or_else(|| wraps.then_some(nb - 1)),
                SweepDir::Increasing => {
                    let next = k + 1;
                    (next < nb).then_some(next).or_else(|| wraps.then_some(0))
                }
            };
            if let Some(d) = dep {
                next_dirty[d] = true;
            }
        };
        let run = |bucket: Vec<Tile<'_, '_>>| {
            bucket
                .into_iter()
                .map(|(k, slice, halo)| (k, sweep(slice, halo)))
                .collect::<Vec<(usize, bool)>>()
        };
        // One worker (every one-band closure) runs on the calling thread.
        let results = if workers == 1 {
            run(buckets.pop().expect("one bucket"))
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = buckets
                    .into_iter()
                    .map(|bucket| scope.spawn(|| run(bucket)))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("wavefront tile thread panicked"))
                    .collect()
            })
        };
        for (k, boundary_changed) in results {
            if boundary_changed {
                enqueue_dependent(k);
            }
        }
        std::mem::swap(&mut dirty, &mut next_dirty);
    }
}

/// Build the unsafe-node bitset from a status array, word-chunk parallel:
/// each worker fills a disjoint `&mut [u64]` chunk (word `w` covers
/// indices `64·w..64·w+64`, never straddling chunks), and
/// [`NodeSet::from_raw_words`] adopts the buffer. Identical for every
/// thread count; one thread fills the words on the calling thread.
pub(crate) fn unsafe_set_par(status: &[NodeStatus], threads: usize) -> NodeSet {
    let nbits = status.len();
    let nwords = nbits.div_ceil(64);
    let mut words = vec![0u64; nwords];
    let chunks = mesh_topo::par::bands(nwords, threads);
    if chunks.len() <= 1 {
        fill_words(&mut words, 0, status);
    } else {
        std::thread::scope(|scope| {
            let mut rest: &mut [u64] = &mut words;
            for c in &chunks {
                let (head, tail) = rest.split_at_mut(c.len());
                rest = tail;
                let off = c.start;
                scope.spawn(move || fill_words(head, off, status));
            }
        });
    }
    NodeSet::from_raw_words(nbits, words)
}

fn fill_words(words: &mut [u64], word_offset: usize, status: &[NodeStatus]) {
    for (k, w) in words.iter_mut().enumerate() {
        let base = (word_offset + k) * 64;
        let n = 64.min(status.len() - base);
        let mut bits = 0u64;
        for (j, st) in status[base..base + n].iter().enumerate() {
            bits |= (st.is_unsafe() as u64) << j;
        }
        *w = bits;
    }
}

/// Node-count floor below which the closure runs a single band on the
/// calling thread: a sub-4096-node labelling finishes in microseconds,
/// under the cost of spawning the tile threads.
pub(crate) const PAR_MIN_NODES: usize = 4096;

/// Tiles per worker thread. More than one keeps the re-enqueue rounds of
/// the wavefront fine-grained (a round-two tile re-sweep costs one tile,
/// not one thread's whole share) at a negligible seam cost.
pub(crate) const TILES_PER_THREAD: usize = 2;
