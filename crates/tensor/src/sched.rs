//! Declared reduction schedules for the parallel matmul kernels.
//!
//! A [`ReductionSchedule`] is the *contract* between a parallel kernel
//! and the static certifier in `analysis::par`: which axis the output is
//! split along, the exact chunk ranges each worker owns, and the fixed
//! binary join tree that combines worker results. The executor
//! (`crate::par::run_row_chunks`) implements precisely this shape, and
//! [`declared_schedules`] builds the descriptors from the *same*
//! `row_chunks` planner the executor uses — so what gets certified is
//! what runs.
//!
//! For a fork-join row split the "join" is trivial (workers write
//! disjoint rows; joining is just thread join, in worker order), but the
//! tree is still declared explicitly: the certifier's job is to prove
//! that *whatever* the tree is, combining in that order is bit-equal to
//! the sequential reduction — and to reject trees (e.g. any `k`-axis
//! split that isn't a left-comb over ascending chunks) where it is not.

use std::collections::BTreeSet;

use crate::graph::MmOrient;
use crate::{kernels, par};

/// Which output/reduction axis a schedule splits across workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitAxis {
    /// Output rows — each worker owns whole reduction chains. Safe.
    M,
    /// Output columns — also owns whole chains (unused by the current
    /// kernels, but expressible).
    N,
    /// The contraction axis — chops reduction chains into partial sums
    /// that must be re-combined; only a left-comb join over ascending
    /// chunks can be bit-equal to sequential order.
    K,
}

impl SplitAxis {
    pub fn as_str(&self) -> &'static str {
        match self {
            SplitAxis::M => "m",
            SplitAxis::N => "n",
            SplitAxis::K => "k",
        }
    }
}

/// A binary tree over chunk indices describing the order worker results
/// combine. `Leaf(i)` is chunk `i`'s partial result; `Node(l, r)`
/// combines `l` then `r` (left operand is the accumulator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinTree {
    Leaf(usize),
    Node(Box<JoinTree>, Box<JoinTree>),
}

impl JoinTree {
    /// The left-comb (sequential-fold) tree over chunks `0..n`:
    /// `((…(0⊕1)⊕2)…)⊕(n-1)` — the only join order that reproduces a
    /// sequential left-to-right reduction exactly.
    pub fn left_spine(n: usize) -> JoinTree {
        assert!(n > 0, "join tree over zero chunks");
        let mut tree = JoinTree::Leaf(0);
        for i in 1..n {
            tree = JoinTree::Node(Box::new(tree), Box::new(JoinTree::Leaf(i)));
        }
        tree
    }

    /// Leaf chunk indices in combine order (left-to-right).
    pub fn leaves(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves(&self, out: &mut Vec<usize>) {
        match self {
            JoinTree::Leaf(i) => out.push(*i),
            JoinTree::Node(l, r) => {
                l.collect_leaves(out);
                r.collect_leaves(out);
            }
        }
    }
}

/// The full schedule one parallel kernel declares for one launch shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReductionSchedule {
    /// Kernel name (`mm_nn` / `mm_nt` / `mm_tn`).
    pub kernel: &'static str,
    pub orient: MmOrient,
    /// `(m, k, n)` of the launch.
    pub shape: (usize, usize, usize),
    pub split: SplitAxis,
    /// Per-worker `[lo, hi)` ranges along the split axis.
    pub chunks: Vec<(usize, usize)>,
    /// How worker results combine.
    pub join: JoinTree,
}

impl ReductionSchedule {
    /// Length of the split axis this schedule must tile.
    pub fn axis_len(&self) -> usize {
        let (m, k, n) = self.shape;
        match self.split {
            SplitAxis::M => m,
            SplitAxis::N => n,
            SplitAxis::K => k,
        }
    }
}

/// The schedules the dispatch layer (`crate::kernels`) actually uses for
/// an `(m, k, n)` launch at `workers` threads: every orientation splits
/// output rows (`M`) into the planner's contiguous ascending chunks and
/// joins along the left spine in worker order.
///
/// `mm_nn`'s register microkernel then tiles each worker's share of the
/// output, and that tiling is declared too, from the same planners the
/// kernel walks (`kernels::mm_nn_row_tiles` / `mm_nn_col_tiles`):
/// `mm_nn.rows` splits `M` into every worker chunk's 4-row blocks and
/// 1–3 row tail, and one `mm_nn.cols` schedule per row-block height
/// splits `N` into that block's column tiles (64-wide for a one-row
/// block, 16-wide otherwise, then the scalar tail). Each tile runs every
/// output's full ascending-`k` chain and tiles write disjoint outputs, so
/// the tree over them only lists them in index order.
pub fn declared_schedules(m: usize, k: usize, n: usize, workers: usize) -> Vec<ReductionSchedule> {
    let chunks = par::row_chunks(m, workers);
    let join = JoinTree::left_spine(chunks.len());
    let mut out: Vec<ReductionSchedule> = [
        ("mm_nn", MmOrient::Nn),
        ("mm_nt", MmOrient::Nt),
        ("mm_tn", MmOrient::Tn),
    ]
    .into_iter()
    .map(|(kernel, orient)| ReductionSchedule {
        kernel,
        orient,
        shape: (m, k, n),
        split: SplitAxis::M,
        chunks: chunks.clone(),
        join: join.clone(),
    })
    .collect();

    let row_tiles: Vec<(usize, usize)> = chunks
        .iter()
        .flat_map(|&(lo, hi)| kernels::mm_nn_row_tiles(hi - lo).map(move |(a, b)| (lo + a, lo + b)))
        .collect();
    let heights: BTreeSet<usize> = row_tiles.iter().map(|(lo, hi)| hi - lo).collect();
    out.extend(tile_schedule(
        "mm_nn.rows",
        (m, k, n),
        SplitAxis::M,
        row_tiles,
    ));
    for h in heights {
        let col_tiles = kernels::mm_nn_col_tiles(h, n).collect();
        out.extend(tile_schedule(
            "mm_nn.cols",
            (h, k, n),
            SplitAxis::N,
            col_tiles,
        ));
    }
    out
}

/// An `mm_nn` microkernel tiling as a schedule, one chunk per tile
/// (`None` for an empty output, which has no tiles).
fn tile_schedule(
    kernel: &'static str,
    shape: (usize, usize, usize),
    split: SplitAxis,
    tiles: Vec<(usize, usize)>,
) -> Option<ReductionSchedule> {
    (!tiles.is_empty()).then(|| ReductionSchedule {
        kernel,
        orient: MmOrient::Nn,
        shape,
        split,
        join: JoinTree::left_spine(tiles.len()),
        chunks: tiles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn left_spine_combines_in_ascending_order() {
        let t = JoinTree::left_spine(4);
        assert_eq!(t.leaves(), vec![0, 1, 2, 3]);
        // Shape check: ((0⊕1)⊕2)⊕3 — right child of the root is leaf 3.
        let JoinTree::Node(_, r) = &t else {
            panic!("spine with >1 leaf must be a node");
        };
        assert_eq!(**r, JoinTree::Leaf(3));
    }

    #[test]
    fn declared_schedules_cover_all_orientations_and_tile_m() {
        let scheds = declared_schedules(65, 130, 257, 4);
        let workers: Vec<_> = scheds[..3].iter().map(|s| s.kernel).collect();
        assert_eq!(workers, ["mm_nn", "mm_nt", "mm_tn"]);
        for s in &scheds[..3] {
            assert_eq!(s.split, SplitAxis::M);
            assert_eq!(s.axis_len(), 65);
            assert_eq!(s.chunks.first().unwrap().0, 0);
            assert_eq!(s.chunks.last().unwrap().1, 65);
            assert_eq!(s.join.leaves().len(), s.chunks.len());
        }
        // The register tiling follows the worker splits: its row blocks
        // tile the same [0, 65) and its column tiles split N.
        for s in &scheds[3..] {
            let (axis, len) = match s.kernel {
                "mm_nn.rows" => (SplitAxis::M, 65),
                _ => (SplitAxis::N, 257),
            };
            assert_eq!(s.split, axis, "{}", s.kernel);
            assert_eq!(s.axis_len(), len, "{}", s.kernel);
            assert_eq!(s.chunks.first().unwrap().0, 0);
            assert_eq!(s.chunks.last().unwrap().1, len);
            assert_eq!(s.join.leaves().len(), s.chunks.len());
        }
    }

    #[test]
    fn mm_nn_tiling_is_declared_per_worker_chunk() {
        // 9 rows over 2 workers: chunks [0,5) [5,9) tile as 4+1 and 4.
        let scheds = declared_schedules(9, 96, 1883, 2);
        let rows = scheds.iter().find(|s| s.kernel == "mm_nn.rows").unwrap();
        assert_eq!(par::row_chunks(9, 2), vec![(0, 5), (5, 9)]);
        assert_eq!(rows.chunks, vec![(0, 4), (4, 5), (5, 9)]);
        let cols: Vec<_> = scheds.iter().filter(|s| s.kernel == "mm_nn.cols").collect();
        assert_eq!(cols.len(), 2, "one per row-block height (1 and 4)");
        let one_row = cols.iter().find(|s| s.shape.0 == 1).unwrap();
        assert_eq!(one_row.chunks[0], (0, kernels::MM_NR_ROW));
        let four_rows = cols.iter().find(|s| s.shape.0 == 4).unwrap();
        assert_eq!(four_rows.chunks[0], (0, kernels::MM_NR));
        for s in cols {
            assert_eq!(s.split, SplitAxis::N);
            assert_eq!(s.chunks.last().unwrap(), &(1872, 1883), "scalar tail");
        }
    }

    #[test]
    fn schedules_mirror_the_executors_planner() {
        let scheds = declared_schedules(7, 64, 129, 3);
        assert_eq!(scheds[0].chunks, par::row_chunks(7, 3));
    }
}
