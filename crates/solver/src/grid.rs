//! Anisotropic tensor grids over the unit square.
//!
//! The sparse-grid method works on a family of rectangular grids indexed by
//! a pair `(l, m)`: grid `(l, m)` has `2^(root+l)` cells in the x direction
//! and `2^(root+m)` cells in the y direction, where `root` is the paper's
//! "refinement level of the coarsest grid" command-line parameter. All
//! grids of *level* `lm = l + m` have the same number of cells but different
//! aspect ratios; the combination technique exploits exactly this.
//!
//! Values live on grid **nodes** (vertices), including the boundary:
//! a grid has `(nx+1) × (ny+1)` nodes, of which the `(nx-1) × (ny-1)`
//! interior ones are unknowns of the PDE discretization.

use std::fmt;

/// The `(l, m)` refinement index of a grid (refinement *above* the root
/// level, per direction).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GridIndex {
    /// Extra x-refinement above the root level.
    pub l: u32,
    /// Extra y-refinement above the root level.
    pub m: u32,
}

impl GridIndex {
    /// Construct an index.
    pub fn new(l: u32, m: u32) -> Self {
        GridIndex { l, m }
    }

    /// The grid *level* `lm = l + m`.
    pub fn level(&self) -> u32 {
        self.l + self.m
    }
}

impl fmt::Display for GridIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.l, self.m)
    }
}

/// A rectangular tensor grid on `[0,1]²`.
#[derive(Clone, Debug, PartialEq)]
pub struct Grid2 {
    /// Root refinement (coarsest-grid level).
    pub root: u32,
    /// The `(l, m)` index.
    pub index: GridIndex,
    /// Number of cells in x: `2^(root+l)`.
    pub nx: usize,
    /// Number of cells in y: `2^(root+m)`.
    pub ny: usize,
    /// Mesh width in x.
    pub hx: f64,
    /// Mesh width in y.
    pub hy: f64,
}

impl Grid2 {
    /// Build grid `(l, m)` over the root refinement.
    pub fn new(root: u32, l: u32, m: u32) -> Self {
        let nx = 1usize << (root + l);
        let ny = 1usize << (root + m);
        Grid2 {
            root,
            index: GridIndex::new(l, m),
            nx,
            ny,
            hx: 1.0 / nx as f64,
            hy: 1.0 / ny as f64,
        }
    }

    /// The isotropic finest grid of a combination at `level`: `(level, level)`.
    pub fn finest(root: u32, level: u32) -> Self {
        Grid2::new(root, level, level)
    }

    /// Number of nodes per row (x direction), boundary included.
    fn nodes_x(&self) -> usize {
        self.nx + 1
    }

    /// Number of nodes per column (y direction), boundary included.
    fn nodes_y(&self) -> usize {
        self.ny + 1
    }

    /// Total node count, boundary included.
    pub fn node_count(&self) -> usize {
        self.nodes_x() * self.nodes_y()
    }

    /// Number of interior nodes (the PDE unknowns).
    pub fn interior_count(&self) -> usize {
        (self.nx - 1) * (self.ny - 1)
    }

    /// x coordinate of node column `i` (`0 ..= nx`).
    pub fn x(&self, i: usize) -> f64 {
        i as f64 * self.hx
    }

    /// y coordinate of node row `j` (`0 ..= ny`).
    pub fn y(&self, j: usize) -> f64 {
        j as f64 * self.hy
    }

    /// Flat index of node `(i, j)` in a full node vector (row-major, j
    /// outer).
    pub fn node_idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i <= self.nx && j <= self.ny);
        j * self.nodes_x() + i
    }

    /// Flat index of interior node `(i, j)` (`1 ..= nx-1`, `1 ..= ny-1`) in
    /// an interior-only vector.
    pub fn interior_idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i >= 1 && i < self.nx && j >= 1 && j < self.ny);
        (j - 1) * (self.nx - 1) + (i - 1)
    }

    /// Is node `(i, j)` on the boundary?
    fn is_boundary(&self, i: usize, j: usize) -> bool {
        i == 0 || j == 0 || i == self.nx || j == self.ny
    }

    /// Evaluate a function at every node into a full node vector.
    pub fn sample(&self, f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.node_count());
        for j in 0..=self.ny {
            let y = self.y(j);
            for i in 0..=self.nx {
                v.push(f(self.x(i), y));
            }
        }
        v
    }

    /// Extract the interior part of a full node vector.
    /// Evaluate `f(x, y)` at every *interior* node, in row-major interior
    /// order (the layout of `initial_interior` / solver unknowns). This is
    /// the sampling loop shared by the master's initialization and the
    /// worker-side exact/initial field construction.
    pub fn sample_interior(&self, f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.interior_count());
        for j in 1..self.ny {
            let y = self.y(j);
            for i in 1..self.nx {
                v.push(f(self.x(i), y));
            }
        }
        v
    }

    pub fn restrict_interior(&self, full: &[f64]) -> Vec<f64> {
        assert_eq!(full.len(), self.node_count());
        let mut v = Vec::with_capacity(self.interior_count());
        for j in 1..self.ny {
            for i in 1..self.nx {
                v.push(full[self.node_idx(i, j)]);
            }
        }
        v
    }

    /// Scatter an interior vector back into a full node vector whose
    /// boundary values are produced by `boundary(x, y)`.
    pub fn expand_interior(
        &self,
        interior: &[f64],
        boundary: impl Fn(f64, f64) -> f64,
    ) -> Vec<f64> {
        assert_eq!(interior.len(), self.interior_count());
        let mut full = vec![0.0; self.node_count()];
        for j in 0..=self.ny {
            for i in 0..=self.nx {
                let idx = self.node_idx(i, j);
                full[idx] = if self.is_boundary(i, j) {
                    boundary(self.x(i), self.y(j))
                } else {
                    interior[self.interior_idx(i, j)]
                };
            }
        }
        full
    }

    /// All grid indices visited by the paper's nested loop for a given
    /// additional refinement `level`:
    ///
    /// ```c
    /// for (lm = level - 1; lm <= level; lm++)
    ///     for (l = 0; l <= lm; l++)
    ///         subsolve(l, lm - l);
    /// ```
    ///
    /// For `level ≥ 1` this yields `2·level + 1` grids — which is exactly
    /// the paper's worker count `w = 2l + 1`.
    pub fn combination_indices(level: u32) -> Vec<GridIndex> {
        let mut out = Vec::new();
        let lo = level.saturating_sub(1);
        for lm in lo..=level {
            for l in 0..=lm {
                out.push(GridIndex::new(l, lm - l));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_spacings() {
        let g = Grid2::new(2, 1, 3);
        assert_eq!(g.nx, 8);
        assert_eq!(g.ny, 32);
        assert!((g.hx - 0.125).abs() < 1e-15);
        assert_eq!(g.node_count(), 9 * 33);
        assert_eq!(g.interior_count(), 7 * 31);
    }

    #[test]
    fn all_grids_of_a_level_have_equal_cell_count() {
        for lm in 0..6 {
            let counts: Vec<usize> = (0..=lm)
                .map(|l| {
                    let g = Grid2::new(2, l, lm - l);
                    g.nx * g.ny
                })
                .collect();
            assert!(counts.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn node_indexing_round_trip() {
        let g = Grid2::new(2, 0, 1);
        let mut seen = vec![false; g.node_count()];
        for j in 0..=g.ny {
            for i in 0..=g.nx {
                let idx = g.node_idx(i, j);
                assert!(!seen[idx]);
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn interior_indexing_is_dense() {
        let g = Grid2::new(2, 1, 0);
        let mut seen = vec![false; g.interior_count()];
        for j in 1..g.ny {
            for i in 1..g.nx {
                let idx = g.interior_idx(i, j);
                assert!(!seen[idx]);
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn restrict_expand_round_trip() {
        let g = Grid2::new(2, 0, 0);
        let full = g.sample(|x, y| x + 10.0 * y);
        let interior = g.restrict_interior(&full);
        let back = g.expand_interior(&interior, |x, y| x + 10.0 * y);
        for (a, b) in full.iter().zip(&back) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn boundary_classification() {
        let g = Grid2::new(2, 0, 0);
        assert!(g.is_boundary(0, 2));
        assert!(g.is_boundary(2, 0));
        assert!(g.is_boundary(g.nx, 1));
        assert!(g.is_boundary(1, g.ny));
        assert!(!g.is_boundary(1, 1));
    }

    #[test]
    fn combination_indices_match_worker_count() {
        // w = 2*level + 1 grids for level >= 1; a single grid at level 0.
        assert_eq!(Grid2::combination_indices(0), vec![GridIndex::new(0, 0)]);
        for level in 1..=15 {
            let idx = Grid2::combination_indices(level);
            assert_eq!(idx.len() as u32, 2 * level + 1);
            // The two diagonals l+m = level-1 and l+m = level.
            assert!(idx
                .iter()
                .all(|g| g.level() == level || g.level() == level - 1));
        }
    }

    #[test]
    fn sample_evaluates_at_nodes() {
        let g = Grid2::new(1, 0, 0); // 2x2 cells, 3x3 nodes
        let v = g.sample(|x, y| x * y);
        assert_eq!(v.len(), 9);
        assert!((v[g.node_idx(2, 2)] - 1.0).abs() < 1e-15);
        assert!((v[g.node_idx(1, 1)] - 0.25).abs() < 1e-15);
    }

    #[test]
    fn sample_interior_matches_restricted_full_sample() {
        for (root, l, m) in [(0, 0, 0), (1, 1, 0), (2, 1, 2)] {
            let g = Grid2::new(root, l, m);
            let f = |x: f64, y: f64| 3.0 * x + y * y;
            let interior = g.sample_interior(f);
            assert_eq!(interior.len(), g.interior_count());
            assert_eq!(interior, g.restrict_interior(&g.sample(f)));
        }
        // 1x1-cell grid: no interior nodes at all.
        assert!(Grid2::new(0, 0, 0).sample_interior(|_, _| 1.0).is_empty());
    }
}
