//! The saddle-point coupling block `B = J_pu` as the Stokes solver passes
//! it around.
//!
//! The production operator applies `B` and `Bᵀ` inside its element pass,
//! so the assembled matrix is read only by reference paths (assembled or
//! scalar fine operators, Schur-complement reduction, diagnostics). A
//! [`CouplingBlock`] therefore knows its shape without the matrix, and a
//! [`SharedBlock`] assembles the matrix on first read and shares it with
//! every clone of the handle.

use crate::csr::Csr;
use std::sync::{Arc, OnceLock};

/// A coupling block `B` of `nrows` pressure rows and `ncols` velocity
/// columns. [`csr`](Self::csr) yields the matrix, assembling it first if
/// the implementation defers that.
pub trait CouplingBlock: Sync {
    fn nrows(&self) -> usize;
    fn ncols(&self) -> usize;
    /// The assembled matrix.
    fn csr(&self) -> &Csr;
}

impl CouplingBlock for Csr {
    fn nrows(&self) -> usize {
        Csr::nrows(self)
    }
    fn ncols(&self) -> usize {
        Csr::ncols(self)
    }
    fn csr(&self) -> &Csr {
        self
    }
}

struct Deferred {
    nrows: usize,
    ncols: usize,
    matrix: OnceLock<Csr>,
    build: Box<dyn Fn() -> Csr + Send + Sync>,
}

/// A coupling block assembled on first read, at most once, and shared by
/// every clone of the handle (cloning copies a pointer, never the matrix).
/// Dereferences to the assembled [`Csr`].
#[derive(Clone)]
pub struct SharedBlock(Arc<Deferred>);

impl SharedBlock {
    /// A block of the given shape that `build` assembles when first read.
    pub fn new(
        nrows: usize,
        ncols: usize,
        build: impl Fn() -> Csr + Send + Sync + 'static,
    ) -> Self {
        Self(Arc::new(Deferred {
            nrows,
            ncols,
            matrix: OnceLock::new(),
            build: Box::new(build),
        }))
    }

    /// This block with the columns `cols` zeroed (Dirichlet velocity dofs),
    /// built from this block's matrix when first read.
    pub fn with_zeroed_cols(&self, cols: Vec<usize>) -> Self {
        let full = self.clone();
        Self::new(self.0.nrows, self.0.ncols, move || {
            let mut b = full.csr().clone();
            b.zero_cols(&cols);
            b
        })
    }

    /// Pressure rows, known without assembling.
    pub fn nrows(&self) -> usize {
        self.0.nrows
    }

    /// Velocity columns, known without assembling.
    pub fn ncols(&self) -> usize {
        self.0.ncols
    }

    /// Has any reader assembled the matrix yet?
    pub fn is_assembled(&self) -> bool {
        self.0.matrix.get().is_some()
    }
}

impl CouplingBlock for SharedBlock {
    fn nrows(&self) -> usize {
        self.0.nrows
    }
    fn ncols(&self) -> usize {
        self.0.ncols
    }
    fn csr(&self) -> &Csr {
        self.0.matrix.get_or_init(|| {
            let b = (self.0.build)();
            assert_eq!(
                (b.nrows(), b.ncols()),
                (self.0.nrows, self.0.ncols),
                "coupling block assembled with another shape"
            );
            b
        })
    }
}

impl std::ops::Deref for SharedBlock {
    type Target = Csr;
    fn deref(&self) -> &Csr {
        self.csr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn assembles_once_on_first_read_and_shares_across_clones() {
        let builds = Arc::new(AtomicUsize::new(0));
        let counter = builds.clone();
        let b = SharedBlock::new(1, 2, move || {
            counter.fetch_add(1, Ordering::Relaxed);
            Csr::from_triplets(1, 2, &[(0, 0, 1.0), (0, 1, -1.0)])
        });
        let twin = b.clone();
        let masked = b.with_zeroed_cols(vec![1]);
        assert_eq!((masked.nrows(), masked.ncols()), (1, 2));
        assert!(!b.is_assembled() && !masked.is_assembled());
        let mut y = [0.0];
        masked.spmv(&[1.0, 2.0], &mut y);
        assert_eq!(y, [1.0]);
        assert!(b.is_assembled() && twin.is_assembled());
        assert!(std::ptr::eq(b.csr(), twin.csr()));
        b.spmv(&[1.0, 2.0], &mut y);
        assert_eq!(y, [-1.0]);
        assert_eq!(builds.load(Ordering::Relaxed), 1);
    }
}
