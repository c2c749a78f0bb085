//! Sparse matrices that production paths know only by shape.
//!
//! The batched kernel applies the coupling block `J_pu` inside its element
//! pass and the V-cycle applies the grid transfers as line stencils, so
//! their assembled matrices are read only by reference paths (assembled or
//! scalar fine operators, Galerkin `RAP`, Schur-complement reduction,
//! diagnostics). A [`SharedCsr`] knows its shape without the matrix,
//! assembles the matrix on first read and shares it with every clone of
//! the handle.

use crate::csr::Csr;
use std::sync::{Arc, OnceLock};

struct Deferred {
    nrows: usize,
    ncols: usize,
    matrix: OnceLock<Csr>,
    build: Box<dyn Fn() -> Csr + Send + Sync>,
}

/// A matrix assembled on first read, at most once, and shared by every
/// clone of the handle (cloning copies a pointer, never the matrix).
/// Dereferences to the assembled [`Csr`]; [`nrows`](Self::nrows) and
/// [`ncols`](Self::ncols) answer without assembling.
#[derive(Clone)]
pub struct SharedCsr(Arc<Deferred>);

impl SharedCsr {
    /// A matrix of the given shape that `build` assembles when first read.
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

    /// This matrix with the columns `cols` zeroed (Dirichlet velocity
    /// dofs), built from this matrix when first read.
    pub fn with_zeroed_cols(&self, cols: Vec<usize>) -> Self {
        let full = self.clone();
        Self::new(self.0.nrows, self.0.ncols, move || {
            let mut b = full.csr().clone();
            b.zero_cols(&cols);
            b
        })
    }

    /// Rows, known without assembling.
    pub fn nrows(&self) -> usize {
        self.0.nrows
    }

    /// Columns, known without assembling.
    pub fn ncols(&self) -> usize {
        self.0.ncols
    }

    /// Has any reader assembled the matrix yet?
    pub fn is_assembled(&self) -> bool {
        self.0.matrix.get().is_some()
    }

    /// The assembled matrix, assembling it first if no reader has.
    pub fn csr(&self) -> &Csr {
        self.0.matrix.get_or_init(|| {
            let m = (self.0.build)();
            assert_eq!(
                (m.nrows(), m.ncols()),
                (self.0.nrows, self.0.ncols),
                "shared matrix assembled with another shape"
            );
            m
        })
    }
}

impl std::ops::Deref for SharedCsr {
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
        let b = SharedCsr::new(1, 2, move || {
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
