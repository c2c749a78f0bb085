//! The saddle-point coupling block `B = J_pu` as the Stokes solver passes
//! it around.
//!
//! The production operator applies `B` and `Bᵀ` inside its element pass,
//! so a [`CouplingBlock`] knows its shape without the matrix; the solver
//! hands out a [`SharedCsr`] that assembles the matrix on first read.

use crate::csr::Csr;
use crate::shared::SharedCsr;

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

impl CouplingBlock for SharedCsr {
    fn nrows(&self) -> usize {
        SharedCsr::nrows(self)
    }
    fn ncols(&self) -> usize {
        SharedCsr::ncols(self)
    }
    fn csr(&self) -> &Csr {
        SharedCsr::csr(self)
    }
}
