//! `ptatin-la` — the linear-algebra substrate of the pTatin3D reproduction.
//!
//! pTatin3D builds on PETSc for "all parallel linear algebra, in the form of
//! matrices, vectors, preconditioners, Krylov methods, and nonlinear
//! solvers" (§II-D of the paper). This crate is the from-scratch Rust
//! equivalent of the subset pTatin3D exercises:
//!
//! * [`vec_ops`] — BLAS-1 kernels on `&[f64]` slices (PETSc `Vec`),
//! * [`csr`] — assembled sparse matrices, SpGEMM and Galerkin `RAP`
//!   (PETSc `MatAIJ`, `MatPtAP`),
//! * [`operator`] — the `Mat`/`PC` shell abstraction that lets assembled
//!   and matrix-free operators be used interchangeably,
//! * [`coupling`] — the Stokes coupling block as the solver passes it,
//! * [`shared`] — sparse matrices assembled only when first read,
//! * [`krylov`] — CG, GMRES(m), FGMRES(m), GCR(m) (PETSc `KSP`),
//! * [`chebyshev`] — the Jacobi-preconditioned Chebyshev smoother with
//!   power-iteration eigenvalue estimation,
//! * [`ilu`], [`schwarz`] — ILU(0), block-Jacobi, additive Schwarz and
//!   the direct coarse solver,
//! * [`cholesky`] — sparse envelope Cholesky (symbolic + numeric phase),
//!   the factorization behind the direct coarse solver,
//! * [`dense`] — small dense kernels (LU, QR, 3×3 geometry),
//! * [`par`] — scoped-thread data parallelism replacing MPI ranks,
//! * [`simd`] — the shared `F64x4` lane type, AVX2+FMA/portable dispatch
//!   and the batched slice kernels of the per-step pipeline (§III-E),
//! * [`transfer`] — the GMG prolongation/restriction as line stencils
//!   over nested node grids (and the lane-batched CSR form that the
//!   benchmark's probes time).

pub mod chebyshev;
pub mod cholesky;
pub mod coupling;
pub mod csr;
pub mod dense;
pub mod ilu;
pub mod krylov;
pub mod operator;
pub mod par;
pub mod schwarz;
pub mod shared;
pub mod simd;
pub mod transfer;
pub mod vec_ops;

pub use chebyshev::Chebyshev;
pub use cholesky::{CholeskySymbolic, FactorError, SparseCholesky};
pub use coupling::CouplingBlock;
pub use csr::{Csr, CsrBuilder};
pub use dense::{DenseLu, DenseMatrix};
pub use ilu::Ilu0;
pub use krylov::{cg, fgmres, gcr, gmres, BreakdownKind, KrylovConfig, SolveOutcome, SolveStats};
pub use operator::{IdentityPc, JacobiPc, LinearOperator, Preconditioner, TimedOperator};
pub use schwarz::{AdditiveSchwarz, DirectSolver, SubdomainSolve};
pub use shared::SharedCsr;
pub use simd::{avx2_fma_available, detected_simd_path, F64x4, SimdPath, LANES};
pub use transfer::{BatchedTransfer, NestedTransfer};
