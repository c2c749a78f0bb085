//! The reference velocity hierarchies the paper measures its production
//! solver against (Tables II–IV). The library builds one hierarchy: the
//! batched tensor kernel on every smoothed level, matrices only for the
//! coarse solve and as Galerkin inputs. [`reference_solver`] starts from
//! that build and swaps the smoothed levels and coarse solve a reference
//! changes, so the coupling blocks, the Schur preconditioner and the grid
//! transfers stay the production ones, and the result solves through
//! `StokesSolver::solve` (`ptatin_core::solver::solve_stokes_with_pc`).
//! Its setup time includes the production build it starts from.

use ptatin_core::solver::{build_stokes_solver_cached, SetupCache, CHEB_EST_ITERS};
use ptatin_core::{CoarseKind, GmgConfig, StokesSolver};
use ptatin_fem::assemble::{num_velocity_dofs, Q2QuadTables};
use ptatin_fem::bc::DirichletBc;
use ptatin_la::chebyshev::{inverse_diagonal, Chebyshev};
use ptatin_la::csr::Csr;
use ptatin_la::operator::TimedOperator;
use ptatin_la::schwarz::DirectSolver;
use ptatin_mesh::hierarchy::MeshHierarchy;
use ptatin_mg::amg::{build_sa_amg, AmgConfig, CoarseSolverKind};
use ptatin_mg::{galerkin_coarse, rigid_body_modes, ArcOp, GmgCoarseSolver, GmgLevel};
use ptatin_mpm::projection::{coarsen_corner_field, corners_to_quadrature_log};
use ptatin_ops::{assembled_viscous_op, build_viscous_operator, OperatorKind};
use std::sync::Arc;

/// A velocity hierarchy other than the production one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reference {
    /// `kind` on the finest level over the production levels below it.
    /// `Assembled` assembles every smoothed level by rediscretization, and
    /// the coarsest operator is the Galerkin product of level 1 (or
    /// rediscretized when `galerkin_coarsest` is off).
    Fine(OperatorKind),
    /// GMG-ii (Table IV): the assembled finest level, and every coarser
    /// level the Galerkin product of the one above.
    GalerkinIntermediate,
}

/// The Stokes solver of `reference` for the corner viscosity
/// `eta_corner_fine`. The arguments are those of
/// `build_stokes_solver_cached`, whose production build goes through
/// `cache`; the levels and coarse solve the reference swaps in do not.
pub fn reference_solver(
    hier: &MeshHierarchy,
    eta_corner_fine: &[f64],
    bcs: &[DirichletBc],
    cfg: &GmgConfig,
    reference: Reference,
    cache: &mut SetupCache,
) -> StokesSolver {
    let t_setup = std::time::Instant::now();
    let mut solver = build_stokes_solver_cached(hier, eta_corner_fine, bcs, cfg, None, cache);
    let top = cfg.levels - 1;
    // η at the quadrature points of every level, as the production build
    // computes it: corner injection fine → coarse, log interpolation.
    let tables = Q2QuadTables::standard();
    let mut eta_corner = vec![eta_corner_fine.to_vec()];
    for l in (0..top).rev() {
        eta_corner.insert(
            0,
            coarsen_corner_field(&hier.meshes[l + 1], &hier.meshes[l], &eta_corner[0]),
        );
    }
    let eta_qp = |l: usize| corners_to_quadrature_log(&hier.meshes[l], &tables, &eta_corner[l]);
    let assemble = |l: usize| assembled_viscous_op(&hier.meshes[l], &tables, &eta_qp(l), &bcs[l]);
    let mask = |l: usize| bcs[l].mask(num_velocity_dofs(&hier.meshes[l]));
    let rap = |l: usize, above: &Csr| galerkin_coarse(above, &solver.mg.prolongations[l], &mask(l));

    // The replaced smoothed levels (up to the finest) and the coarsest
    // matrix, when the reference changes it.
    let (ops, coarsest): (Vec<ArcOp>, Option<Csr>) = match reference {
        Reference::Fine(OperatorKind::Assembled) => {
            let mats: Vec<Csr> = (1..=top).map(assemble).collect();
            let a0 = if cfg.galerkin_coarsest {
                rap(0, &mats[0])
            } else {
                assemble(0)
            };
            (
                mats.into_iter().map(|a| Arc::new(a) as ArcOp).collect(),
                Some(a0),
            )
        }
        Reference::Fine(kind) => {
            let op = build_viscous_operator(kind, hier.finest(), eta_qp(top), &bcs[top]);
            (vec![ArcOp::from(op)], None)
        }
        Reference::GalerkinIntermediate => {
            let mut mats = vec![assemble(top)];
            for l in (0..top).rev() {
                mats.insert(0, rap(l, &mats[0]));
            }
            let a0 = mats.remove(0);
            (
                mats.into_iter().map(|a| Arc::new(a) as ArcOp).collect(),
                Some(a0),
            )
        }
    };
    let first = top + 1 - ops.len();
    for (l, op) in (first..=top).zip(ops) {
        let timed = Arc::new(TimedOperator::new(op));
        let inv_diag = inverse_diagonal(timed.as_ref());
        let smoother =
            Chebyshev::with_diagonal(timed.as_ref(), inv_diag, cfg.pre_smooth, CHEB_EST_ITERS);
        solver.mg.levels[l - 1] = GmgLevel::new(timed.clone(), smoother);
        solver.timers.level_ops[l - 1] = timed;
    }
    solver.a_fine = solver.mg.levels[top - 1].op.clone();

    if let Some(a0) = coarsest {
        solver.timers.coarse_setup_seconds = 0.0;
        solver.mg.coarse = match cfg.coarse {
            CoarseKind::Direct => GmgCoarseSolver::Direct(Arc::new(DirectSolver::new(&a0))),
            // The production builder's SA-AMG-PCG coarse solve.
            CoarseKind::Amg { coarse_blocks } => {
                let amg_cfg = AmgConfig {
                    block_size: 3,
                    max_coarse_size: 600,
                    coarse_solver: CoarseSolverKind::BlockJacobiLu {
                        blocks: coarse_blocks,
                    },
                    ..AmgConfig::default()
                };
                let nullspace = rigid_body_modes(&hier.meshes[0].coords, &mask(0));
                let hierarchy = build_sa_amg(a0.clone(), &nullspace, &amg_cfg);
                solver.timers.coarse_setup_seconds = hierarchy.setup_seconds;
                GmgCoarseSolver::AmgPcg {
                    a: a0,
                    hierarchy,
                    rtol: 1e-2,
                    max_it: 10,
                }
            }
        };
    }
    solver.timers.setup_seconds = t_setup.elapsed().as_secs_f64();
    solver
}
