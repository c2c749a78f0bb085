//! Table IV of the paper: time-to-solution comparison of the matrix-free
//! geometric multigrid preconditioner against robust assembled-matrix
//! multi-level alternatives, on the same sinker Stokes problem:
//!
//! * **GMG-i** — production hybrid: tensor matrix-free fine level,
//!   rediscretized assembled intermediate, Galerkin coarsest, SA-AMG
//!   coarse solve (§IV-A),
//! * **GMG-ii** — fully assembled: fine level assembled, all coarse
//!   operators by Galerkin projection, same smoother/coarse solver,
//! * **SA-i** — smoothed aggregation AMG (GAMG-like) on the assembled
//!   fine operator, threshold 0.01, rigid-body modes,
//! * **SAML-i** — ML-like SA: drop tolerance 0.01, coarse problem ≤ 100,
//! * **SAML-ii** — SAML-i with the stronger FGMRES(2)/block-Jacobi-ILU(0)
//!   smoother and an inexact FGMRES coarse solve (rtol 10⁻³).
//!
//! Reported per configuration: Krylov iterations, MatMult time (outer
//! J_uu applications), PC setup, PC apply and total solve time.
//!
//! Run: `cargo run --release -p ptatin-bench --bin table4_comparison [--quick]`

use ptatin_bench::{levels_for, paper_gmg_config, sinker_setup, write_csv, Args};
use ptatin_core::models::sinker::sinker_bc;
use ptatin_core::solver::solve_stokes_with_pc;
use ptatin_fem::assemble::{PressureMassBlocks, Q2QuadTables};
use ptatin_la::krylov::KrylovConfig;
use ptatin_la::operator::{Preconditioner, TimedOperator};
use ptatin_mg::amg::{build_sa_amg, AmgConfig, CoarseSolverKind, SmootherKind};
use ptatin_mg::nullspace::rigid_body_modes;
use ptatin_ops::{assembled_viscous_op, OperatorKind};
use std::sync::atomic::{AtomicU64, Ordering};

/// Timing wrapper over a borrowed preconditioner.
struct TimedPc<'a, M: Preconditioner + ?Sized> {
    inner: &'a M,
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl<'a, M: Preconditioner + ?Sized> TimedPc<'a, M> {
    fn new(inner: &'a M) -> Self {
        Self {
            inner,
            nanos: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }
    fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

impl<M: Preconditioner + ?Sized> Preconditioner for TimedPc<'_, M> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let t0 = std::time::Instant::now();
        self.inner.apply(r, z);
        self.nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
}

struct Row {
    name: &'static str,
    its: usize,
    converged: bool,
    matmult_s: f64,
    pc_setup_s: f64,
    pc_apply_s: f64,
    solve_s: f64,
}

fn main() {
    let args = Args::parse();
    let m = args.get_usize("m", if args.quick() { 8 } else { 12 });
    let levels = levels_for(m, 3);
    println!("# Table IV reproduction — sinker at {m}^3 (paper: 96^3), Δη = 1e4");
    let (model, fields) = sinker_setup(m, levels, 1e4);
    let mesh = model.hier.finest();
    let tables = Q2QuadTables::standard();
    let bc = sinker_bc(mesh);
    let kcfg = KrylovConfig::default().with_rtol(1e-5).with_max_it(800);

    let mut results: Vec<Row> = Vec::new();

    // -- GMG-i and GMG-ii ---------------------------------------------------
    for (name, gmg_cfg) in [
        ("GMG-i", paper_gmg_config(levels, OperatorKind::Tensor)),
        ("GMG-ii", {
            let mut c = paper_gmg_config(levels, OperatorKind::Assembled);
            c.galerkin_intermediate = true;
            c
        }),
    ] {
        let t_setup = std::time::Instant::now();
        let solver = model.build_solver(&fields, &gmg_cfg);
        let pc_setup_s = t_setup.elapsed().as_secs_f64();
        let rhs = model.rhs(&solver, &fields);
        let a_timed = TimedOperator::new(&solver.a_fine);
        let pc_timed = TimedPc::new(&solver.mg);
        let mut x = vec![0.0; solver.nu + solver.np];
        let t0 = std::time::Instant::now();
        let stats = solve_stokes_with_pc(
            &a_timed,
            &solver.b_masked,
            &solver.schur,
            &pc_timed,
            &rhs,
            &mut x,
            &kcfg,
            None,
        );
        let solve_s = t0.elapsed().as_secs_f64();
        results.push(Row {
            name,
            its: stats.iterations,
            converged: stats.converged,
            matmult_s: a_timed.seconds() + solver.timers.matmult_seconds(),
            pc_setup_s,
            pc_apply_s: pc_timed.seconds(),
            solve_s,
        });
    }

    // -- Algebraic variants on the assembled fine operator ------------------
    let t_asm = std::time::Instant::now();
    let a_fine = assembled_viscous_op(mesh, &tables, &fields.eta_qp, &bc);
    let assemble_s = t_asm.elapsed().as_secs_f64();
    let mask = bc.mask(a_fine.nrows());
    let nullspace = rigid_body_modes(&mesh.coords, &mask);
    let inv_eta: Vec<f64> = fields.eta_qp.iter().map(|&e| 1.0 / e).collect();
    let schur = PressureMassBlocks::new(mesh, &tables, &inv_eta);
    let mut b_masked = ptatin_fem::assemble::assemble_gradient(mesh, &tables);
    b_masked.zero_cols(&bc.dofs);
    // Homogeneous BC rhs.
    let rhs = {
        let mut f_u =
            ptatin_fem::assemble::assemble_body_force(mesh, &tables, &fields.rho_qp, model.gravity);
        bc.zero_constrained(&mut f_u);
        let mut r = vec![0.0; a_fine.nrows() + b_masked.nrows()];
        r[..a_fine.nrows()].copy_from_slice(&f_u);
        r
    };

    let amg_variants: Vec<(&'static str, AmgConfig)> = vec![
        (
            "SA-i",
            AmgConfig {
                block_size: 3,
                max_coarse_size: 600,
                coarse_solver: CoarseSolverKind::BlockJacobiLu { blocks: 4 },
                ..AmgConfig::default()
            },
        ),
        (
            "SAML-i",
            AmgConfig {
                block_size: 3,
                max_coarse_size: 100,
                coarse_solver: CoarseSolverKind::BlockJacobiLu { blocks: 4 },
                ..AmgConfig::default()
            },
        ),
        (
            "SAML-ii",
            AmgConfig {
                block_size: 3,
                max_coarse_size: 100,
                smoother: SmootherKind::FgmresBlockJacobiIlu0 {
                    iters: 2,
                    blocks: 4,
                },
                coarse_solver: CoarseSolverKind::InexactGmres {
                    rtol: 1e-3,
                    max_it: 50,
                    blocks: 4,
                },
                ..AmgConfig::default()
            },
        ),
    ];
    for (name, amg_cfg) in amg_variants {
        let t_setup = std::time::Instant::now();
        let amg = build_sa_amg(a_fine.clone(), &nullspace, &amg_cfg);
        let pc_setup_s = t_setup.elapsed().as_secs_f64() + assemble_s;
        let a_timed = TimedOperator::new(&a_fine);
        let pc_timed = TimedPc::new(&amg);
        let mut x = vec![0.0; rhs.len()];
        let t0 = std::time::Instant::now();
        let stats = solve_stokes_with_pc(
            &a_timed, &b_masked, &schur, &pc_timed, &rhs, &mut x, &kcfg, None,
        );
        let solve_s = t0.elapsed().as_secs_f64();
        results.push(Row {
            name,
            its: stats.iterations,
            converged: stats.converged,
            matmult_s: a_timed.seconds(),
            pc_setup_s,
            pc_apply_s: pc_timed.seconds(),
            solve_s,
        });
    }

    println!(
        "{:<9} {:>5} {:>11} {:>11} {:>11} {:>11}",
        "config", "its", "MatMult s", "PC setup s", "PC apply s", "Solve s"
    );
    println!("{}", ptatin_bench::rule(64));
    let mut rows = Vec::new();
    for r in &results {
        println!(
            "{:<9} {:>5} {:>11.3} {:>11.3} {:>11.3} {:>11.3}{}",
            r.name,
            r.its,
            r.matmult_s,
            r.pc_setup_s,
            r.pc_apply_s,
            r.solve_s,
            if r.converged { "" } else { "  (!)" }
        );
        rows.push(format!(
            "{},{},{:.4},{:.4},{:.4},{:.4},{}",
            r.name, r.its, r.matmult_s, r.pc_setup_s, r.pc_apply_s, r.solve_s, r.converged
        ));
    }
    let gmg_i = results[0].solve_s;
    println!();
    println!("speedups of GMG-i (paper: 1.7x vs GMG-ii, 3.3x–12.4x vs algebraic):");
    for r in results.iter().skip(1) {
        println!("  vs {:<8} {:.2}x", r.name, r.solve_s / gmg_i);
    }
    let path = write_csv(
        "table4_comparison.csv",
        "config,iterations,matmult_s,pc_setup_s,pc_apply_s,solve_s,converged",
        &rows,
    );
    println!("\nwrote {}", path.display());
}
