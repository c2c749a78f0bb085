//! `sinker12` — what `ptatin sinker m=12` does: the §IV-A sedimentation
//! problem (12³ Q2 elements, 3 levels, Δη = 1e4, 3³ points per element),
//! one linear Stokes solve to rtol 1e-5, VTK output.
//!
//! Solve-dominated: Krylov → V-cycle → smoother → operator kernel do
//! nearly all of the work, set-up is a few percent, MPM runs once. The
//! level-1 assembled matrix (≈16 MB) is far outside the 2 MiB L2.
//!
//! The sphere placement is the CLI's (`SinkerConfig::default().seed`);
//! the seed moves every material point by up to ±2 % of its element, so
//! the viscosity field differs per seed while the iteration count stays
//! within a few percent (re-drawing the spheres moved it by 2×).

use super::{probe_seconds, spans_to_layers, Checks, Iterated, Layers, Params, Workload};
use crate::machine;
use crate::trace::{Recorder, Span};
use ptatin3d::core::coefficients::CoefficientFields;
use ptatin3d::core::models::sinker::{SinkerConfig, SinkerModel};
use ptatin3d::core::output::{
    cell_average, corner_vector_field, write_vtk_mesh, write_vtk_points, Field,
};
use ptatin3d::core::solver::{build_stokes_solver_cached, SetupCache, StokesOperator};
use ptatin3d::core::{CoarseKind, GmgConfig, KrylovOperatorChoice, StokesSolver};
use ptatin3d::fem::assemble::Q2QuadTables;
use ptatin3d::fem::geometry::map_to_physical;
use ptatin3d::la::krylov::{KrylovConfig, SolveStats};
use ptatin3d::la::operator::{LinearOperator, Preconditioner};
use ptatin3d::la::transfer::BatchedTransfer;
use ptatin3d::la::vec_ops;
use ptatin3d::mesh::StructuredMesh;
use ptatin3d::mpm::projection::{coarsen_corner_field, corners_to_quadrature_log};
use ptatin3d::ops::{self, OperatorKind};
use ptatin_prng::{Rng, StdRng};
use std::path::PathBuf;

const RTOL: f64 = 1e-5;
/// GCR converges on its recurrence residual, which drifts from the true
/// one: restarting the library's own solve from the converged iterate
/// reports a relative residual of 4e-4 (8³) to 7e-4 (12³), not 1e-5. The
/// check therefore catches a wrong answer, not the drift (ROADMAP item 4).
const TRUE_RESIDUAL_MAX: f64 = 2e-3;
/// Krylov iterations of the default seed at 12³, and the band around it.
const REFERENCE_ITS: f64 = 72.0;
const ITS_BAND: f64 = 0.15;
/// Seed perturbation of the point positions in reference coordinates.
const JITTER: f64 = 0.04;

pub struct Sinker {
    m: usize,
    seed: u64,
    check_band: bool,
    out: PathBuf,
    smoke: bool,
}

impl Sinker {
    pub fn new(p: &Params) -> Self {
        Self {
            m: if p.smoke { 8 } else { 12 },
            seed: p.seed,
            check_band: !p.smoke && p.seed == crate::spec::DEFAULT_SEED,
            out: p.scratch.clone(),
            smoke: p.smoke,
        }
    }
}

pub struct Ready {
    model: SinkerModel,
    fields: CoefficientFields,
    solver: StokesSolver,
    rhs: Vec<f64>,
}

pub struct State {
    ready: Ready,
    x: Vec<f64>,
    stats: SolveStats,
    solve_s: f64,
    /// Counter deltas across the solve (the probes bump them again).
    fine_applies: u64,
    coarse_calls: u64,
    coarse_busy_s: f64,
    output_bytes: u64,
}

fn gmg() -> GmgConfig {
    GmgConfig {
        levels: 3,
        coarse: CoarseKind::Amg { coarse_blocks: 4 },
        ..GmgConfig::default()
    }
}

impl Workload for Sinker {
    type Ready = Ready;
    type State = State;

    fn name(&self) -> &'static str {
        "sinker12"
    }

    fn setup(&self, rec: &mut Recorder) -> Ready {
        let (model, _) = rec.span("core.construct", |_| {
            let mut model = SinkerModel::new(SinkerConfig {
                m: self.m,
                levels: 3,
                ..SinkerConfig::default()
            });
            let mut rng = StdRng::seed_from_u64(self.seed);
            let mesh = model.hier.finest();
            let r2 = model.cfg.radius * model.cfg.radius;
            for p in 0..model.points.len() {
                let mut xi = model.points.xi[p];
                for d in &mut xi {
                    *d = (*d + rng.gen_range(-JITTER..JITTER)).clamp(-0.999, 0.999);
                }
                let e = model.points.element[p] as usize;
                let x = map_to_physical(&mesh.element_corner_coords(e), xi);
                model.points.xi[p] = xi;
                model.points.x[p] = x;
                model.points.lithology[p] = u16::from(model.spheres.iter().any(|s| {
                    (s[0] - x[0]).powi(2) + (s[1] - x[1]).powi(2) + (s[2] - x[2]).powi(2) < r2
                }));
            }
            model
        });
        let (fields, _) = rec.span("core.coeff", |_| model.coefficients());
        let (solver, _) = rec.span("core.setup_cold", |_| model.build_solver(&fields, &gmg()));
        let (rhs, _) = rec.span("core.rhs", |_| model.rhs(&solver, &fields));
        Ready {
            model,
            fields,
            solver,
            rhs,
        }
    }

    fn iterate(&self, ready: Ready, rec: &mut Recorder) -> Iterated<State> {
        let solver = &ready.solver;
        let fine_op = solver.timers.level_ops.last().expect("a smoothed level");
        let applies_before = fine_op.calls();
        let coarse_before = (
            solver.mg.coarse_apply_count(),
            solver.mg.coarse_apply_seconds(),
        );
        let mut x = vec![0.0; solver.nu + solver.np];
        let (stats, solve_s) = rec.span("core.solve", |_| {
            solver.solve(
                &ready.rhs,
                &mut x,
                &KrylovConfig::default().with_rtol(RTOL).with_max_it(600),
                KrylovOperatorChoice::Picard,
                None,
            )
        });
        let fine_applies = fine_op.calls() - applies_before;
        let coarse_calls = solver.mg.coarse_apply_count() - coarse_before.0;
        let coarse_busy_s = solver.mg.coarse_apply_seconds() - coarse_before.1;
        let (output_bytes, _) = rec.span("core.output", |_| {
            let model = &ready.model;
            let mesh = model.hier.finest();
            let vel = corner_vector_field(mesh, &x[..solver.nu]);
            let eta = cell_average(mesh.num_elements(), 27, &ready.fields.eta_qp);
            let rho = cell_average(mesh.num_elements(), 27, &ready.fields.rho_qp);
            let mesh_file = self.out.join("sinker_mesh.vtk");
            let points_file = self.out.join("sinker_points.vtk");
            write_vtk_mesh(
                &mesh_file,
                mesh,
                &[
                    Field::PointVector("velocity", &vel),
                    Field::CellScalar("eta", &eta),
                    Field::CellScalar("rho", &rho),
                ],
            )
            .expect("write mesh vtk");
            write_vtk_points(&points_file, &model.points).expect("write points vtk");
            super::file_bytes(&[mesh_file, points_file])
        });
        Iterated {
            step_s: solve_s,
            state: State {
                ready,
                x,
                stats,
                solve_s,
                fine_applies,
                coarse_calls,
                coarse_busy_s,
                output_bytes,
            },
        }
    }

    fn check(&self, s: &State, checks: &mut Checks) {
        let solver = &s.ready.solver;
        let op = StokesOperator {
            a: &solver.a_fine,
            b: &solver.b_masked,
            nu: solver.nu,
            np: solver.np,
        };
        let mut r = vec![0.0; s.x.len()];
        op.apply(&s.x, &mut r);
        vec_ops::axpby(1.0, &s.ready.rhs, -1.0, &mut r);
        let rel = vec_ops::norm2(&r) / vec_ops::norm2(&s.ready.rhs);
        let ok = s.stats.converged && rel <= TRUE_RESIDUAL_MAX && s.output_bytes > 0;
        checks.check(
            ok,
            &format!(
                "sinker rep: converged={} true residual {rel:.3e}",
                s.stats.converged
            ),
        );
        if self.check_band {
            let its = s.stats.iterations as f64;
            checks.check(
                (its - REFERENCE_ITS).abs() <= ITS_BAND * REFERENCE_ITS,
                &format!("sinker iterations {its} outside ±15 % of {REFERENCE_ITS}"),
            );
        }
    }

    fn layers(&self, s: &State, spans: &[Span], out: &mut Layers) {
        spans_to_layers(
            spans,
            &[
                ("core.construct_s", "core.construct"),
                ("core.coeff_s", "core.coeff"),
                ("core.setup_cold_s", "core.setup_cold"),
                ("core.solve_s", "core.solve"),
                ("core.output_s", "core.output"),
            ],
            out,
        );
        let its = s.stats.iterations as f64;
        out.insert("core.krylov_its", its);
        out.insert("core.s_per_krylov_it", s.solve_s / its.max(1.0));
        out.insert("core.output_mb", s.output_bytes as f64 / 1e6);
        out.insert("mpm.points", s.ready.model.points.len() as f64);

        let model = &s.ready.model;
        let tables = Q2QuadTables::standard();
        SolverProbe {
            hier_meshes: &model.hier.meshes,
            kernel: &s.ready.solver.a_fine,
            kernel_applies: s.fine_applies as f64,
            krylov_its: its,
            vcycles: s.coarse_calls as f64,
            coarse_busy_s: s.coarse_busy_s,
            solve_s: s.solve_s,
            smoke: self.smoke,
        }
        .run(
            &s.ready.solver,
            &s.ready.fields,
            &s.ready.rhs[..s.ready.solver.nu],
            &tables,
            out,
        );
        // Rebuild through a warm cache after perturbing η: what a
        // re-linearization pays.
        let mut cache = SetupCache::new();
        let build = |eta: &[f64], cache: &mut SetupCache| {
            build_stokes_solver_cached(&model.hier, eta, &model.bcs, &gmg(), None, cache)
        };
        drop(build(&s.ready.fields.eta_corner, &mut cache));
        let eta = perturbed(&s.ready.fields.eta_corner);
        out.insert(
            "core.setup_warm_s",
            probe_seconds(3, || drop(build(&eta, &mut cache))),
        );
    }
}

/// η scaled by 1 ± 1e-3: every value-dependent part of a rebuild reruns.
pub fn perturbed(eta: &[f64]) -> Vec<f64> {
    eta.iter()
        .enumerate()
        .map(|(i, &e)| e * (1.0 + 1e-3 * (i as f64).sin()))
        .collect()
}

/// Probes on a built Stokes solver, shared by `sinker12` (3 levels,
/// matrix-free fine level) and `rift_steps` (2 levels, assembled fine
/// level). Times are per call (median of a few calls on the live solver);
/// a `.share` is per-call time × calls ÷ the solve span.
pub struct SolverProbe<'a> {
    pub hier_meshes: &'a [StructuredMesh],
    /// The matrix-free tensor kernel the Krylov method applies
    /// (`MatMult_Tensor`), and its applications inside the solve.
    pub kernel: &'a dyn LinearOperator,
    pub kernel_applies: f64,
    pub krylov_its: f64,
    pub vcycles: f64,
    pub coarse_busy_s: f64,
    pub solve_s: f64,
    /// Size the bandwidth probe against L2 only (no roofline fraction).
    pub smoke: bool,
}

const PROBE_CALLS: usize = 9;

impl SolverProbe<'_> {
    pub fn run(
        &self,
        solver: &StokesSolver,
        fields: &CoefficientFields,
        rhs_u: &[f64],
        tables: &Q2QuadTables,
        out: &mut Layers,
    ) {
        let us = |s: f64| s * 1e6;
        let nu = solver.nu;
        let fine_mesh = self.hier_meshes.last().expect("a fine mesh");
        let nel = fine_mesh.num_elements() as f64;
        let mut y = vec![0.0; nu];

        // Roofline denominators, same process as the operator probe.
        let stream = machine::stream_triad(3, !self.smoke);
        let peak = machine::peak_gflops();
        out.insert("machine.stream_gb_s", stream.gb_s);
        out.insert("machine.peak_gflops", peak);
        eprintln!(
            "triad arrays {} MiB each against a {} MiB cache (4x LLC reached: {})",
            stream.array_bytes >> 20,
            stream.cache_bytes >> 20,
            stream.beyond_llc
        );

        // The tensor kernel against its analytic flop/byte model (bytes
        // computed for perfect cache reuse, not measured).
        let model = ops::tensor_model();
        let apply_s = probe_seconds(PROBE_CALLS, || self.kernel.apply(rhs_u, &mut y));
        let gflops = model.flops as f64 * nel / apply_s / 1e9;
        let intensity = model.intensity().1;
        out.insert("ops.apply.us", us(apply_s));
        out.insert("ops.apply.calls", self.kernel_applies);
        out.insert(
            "ops.apply.share",
            apply_s * self.kernel_applies / self.solve_s,
        );
        out.insert("ops.apply.gflops", gflops);
        out.insert("ops.apply.flop_per_byte", intensity);
        if stream.beyond_llc {
            out.insert(
                "ops.apply.roofline_frac",
                gflops / peak.min(stream.gb_s * intensity),
            );
        }
        let batched = ops::build_viscous_operator(
            OperatorKind::TensorBatched,
            fine_mesh,
            fields.eta_qp.clone(),
            &solver.bc,
        );
        out.insert(
            "ops.batched.us",
            us(probe_seconds(PROBE_CALLS, || batched.apply(rhs_u, &mut y))),
        );

        // V-cycle on the real right-hand side, then its parts per level.
        let vcycle_s = probe_seconds(PROBE_CALLS, || solver.mg.apply(rhs_u, &mut y));
        out.insert("mg.vcycle.us", us(vcycle_s));
        out.insert("mg.vcycle.calls", self.vcycles);
        out.insert("mg.vcycle.share", vcycle_s * self.vcycles / self.solve_s);
        const SMOOTH: [(&str, &str); 2] = [
            ("mg.smooth.L1.us", "mg.smooth.L1.share"),
            ("mg.smooth.L2.us", "mg.smooth.L2.share"),
        ];
        const RESIDUAL: [&str; 2] = ["mg.residual.L1.us", "mg.residual.L2.us"];
        const RESTRICT: [&str; 2] = ["mg.restrict.L1.us", "mg.restrict.L2.us"];
        const PROLONG: [&str; 2] = ["mg.prolong.L1.us", "mg.prolong.L2.us"];
        for (k, level) in solver.mg.levels.iter().enumerate().take(2) {
            let n = level.op.nrows();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let mut x = vec![0.0; n];
            let smooth_s = probe_seconds(PROBE_CALLS, || {
                x.fill(0.0);
                level
                    .smoother
                    .smooth_with(level.op.as_ref(), &b, &mut x, solver.mg.pre_smooth);
            });
            out.insert(SMOOTH[k].0, us(smooth_s));
            // Pre- and post-smoothing: two calls per V-cycle.
            out.insert(SMOOTH[k].1, smooth_s * 2.0 * self.vcycles / self.solve_s);
            let mut r = vec![0.0; n];
            out.insert(
                RESIDUAL[k],
                us(probe_seconds(PROBE_CALLS, || level.op.apply(&b, &mut r))),
            );
            let p = &solver.mg.prolongations[k];
            let transfer = BatchedTransfer::from_csr(p);
            let mut coarse = vec![0.0; p.ncols()];
            out.insert(
                RESTRICT[k],
                us(probe_seconds(PROBE_CALLS, || {
                    transfer.restrict(&b, &mut coarse)
                })),
            );
            out.insert(
                PROLONG[k],
                us(probe_seconds(PROBE_CALLS, || {
                    transfer.prolong(&coarse, &mut r)
                })),
            );
        }
        out.insert("mg.coarse.calls", self.vcycles);
        out.insert("mg.coarse.busy_s", self.coarse_busy_s);
        out.insert(
            "mg.coarse.us",
            us(self.coarse_busy_s / self.vcycles.max(1.0)),
        );
        out.insert("mg.coarse.share", self.coarse_busy_s / self.solve_s);

        // Schur block and the coupling products.
        let np = solver.np;
        let rp: Vec<f64> = (0..np).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut zp = vec![0.0; np];
        let schur_s = probe_seconds(PROBE_CALLS, || solver.schur.apply_inverse(&rp, &mut zp));
        out.insert("fem.schur.us", us(schur_s));
        let b_s = probe_seconds(PROBE_CALLS, || solver.b_masked.spmv(rhs_u, &mut zp));
        let bt_s = probe_seconds(PROBE_CALLS, || solver.b_masked.spmv_transpose(&rp, &mut y));
        out.insert("la.spmv_t.us", us(bt_s));

        // Level-1 assembled matrix: assembly cost and SpMV bandwidth
        // (bytes computed from the array sizes, cache misses ignored).
        let l1 = &self.hier_meshes[1];
        let mut eta_corner = fields.eta_corner.clone();
        for fine in (2..self.hier_meshes.len()).rev() {
            eta_corner = coarsen_corner_field(
                &self.hier_meshes[fine],
                &self.hier_meshes[fine - 1],
                &eta_corner,
            );
        }
        let eta_qp = corners_to_quadrature_log(l1, tables, &eta_corner);
        let bc = ptatin3d::fem::bc::DirichletBc::new();
        let mut a1 = ops::assembled_viscous_op(l1, tables, &eta_qp, &bc);
        out.insert(
            "fem.assemble_viscous_s",
            probe_seconds(3, || {
                a1 = ops::assembled_viscous_op(l1, tables, &eta_qp, &bc)
            }),
        );
        let n1 = a1.nrows();
        let x1: Vec<f64> = (0..n1).map(|i| (i as f64 * 0.23).sin()).collect();
        let mut y1 = vec![0.0; n1];
        let spmv_s = probe_seconds(PROBE_CALLS, || a1.spmv(&x1, &mut y1));
        out.insert("la.spmv.us", us(spmv_s));
        out.insert("la.spmv.gb_s", (a1.bytes() + 16 * n1) as f64 / spmv_s / 1e9);
        let mut z = rhs_u.to_vec();
        let axpy_s = probe_seconds(PROBE_CALLS, || vec_ops::axpy(1e-9, rhs_u, &mut z));
        out.insert("la.axpy.gb_s", (24 * nu) as f64 / axpy_s / 1e9);
        let dot_s = probe_seconds(PROBE_CALLS, || {
            std::hint::black_box(vec_ops::dot(rhs_u, &z));
        });
        out.insert("la.dot.gb_s", (16 * nu) as f64 / dot_s / 1e9);

        // What the Krylov method itself costs: the solve minus one
        // operator action (A, B, Bᵀ) and one preconditioner action
        // (V-cycle, B, Schur block) per iteration.
        let per_it = apply_s + 2.0 * b_s + bt_s + vcycle_s + schur_s;
        out.insert(
            "la.krylov.self_s",
            (self.solve_s - per_it * self.krylov_its).max(0.0),
        );
    }
}
