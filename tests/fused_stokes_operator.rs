//! The fused saddle-point pass of the batched kernel
//! (`LinearOperator::apply_stokes` on `BatchedViscousOp`): `y_u = J_uu x_u +
//! Bᵀ x_p`, `y_p = B x_u` in the one element loop must be the block
//! composition `A x_u + b_maskedᵀ x_p`, `b_masked x_u` it replaces in the
//! Krylov operator — on boxes and ALE-deformed rift meshes, on every colour
//! tail, with the sinker and rift Dirichlet sets, Picard and Newton, at
//! Δη = 1 and 10⁶ — bitwise the same on both SIMD paths and at every thread
//! count, and unmasked it must be the parent's nonlinear residual.

use ptatin_core::models::rift::rift_bc;
use ptatin_core::models::sinker::sinker_bc;
use ptatin_core::nonlinear::stokes_residual;
use ptatin_fem::assemble::{assemble_gradient, Q2QuadTables};
use ptatin_fem::DirichletBc;
use ptatin_la::csr::Csr;
use ptatin_la::operator::{LinearOperator, TimedOperator};
use ptatin_la::par;
use ptatin_mesh::StructuredMesh;
use ptatin_mg::gmg::ArcOp;
use ptatin_ops::{avx2_fma_available, BatchedViscousOp, NewtonData, SimdPath, ViscousOpData, NQP};
use ptatin_prng::{Rng, StdRng};
use std::sync::{Arc, Mutex};

/// Serializes the test that pins the process-global thread count.
static NT_LOCK: Mutex<()> = Mutex::new(());

/// Log-uniform viscosity over `delta_eta`, one value per quadrature point.
fn rough_eta(nel: usize, delta_eta: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..nel * NQP)
        .map(|_| delta_eta.powf(rng.gen_range(0.0..1.0)))
        .collect()
}

fn rough_newton(nel: usize, seed: u64) -> NewtonData {
    let mut rng = StdRng::seed_from_u64(seed);
    NewtonData {
        eta_prime: (0..nel * NQP).map(|_| rng.gen_range(-0.4..0.0)).collect(),
        d_sym: (0..nel * NQP)
            .map(|_| std::array::from_fn(|_| rng.gen_range(-1.0..1.0)))
            .collect(),
    }
}

fn random_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// A rift box after an ALE step: every column's top moved by up to ±8 %.
fn remeshed_rift(mx: usize, my: usize, mz: usize, seed: u64) -> StructuredMesh {
    let mut mesh = StructuredMesh::new_box(mx, my, mz, [0.0, 6.0], [0.0, 1.0], [0.0, 3.0]);
    let (nx, _, nz) = mesh.node_dims();
    let mut rng = StdRng::seed_from_u64(seed);
    let new_top: Vec<f64> = (0..nx * nz)
        .map(|_| 1.0 + rng.gen_range(-0.08..0.08))
        .collect();
    mesh.remesh_vertical(1, &new_top);
    mesh
}

/// The coupling block as the solver holds it: `b_full` and its twin with the
/// Dirichlet velocity columns zeroed.
fn gradient_blocks(mesh: &StructuredMesh, bc: &DirichletBc) -> (Csr, Csr) {
    let b_full = assemble_gradient(mesh, &Q2QuadTables::standard());
    let mut b_masked = b_full.clone();
    b_masked.zero_cols(&bc.dofs);
    (b_full, b_masked)
}

fn op_data(
    mesh: &StructuredMesh,
    bc: &DirichletBc,
    delta_eta: f64,
    newton: bool,
    seed: u64,
) -> Arc<ViscousOpData> {
    let nel = mesh.num_elements();
    let mut data = ViscousOpData::new(mesh, rough_eta(nel, delta_eta, seed), bc);
    if newton {
        data = data.with_newton(rough_newton(nel, seed + 1));
    }
    Arc::new(data)
}

fn stokes(op: &dyn LinearOperator, b: &Csr, xu: &[f64], xp: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut yu = vec![f64::NAN; xu.len()];
    let mut yp = vec![f64::NAN; xp.len()];
    op.apply_stokes(b, xu, xp, &mut yu, &mut yp);
    (yu, yp)
}

/// The block composition the Krylov operator ran before the fused entry:
/// the viscous action plus two sweeps over the assembled coupling block.
fn stokes_by_blocks(
    op: &dyn LinearOperator,
    b: &Csr,
    xu: &[f64],
    xp: &[f64],
) -> (Vec<f64>, Vec<f64>) {
    let mut yu = vec![f64::NAN; xu.len()];
    let mut yp = vec![f64::NAN; xp.len()];
    op.apply(xu, &mut yu);
    let mut bt = vec![f64::NAN; xu.len()];
    b.spmv_transpose(xp, &mut bt);
    for i in 0..yu.len() {
        yu[i] += bt[i];
    }
    b.spmv(xu, &mut yp);
    (yu, yp)
}

fn max_abs(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, x| m.max(x.abs()))
}

fn assert_close(got: &[f64], want: &[f64], rtol: f64, what: &str) {
    let scale = max_abs(want);
    assert!(scale > 0.0, "{what}: reference is identically zero");
    for i in 0..want.len() {
        assert!(
            (got[i] - want[i]).abs() <= rtol * scale,
            "{what}: entry {i}: {} vs {} (scale {scale:e})",
            got[i],
            want[i]
        );
    }
}

fn assert_bitwise(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len());
    for i in 0..a.len() {
        assert_eq!(
            a[i].to_bits(),
            b[i].to_bits(),
            "{what}: entry {i}: {} vs {}",
            a[i],
            b[i]
        );
    }
}

/// Fused pass against the block composition around the same kernel.
fn check_against_blocks(mesh: &StructuredMesh, bc: &DirichletBc, what: &str) {
    let (_, b_masked) = gradient_blocks(mesh, bc);
    for (k, (delta_eta, newton)) in [(1.0, false), (1e6, false), (1.0, true), (1e6, true)]
        .into_iter()
        .enumerate()
    {
        let op = BatchedViscousOp::new(op_data(mesh, bc, delta_eta, newton, 11 + k as u64));
        let xu = random_vec(op.nrows(), 3);
        let xp = random_vec(b_masked.nrows(), 4);
        let (yu, yp) = stokes(&op, &b_masked, &xu, &xp);
        let (ru, rp) = stokes_by_blocks(&op, &b_masked, &xu, &xp);
        let tag = format!("{what}, Δη = {delta_eta:e}, newton = {newton}");
        assert_close(&yu, &ru, 1e-12, &format!("{tag}: y_u"));
        assert_close(&yp, &rp, 1e-12, &format!("{tag}: y_p"));
        // Constrained rows are the identity, exactly.
        for &d in &bc.dofs {
            assert_eq!(yu[d].to_bits(), xu[d].to_bits(), "{tag}: Dirichlet row {d}");
        }
    }
}

#[test]
fn fused_matches_block_composition_with_sinker_and_rift_dirichlet_sets() {
    let cube = StructuredMesh::new_box(6, 6, 6, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
    check_against_blocks(&cube, &sinker_bc(&cube), "sinker box");
    let rift = remeshed_rift(6, 2, 4, 7);
    check_against_blocks(&rift, &rift_bc(&rift, 0.5, 0.0), "remeshed rift");
    check_against_blocks(
        &rift,
        &rift_bc(&rift, 0.5, 0.2),
        "remeshed rift, shortening",
    );
}

#[test]
fn fused_matches_block_composition_on_every_colour_tail() {
    let mut tails = [false; 4];
    for (mx, my, mz) in [(2, 2, 2), (4, 2, 2), (6, 2, 2), (4, 4, 2), (5, 3, 1)] {
        let mesh = remeshed_rift(mx, my, mz, 5);
        let bc = rift_bc(&mesh, 0.5, 0.0);
        for colour in &op_data(&mesh, &bc, 1.0, false, 1).colors {
            if !colour.is_empty() {
                tails[colour.len() % 4] = true;
            }
        }
        check_against_blocks(&mesh, &bc, &format!("{mx}x{my}x{mz}"));
    }
    assert_eq!(tails, [true; 4], "every ne % 4 colour tail is exercised");
}

#[test]
fn fused_portable_and_avx2_agree_bitwise() {
    if !avx2_fma_available() {
        return; // nothing to compare on this host
    }
    let mesh = remeshed_rift(5, 2, 3, 9);
    let bc = rift_bc(&mesh, 0.5, 0.0);
    let (_, b_masked) = gradient_blocks(&mesh, &bc);
    for newton in [false, true] {
        let data = op_data(&mesh, &bc, 1e6, newton, 21);
        let portable = BatchedViscousOp::with_path(data.clone(), SimdPath::Portable);
        let avx = BatchedViscousOp::with_path(data, SimdPath::Avx2Fma);
        let xu = random_vec(portable.nrows(), 5);
        let xp = random_vec(b_masked.nrows(), 6);
        let (pu, pp) = stokes(&portable, &b_masked, &xu, &xp);
        let (au, ap) = stokes(&avx, &b_masked, &xu, &xp);
        assert_bitwise(&pu, &au, "y_u across SIMD paths");
        assert_bitwise(&pp, &ap, "y_p across SIMD paths");
    }
}

#[test]
fn fused_thread_counts_agree_bitwise() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mesh = remeshed_rift(6, 2, 4, 13);
    let bc = rift_bc(&mesh, 0.5, 0.0);
    let (_, b_masked) = gradient_blocks(&mesh, &bc);
    let op = BatchedViscousOp::new(op_data(&mesh, &bc, 1e6, true, 31));
    let xu = random_vec(op.nrows(), 7);
    let xp = random_vec(b_masked.nrows(), 8);
    let mut runs = Vec::new();
    for nt in [1, 2, 4] {
        par::set_num_threads(nt);
        runs.push(stokes(&op, &b_masked, &xu, &xp));
    }
    par::set_num_threads(0);
    for (yu, yp) in &runs[1..] {
        assert_bitwise(yu, &runs[0].0, "y_u across thread counts");
        assert_bitwise(yp, &runs[0].1, "y_p across thread counts");
    }
}

#[test]
fn unmasked_fused_residual_matches_the_parents_composition() {
    let mesh = remeshed_rift(6, 2, 4, 17);
    let bc = rift_bc(&mesh, 0.5, 0.0);
    let (b_full, _) = gradient_blocks(&mesh, &bc);
    for delta_eta in [1.0, 1e6] {
        // The residual operator of `SetupCache::residual_operator`: the
        // batched kernel without the Dirichlet mask.
        let mut data = (*op_data(&mesh, &bc, delta_eta, false, 41)).clone();
        data.constrained = Vec::new();
        let a = BatchedViscousOp::new(Arc::new(data));
        let (nu, np) = (a.nrows(), b_full.nrows());
        let (u, p, f_u) = (random_vec(nu, 1), random_vec(np, 2), random_vec(nu, 3));
        let mut out = vec![f64::NAN; nu + np];
        stokes_residual(&a, &b_full, &bc, &u, &p, &f_u, &mut out);

        // What `stokes_residual` computed before the fused entry existed.
        let mut want = vec![0.0; nu + np];
        let (fu, fp) = want.split_at_mut(nu);
        a.apply(&u, fu);
        let mut bt = vec![0.0; nu];
        b_full.spmv_transpose(&p, &mut bt);
        for i in 0..nu {
            fu[i] += bt[i] - f_u[i];
        }
        bc.zero_constrained(fu);
        b_full.spmv(&u, fp);

        assert_close(&out[..nu], &want[..nu], 1e-12, "F_u");
        assert_close(&out[nu..], &want[nu..], 1e-12, "F_p");
        for &d in &bc.dofs {
            assert_eq!(out[d], 0.0, "F_u is zero on Dirichlet dof {d}");
        }
    }
}

#[test]
fn wrappers_forward_the_fused_entry_and_keep_counting() {
    let mesh = remeshed_rift(4, 2, 2, 19);
    let bc = rift_bc(&mesh, 0.5, 0.0);
    let (_, b_masked) = gradient_blocks(&mesh, &bc);
    let op: ArcOp = Arc::new(BatchedViscousOp::new(op_data(&mesh, &bc, 1e6, false, 51)));
    let xu = random_vec(op.nrows(), 9);
    let xp = random_vec(b_masked.nrows(), 10);
    let (du, dp) = stokes(op.as_ref(), &b_masked, &xu, &xp);

    // `Arc<TimedOperator<ArcOp>>` behind an `ArcOp` is `StokesSolver::a_fine`.
    let timed = Arc::new(TimedOperator::new(op.clone()));
    let a_fine: ArcOp = timed.clone();
    for calls in 1..=3 {
        let (yu, yp) = stokes(&&a_fine, &b_masked, &xu, &xp);
        assert_eq!(timed.calls(), calls, "one count per fused apply");
        assert_bitwise(&yu, &du, "y_u through the wrappers");
        assert_bitwise(&yp, &dp, "y_p through the wrappers");
    }
    let mut y = vec![0.0; op.nrows()];
    a_fine.apply(&xu, &mut y);
    assert_eq!(timed.calls(), 4);
    assert!(timed.seconds() > 0.0);
}
