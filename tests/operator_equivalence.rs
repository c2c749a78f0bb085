//! Cross-crate integration: the five operator applications of §III-D/E
//! must be bit-for-bit interchangeable inside the solver stack — same
//! action, same diagonal, same Krylov trajectory on the same problem.

use ptatin_fem::assemble::Q2QuadTables;
use ptatin_fem::{DirichletBc, VelocityBcBuilder};
use ptatin_la::krylov::{cg, KrylovConfig};
use ptatin_la::operator::LinearOperator;
use ptatin_la::transfer::BatchedTransfer;
use ptatin_la::JacobiPc;
use ptatin_mesh::hierarchy::expand_blocked;
use ptatin_mesh::StructuredMesh;
use ptatin_mg::filter_transfer;
use ptatin_mpm::points::seed_regular;
use ptatin_mpm::projection;
use ptatin_ops::{
    avx2_fma_available, build_viscous_operator, BatchedViscousOp, NewtonData, OperatorKind,
    SimdPath, TensorViscousOp, ViscousOpData, NQP,
};
use ptatin_prng::{Rng, SplitMix64};
use std::sync::Arc;

fn deformed_mesh() -> StructuredMesh {
    let mut mesh = StructuredMesh::new_box(3, 2, 3, [0.0, 1.5], [0.0, 1.0], [0.0, 1.2]);
    mesh.deform(|c| {
        [
            c[0] + 0.04 * (3.1 * c[1]).sin() * c[2],
            c[1] + 0.05 * (2.3 * c[2]).cos() * c[0],
            c[2] - 0.03 * c[0] * c[1],
        ]
    });
    mesh
}

fn wild_eta(nel: usize) -> Vec<f64> {
    (0..nel * NQP)
        .map(|i| 10f64.powf(((i * 37) % 9) as f64 - 4.0))
        .collect()
}

fn bc(mesh: &StructuredMesh) -> DirichletBc {
    VelocityBcBuilder::new(mesh)
        .free_slip(0, true)
        .no_slip(1, true)
        .component(2, false, 2, 0.5)
        .build()
}

const KINDS: [OperatorKind; 5] = [
    OperatorKind::Assembled,
    OperatorKind::MatrixFree,
    OperatorKind::Tensor,
    OperatorKind::TensorC,
    OperatorKind::TensorBatched,
];

#[test]
fn actions_agree_with_9_decade_viscosity_and_mixed_bc() {
    let mesh = deformed_mesh();
    let eta = wild_eta(mesh.num_elements());
    let bc = bc(&mesh);
    let ops: Vec<_> = KINDS
        .iter()
        .map(|&k| build_viscous_operator(k, &mesh, eta.clone(), &bc))
        .collect();
    let n = ops[0].nrows();
    let x: Vec<f64> = (0..n)
        .map(|i| ((i * 97) % 31) as f64 / 15.0 - 1.0)
        .collect();
    let mut yref = vec![0.0; n];
    ops[0].apply(&x, &mut yref);
    let scale = 1.0 + yref.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    for (op, kind) in ops.iter().zip(&KINDS).skip(1) {
        let mut y = vec![0.0; n];
        op.apply(&x, &mut y);
        for i in 0..n {
            assert!(
                (y[i] - yref[i]).abs() < 1e-9 * scale,
                "{:?} differs at dof {i}: {} vs {}",
                kind,
                y[i],
                yref[i]
            );
        }
    }
}

#[test]
fn diagonals_agree() {
    let mesh = deformed_mesh();
    let eta = wild_eta(mesh.num_elements());
    let bc = bc(&mesh);
    let ops: Vec<_> = KINDS
        .iter()
        .map(|&k| build_viscous_operator(k, &mesh, eta.clone(), &bc))
        .collect();
    let dref = ops[0].diagonal().unwrap();
    for (op, kind) in ops.iter().zip(&KINDS).skip(1) {
        let d = op.diagonal().unwrap();
        for i in 0..d.len() {
            assert!(
                (d[i] - dref[i]).abs() < 1e-9 * (1.0 + dref[i].abs()),
                "{kind:?} diagonal differs at {i}"
            );
        }
    }
}

#[test]
fn krylov_iteration_counts_identical_across_kinds() {
    // Same operator action → same CG trajectory (up to roundoff): the
    // iteration counts must match exactly on a well-conditioned solve.
    let mesh = deformed_mesh();
    let eta = vec![1.0; mesh.num_elements() * NQP];
    let bc = VelocityBcBuilder::new(&mesh)
        .no_slip(0, true)
        .no_slip(0, false)
        .no_slip(1, true)
        .no_slip(1, false)
        .no_slip(2, true)
        .no_slip(2, false)
        .build();
    let mut counts = Vec::new();
    for &k in &KINDS {
        let op = build_viscous_operator(k, &mesh, eta.clone(), &bc);
        let n = op.nrows();
        let b: Vec<f64> = {
            let mask = bc.mask(n);
            (0..n).map(|i| if mask[i] { 0.0 } else { 1.0 }).collect()
        };
        let mut x = vec![0.0; n];
        let pc = JacobiPc::from_operator(op.as_ref());
        let stats = cg(
            op.as_ref(),
            &pc,
            &b,
            &mut x,
            &KrylovConfig::default().with_rtol(1e-8),
        );
        assert!(stats.converged);
        counts.push(stats.iterations);
    }
    assert!(
        counts.windows(2).all(|w| w[0].abs_diff(w[1]) <= 1),
        "iteration counts diverge: {counts:?}"
    );
}

/// Build a randomly deformed mesh with the given element dims and a
/// viscosity field spanning several decades, both driven by `rng`.
fn random_setup(
    rng: &mut SplitMix64,
    dims: (usize, usize, usize),
) -> (StructuredMesh, Vec<f64>, DirichletBc) {
    let (mx, my, mz) = dims;
    let mut mesh = StructuredMesh::new_box(mx, my, mz, [0.0, 1.3], [0.0, 0.9], [0.0, 1.1]);
    let (a, b, c) = (
        rng.gen_range(0.01..0.06),
        rng.gen_range(0.01..0.06),
        rng.gen_range(0.01..0.06),
    );
    let (wa, wb) = (rng.gen_range(1.5..4.0), rng.gen_range(1.5..4.0));
    mesh.deform(|p| {
        [
            p[0] + a * (wa * p[1]).sin() * p[2],
            p[1] + b * (wb * p[2]).cos() * p[0],
            p[2] - c * p[0] * p[1],
        ]
    });
    let eta: Vec<f64> = (0..mesh.num_elements() * NQP)
        .map(|_| 10f64.powf(rng.gen_range(-4.0..4.0)))
        .collect();
    let bc = bc(&mesh);
    (mesh, eta, bc)
}

fn random_vector(rng: &mut SplitMix64, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

#[test]
fn tensor_batched_matches_tensor_tightly() {
    // §III-E acceptance: the batched SoA operator must agree with the
    // scalar tensor operator to 1e-12 *relative* on randomized meshes,
    // including element counts that are not multiples of the lane width
    // (ghost-padded tail lanes), mixed Dirichlet masks, and the Newton
    // linearization path.
    let mut rng = SplitMix64::seed_from_u64(0x5eed_bead);
    // nel = 18, 6, 15, 16: three remainder cases + one lane-aligned case.
    for dims in [(3, 2, 3), (2, 3, 1), (5, 1, 3), (4, 2, 2)] {
        for with_newton in [false, true] {
            let (mesh, eta, bc) = random_setup(&mut rng, dims);
            let nel = mesh.num_elements();
            let mut data = ViscousOpData::new(&mesh, eta, &bc);
            if with_newton {
                let newton = NewtonData {
                    eta_prime: (0..nel * NQP).map(|_| rng.gen_range(-0.5..0.5)).collect(),
                    d_sym: (0..nel * NQP)
                        .map(|_| std::array::from_fn(|_| rng.gen_range(-1.0..1.0)))
                        .collect(),
                };
                data = data.with_newton(newton);
            }
            let data = Arc::new(data);
            let tensor = TensorViscousOp::new(data.clone());
            let batched = BatchedViscousOp::new(data.clone());
            let n = tensor.nrows();
            let x = random_vector(&mut rng, n);
            let mut yt = vec![0.0; n];
            let mut yb = vec![0.0; n];
            tensor.apply(&x, &mut yt);
            batched.apply(&x, &mut yb);
            let scale = 1.0 + yt.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for i in 0..n {
                assert!(
                    (yb[i] - yt[i]).abs() < 1e-12 * scale,
                    "dims {dims:?} newton={with_newton} dof {i}: batched {} vs tensor {}",
                    yb[i],
                    yt[i]
                );
            }
        }
    }
}

#[test]
fn batched_avx_and_portable_paths_agree_bitwise() {
    // The portable path is written with `f64::mul_add` in exactly the
    // fusion order of the AVX2+FMA path, so on hardware that has both the
    // two must produce bit-identical output.
    if !avx2_fma_available() {
        eprintln!("skipping: host lacks AVX2+FMA");
        return;
    }
    let mut rng = SplitMix64::seed_from_u64(0xb17_b17);
    for dims in [(3, 2, 3), (5, 1, 3)] {
        let (mesh, eta, bc) = random_setup(&mut rng, dims);
        let data = Arc::new(ViscousOpData::new(&mesh, eta, &bc));
        let portable = BatchedViscousOp::with_path(data.clone(), SimdPath::Portable);
        let avx = BatchedViscousOp::with_path(data.clone(), SimdPath::Avx2Fma);
        let n = portable.nrows();
        let x = random_vector(&mut rng, n);
        let mut yp = vec![0.0; n];
        let mut ya = vec![0.0; n];
        portable.apply(&x, &mut yp);
        avx.apply(&x, &mut ya);
        for i in 0..n {
            assert_eq!(
                yp[i].to_bits(),
                ya[i].to_bits(),
                "dims {dims:?} dof {i}: portable {} vs avx {}",
                yp[i],
                ya[i]
            );
        }
    }
}

#[test]
fn batched_projection_pipeline_matches_scalar_randomized() {
    // P2G + G2P, batched vs scalar reference, over randomized deformed
    // meshes and jittered swarms: element counts off the lane width
    // (nel % 4 ≠ 0), swarm sizes off the lane width (npts % 4 ≠ 0),
    // unlocated points, and both SIMD paths. Both directions are strictly
    // bitwise against their scalar references on every path: the lane
    // scatter keeps the scalar per-corner accumulation order, because
    // downstream consumers (SA-AMG strength-of-connection) make discrete
    // decisions that bifurcate on the last bit of the corner field.
    let mut rng = SplitMix64::seed_from_u64(0x9a7_1e57);
    for (dims, np) in [((3, 3, 3), 3), ((2, 2, 2), 2), ((5, 1, 3), 3)] {
        let (mesh, _, _) = random_setup(&mut rng, dims);
        let jitter = rng.gen_range(0.0..0.45);
        let mut pts = seed_regular(&mesh, np, jitter, &mut rng, |_| 0);
        // A few unlocated points must contribute nothing.
        for p in (0..pts.len()).step_by(17) {
            pts.element[p] = u32::MAX;
        }
        let vals: Vec<f64> = (0..pts.len()).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let value = |p: usize| vals[p];
        let reference = projection::project_to_corners_scalar(&mesh, &pts, value, |i| i as f64);
        let portable = projection::project_to_corners_with_path(
            &mesh,
            &pts,
            value,
            |i| i as f64,
            SimdPath::Portable,
        );
        for (c, (a, b)) in portable.iter().zip(&reference).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "dims {dims:?} np={np} corner {c}: batched {a} vs scalar {b}"
            );
        }
        if avx2_fma_available() {
            let avx = projection::project_to_corners_with_path(
                &mesh,
                &pts,
                value,
                |i| i as f64,
                SimdPath::Avx2Fma,
            );
            for (c, (a, b)) in avx.iter().zip(&portable).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "dims {dims:?} corner {c}: avx {a} vs portable {b}"
                );
            }
        }

        // G2P: quadrature interpolation of a random corner field.
        let tables = Q2QuadTables::standard();
        let corner_field: Vec<f64> = (0..mesh.num_corners())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let qref = projection::corners_to_quadrature_scalar(&mesh, &tables, &corner_field);
        let mut paths = vec![SimdPath::Portable];
        if avx2_fma_available() {
            paths.push(SimdPath::Avx2Fma);
        }
        for path in paths {
            let q =
                projection::corners_to_quadrature_with_path(&mesh, &tables, &corner_field, path);
            assert_eq!(q.len(), qref.len());
            for (i, (a, b)) in q.iter().zip(&qref).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "dims {dims:?} {path:?} qp {i}: {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn batched_transfer_matches_csr_randomized() {
    // The lane-packed grid transfer against the CSR reference on randomized
    // deformed hierarchies with mixed-BC-filtered transfer matrices:
    // prolongation is bitwise (`spmv` row order == slot order), restriction
    // matches the scalar transpose apply to within zero-sign/shortcut
    // effects (≤ 1e-12 relative), and the two SIMD paths are bitwise
    // identical to each other in both directions.
    let mut rng = SplitMix64::seed_from_u64(0x7a5_fe2);
    for dims in [(2, 2, 2), (4, 2, 2), (2, 4, 6)] {
        let (fine, _, _) = random_setup(&mut rng, dims);
        let hier = ptatin_mesh::hierarchy::MeshHierarchy::new(fine, 2);
        let mut p = expand_blocked(&hier.prolongations[0], 3);
        let fine_mask = bc(&hier.meshes[1]).mask(p.nrows());
        let coarse_mask = bc(&hier.meshes[0]).mask(p.ncols());
        filter_transfer(&mut p, &fine_mask, &coarse_mask);

        let xc: Vec<f64> = (0..p.ncols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let r: Vec<f64> = (0..p.nrows()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut y_ref = vec![0.0; p.nrows()];
        p.spmv(&xc, &mut y_ref);
        let mut yc_ref = vec![0.0; p.ncols()];
        p.spmv_transpose(&r, &mut yc_ref);

        let mut variants = vec![BatchedTransfer::with_path(&p, SimdPath::Portable)];
        if avx2_fma_available() {
            variants.push(BatchedTransfer::with_path(&p, SimdPath::Avx2Fma));
        }
        let mut prev: Option<(Vec<f64>, Vec<f64>)> = None;
        for bt in &variants {
            let mut y = vec![0.0; p.nrows()];
            bt.prolong(&xc, &mut y);
            for (i, (a, b)) in y.iter().zip(&y_ref).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "dims {dims:?} {:?} prolong row {i}: {a} vs {b}",
                    bt.path()
                );
            }
            let mut yc = vec![0.0; p.ncols()];
            bt.restrict(&r, &mut yc);
            for (i, (a, b)) in yc.iter().zip(&yc_ref).enumerate() {
                let scale = b.abs().max(1.0);
                assert!(
                    (a - b).abs() <= 1e-12 * scale,
                    "dims {dims:?} {:?} restrict row {i}: {a} vs {b}",
                    bt.path()
                );
            }
            if let Some((py, pyc)) = &prev {
                assert!(y.iter().zip(py).all(|(a, b)| a.to_bits() == b.to_bits()));
                assert!(yc.iter().zip(pyc).all(|(a, b)| a.to_bits() == b.to_bits()));
            }
            prev = Some((y, yc));
        }
    }
}

#[test]
fn element_matrix_consistent_with_operator() {
    // The dense element kernel used by assembly must match the matrix-free
    // action applied to a one-element mesh.
    let mesh = StructuredMesh::new_box(1, 1, 1, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
    let tables = Q2QuadTables::standard();
    let eta: Vec<f64> = (0..NQP).map(|q| 1.0 + q as f64).collect();
    let corners = mesh.element_corner_coords(0);
    let ae = ptatin_fem::element_viscous_matrix(&tables, &corners, &eta);
    let op = build_viscous_operator(
        OperatorKind::Tensor,
        &mesh,
        eta.clone(),
        &DirichletBc::new(),
    );
    let n = op.nrows();
    assert_eq!(n, 81);
    for col in [0usize, 40, 80] {
        let mut x = vec![0.0; n];
        x[col] = 1.0;
        let mut y = vec![0.0; n];
        op.apply(&x, &mut y);
        for row in 0..n {
            // Map (node-major interleaved) dof == local dof on 1 element.
            let expect = ae[row * n + col];
            assert!(
                (y[row] - expect).abs() < 1e-10 * (1.0 + expect.abs()),
                "entry ({row},{col}): {} vs {}",
                y[row],
                expect
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Setup-phase overhaul: SIMD-batched assembly, pattern-reuse re-assembly
// and cached solver rebuilds (the perf work must be invisible in the bits).
// ---------------------------------------------------------------------------

use ptatin_bench::sinker_setup;
use ptatin_core::models::sinker::sinker_bc;
use ptatin_core::solver::{
    build_stokes_solver_cached, CoarseKind, GmgConfig, SetupCache, StokesSolver,
};
use ptatin_fem::pattern::ViscousPattern;
use ptatin_la::operator::Preconditioner;
use ptatin_la::par;
use ptatin_la::simd::F64x4;
use ptatin_ops::viscous_numeric_batched_into;
use std::sync::Mutex;

/// Serializes tests that touch the process-global worker-pool size.
static NT_LOCK: Mutex<()> = Mutex::new(());

/// Deformed meshes whose element counts hit every batch remainder
/// (`ne % 4` of 0, 1, 2 and 3) so the ghost-padded tail lanes are covered.
fn remainder_meshes() -> Vec<StructuredMesh> {
    [(4, 2, 2), (3, 3, 1), (3, 2, 3), (1, 1, 3)]
        .iter()
        .map(|&(mx, my, mz)| {
            let mut mesh = StructuredMesh::new_box(mx, my, mz, [0.0, 1.4], [0.0, 1.1], [0.0, 0.9]);
            mesh.deform(|c| {
                [
                    c[0] + 0.03 * (2.7 * c[1]).sin() * c[2],
                    c[1] - 0.04 * (1.9 * c[0]).cos() * c[2],
                    c[2] + 0.02 * c[0] * c[1],
                ]
            });
            mesh
        })
        .collect()
}

#[test]
fn batched_numeric_assembly_bitwise_matches_scalar_across_threads_and_paths() {
    // The SoA-batched numeric phase must reproduce the scalar element
    // kernels bit-for-bit — on every SIMD path, at every thread count,
    // and on meshes exercising every tail-lane remainder. The in-order
    // serial scatter makes the thread count invisible by construction;
    // this pins it.
    let _g = NT_LOCK.lock().unwrap();
    let tables = Q2QuadTables::standard();
    let mut paths = vec![SimdPath::Portable];
    if avx2_fma_available() {
        paths.push(SimdPath::Avx2Fma);
    }
    for mesh in remainder_meshes() {
        let eta = wild_eta(mesh.num_elements());
        let pat = ViscousPattern::build(&mesh);
        par::set_num_threads(1);
        let mut scratch_s: Vec<f64> = Vec::new();
        let mut vref = vec![0.0; pat.nnz()];
        pat.numeric_scalar_into(&mesh, &tables, &eta, &mut scratch_s, &mut vref);
        for nt in [1usize, 2, 4] {
            par::set_num_threads(nt);
            let mut v = vec![0.0; pat.nnz()];
            pat.numeric_scalar_into(&mesh, &tables, &eta, &mut scratch_s, &mut v);
            assert!(
                v.iter().zip(&vref).all(|(a, b)| a.to_bits() == b.to_bits()),
                "scalar numeric phase not thread-invariant at nt={nt}"
            );
            for &path in &paths {
                let mut scratch_b: Vec<F64x4> = Vec::new();
                v.fill(f64::NAN);
                viscous_numeric_batched_into(
                    &pat,
                    &mesh,
                    &tables,
                    &eta,
                    path,
                    &mut scratch_b,
                    &mut v,
                );
                for (i, (a, b)) in v.iter().zip(&vref).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "batched {path:?} nt={nt} differs at nnz {i}: {a} vs {b}"
                    );
                }
            }
        }
        par::set_num_threads(1);
    }
}

#[test]
fn pattern_assembly_with_bc_matches_public_assembled_op_bitwise() {
    // The symbolic/numeric split plus Dirichlet elimination is exactly the
    // one-shot public constructor: same pattern, same values, same mask.
    let _g = NT_LOCK.lock().unwrap();
    par::set_num_threads(1);
    let mesh = deformed_mesh();
    let eta = wild_eta(mesh.num_elements());
    let bc = bc(&mesh);
    let tables = Q2QuadTables::standard();
    let pat = ViscousPattern::build(&mesh);
    let mut scratch: Vec<f64> = Vec::new();
    let mut values = vec![0.0; pat.nnz()];
    pat.numeric_scalar_into(&mesh, &tables, &eta, &mut scratch, &mut values);
    let mut a = pat.to_csr(values);
    a.zero_rows_cols_set_identity(&bc.dofs);
    let aref = ptatin_ops::assembled_viscous_op(&mesh, &tables, &eta, &bc);
    assert_eq!(a.indptr, aref.indptr);
    assert_eq!(a.indices, aref.indices);
    assert!(
        a.values
            .iter()
            .zip(&aref.values)
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "pattern-path values differ from assembled_viscous_op"
    );
}

/// Deterministic bitwise probe of a built solver: the fine operator action,
/// one V-cycle application (smoother bounds, transfers, coarse solve) and
/// the coupling-block values.
fn solver_probe(solver: &StokesSolver) -> Vec<u64> {
    let nu = solver.nu;
    let x: Vec<f64> = (0..nu)
        .map(|i| ((i * 131) % 17) as f64 / 8.0 - 1.0)
        .collect();
    let mut y = vec![0.0; nu];
    solver.a_fine.apply(&x, &mut y);
    let mut z = vec![0.0; nu];
    solver.mg.apply(&x, &mut z);
    y.iter()
        .chain(&z)
        .map(|v| v.to_bits())
        .chain(solver.b_masked.values.iter().map(|v| v.to_bits()))
        .collect()
}

#[test]
fn cached_solver_rebuild_bitwise_matches_fresh_build() {
    // The re-linearization path Picard/Newton take (pattern reuse, value
    // buffers, transfer transposes, λ memos) must produce exactly the
    // solver a from-scratch build produces — after a viscosity update
    // (memo misses), and again on a frozen viscosity (memo hits).
    let _g = NT_LOCK.lock().unwrap();
    par::set_num_threads(1);
    let (model, fields) = sinker_setup(4, 2, 1e4);
    let bcs: Vec<DirichletBc> = model.hier.meshes.iter().map(sinker_bc).collect();
    let gmg = GmgConfig {
        levels: 2,
        galerkin_coarsest: false,
        coarse: CoarseKind::Amg { coarse_blocks: 2 },
        ..GmgConfig::default()
    };
    let eta0 = fields.eta_corner.clone();
    let eta1: Vec<f64> = eta0.iter().map(|&v| 2.0 * v).collect();

    // Fresh builds, one per viscosity state.
    let mut scratch_cache = SetupCache::new();
    let fresh0 = solver_probe(&build_stokes_solver_cached(
        &model.hier,
        &eta0,
        &bcs,
        &gmg,
        None,
        &mut SetupCache::new(),
    ));
    let fresh1 = solver_probe(&build_stokes_solver_cached(
        &model.hier,
        &eta1,
        &bcs,
        &gmg,
        None,
        &mut SetupCache::new(),
    ));
    assert_ne!(fresh0, fresh1, "viscosity update must change the operator");

    // One cache carried through the η0 → η1 → η1 sequence.
    let s0 = solver_probe(&build_stokes_solver_cached(
        &model.hier,
        &eta0,
        &bcs,
        &gmg,
        None,
        &mut scratch_cache,
    ));
    assert_eq!(s0, fresh0, "first cached build differs from fresh");
    let s1 = solver_probe(&build_stokes_solver_cached(
        &model.hier,
        &eta1,
        &bcs,
        &gmg,
        None,
        &mut scratch_cache,
    ));
    assert_eq!(s1, fresh1, "rebuild after η update differs from fresh");
    let s2 = solver_probe(&build_stokes_solver_cached(
        &model.hier,
        &eta1,
        &bcs,
        &gmg,
        None,
        &mut scratch_cache,
    ));
    assert_eq!(
        s2, fresh1,
        "frozen-η rebuild (memo hits) differs from fresh"
    );
}
