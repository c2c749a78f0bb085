//! The divergence-only pass of the batched kernel
//! (`LinearOperator::apply_divergence` on `BatchedViscousOp`), which forms
//! the block preconditioner's `B z_u`: its `y_p` must be bitwise the one the
//! fused `apply_stokes` writes — masked and unmasked, on colour tails padded
//! with ghost slots, on both SIMD paths and at every thread count — and the
//! assembled block's product to round-off. And the on-demand contract of the
//! gradient block: the production sinker and rift solves never assemble it,
//! while a reference `fine_kind` assembles it once and shares it.

use ptatin_bench::sinker_setup;
use ptatin_core::models::rift::{rift_bc, RiftConfig, RiftModel};
use ptatin_core::solver::{
    build_stokes_solver_cached, CoarseKind, GmgConfig, KrylovOperatorChoice, SetupCache,
};
use ptatin_fem::assemble::{assemble_gradient, Q2QuadTables};
use ptatin_fem::DirichletBc;
use ptatin_la::coupling::CouplingBlock;
use ptatin_la::csr::Csr;
use ptatin_la::krylov::KrylovConfig;
use ptatin_la::operator::{LinearOperator, TimedOperator};
use ptatin_la::par;
use ptatin_la::shared::SharedCsr;
use ptatin_mesh::StructuredMesh;
use ptatin_ops::{avx2_fma_available, BatchedViscousOp, SimdPath, ViscousOpData, NQP};
use ptatin_prng::{Rng, StdRng};
use std::sync::{Arc, Mutex};

/// Serializes the tests that pin the process-global thread count.
static NT_LOCK: Mutex<()> = Mutex::new(());

fn random_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// A 5×3×3 box with a sheared, bulged interior: its 45 elements fall into
/// colours of 12, 8, 6, 6, 4, 4, 3 and 2, so four colours end in a lane
/// padded with ghost slots.
fn tail_mesh() -> StructuredMesh {
    let mut mesh = StructuredMesh::new_box(5, 3, 3, [0.0, 2.5], [0.0, 1.0], [0.0, 1.5]);
    mesh.deform(|c| {
        [
            c[0] + 0.04 * c[1] * c[2],
            c[1] + 0.03 * (c[0] * 1.3).sin(),
            c[2] - 0.02 * c[0] * c[1],
        ]
    });
    mesh
}

/// The operator under test: masked by the rift Dirichlet set, or unmasked
/// like the nonlinear residual's operator.
fn operator(mesh: &StructuredMesh, masked: bool, path: SimdPath) -> BatchedViscousOp {
    let mut rng = StdRng::seed_from_u64(3);
    let eta = (0..mesh.num_elements() * NQP)
        .map(|_| 1e4f64.powf(rng.gen_range(0.0..1.0)))
        .collect();
    let bc = if masked {
        rift_bc(mesh, 0.5, 0.1)
    } else {
        DirichletBc::new()
    };
    BatchedViscousOp::with_path(Arc::new(ViscousOpData::new(mesh, eta, &bc)), path)
}

/// `b` as the solver holds it for `op`: Dirichlet columns zeroed.
fn coupling_block(mesh: &StructuredMesh, op: &BatchedViscousOp) -> Csr {
    let mut b = assemble_gradient(mesh, &Q2QuadTables::standard());
    b.zero_cols(&op.data.constrained);
    b
}

fn divergence(op: &dyn LinearOperator, b: &dyn CouplingBlock, xu: &[f64]) -> Vec<f64> {
    let mut yp = vec![f64::NAN; b.nrows()];
    op.apply_divergence(b, xu, &mut yp);
    yp
}

fn fused_yp(op: &dyn LinearOperator, b: &dyn CouplingBlock, xu: &[f64], xp: &[f64]) -> Vec<f64> {
    let mut yu = vec![f64::NAN; xu.len()];
    let mut yp = vec![f64::NAN; xp.len()];
    op.apply_stokes(b, xu, xp, &mut yu, &mut yp);
    yp
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

#[test]
fn divergence_pass_is_the_fused_y_p_bitwise_and_the_spmv_to_round_off() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mesh = tail_mesh();
    let paths: &[SimdPath] = if avx2_fma_available() {
        &[SimdPath::Portable, SimdPath::Avx2Fma]
    } else {
        &[SimdPath::Portable]
    };
    for masked in [true, false] {
        let probe = operator(&mesh, masked, SimdPath::Portable);
        assert!(
            probe.num_lanes() * 4 > mesh.num_elements(),
            "the mesh must leave ghost-padded lanes"
        );
        assert_eq!(probe.data.constrained.is_empty(), !masked);
        let b = coupling_block(&mesh, &probe);
        let xu = random_vec(probe.nrows(), 11);
        let xp = random_vec(b.nrows(), 12);
        let mut spmv = vec![0.0; b.nrows()];
        b.spmv(&xu, &mut spmv);
        let scale = spmv.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(scale > 0.0);

        let mut reference: Option<Vec<f64>> = None;
        for &path in paths {
            let op = operator(&mesh, masked, path);
            for nt in [1, 4] {
                par::set_num_threads(nt);
                let what = format!("masked={masked} {path:?} nt={nt}");
                let dv = divergence(&op, &b, &xu);
                assert_bitwise(&dv, &fused_yp(&op, &b, &xu, &xp), &what);
                for i in 0..dv.len() {
                    assert!(
                        (dv[i] - spmv[i]).abs() <= 1e-13 * scale,
                        "{what}: entry {i}: {} vs B x_u {}",
                        dv[i],
                        spmv[i]
                    );
                }
                match &reference {
                    Some(r) => assert_bitwise(&dv, r, &format!("{what} vs first run")),
                    None => reference = Some(dv),
                }
            }
        }
        par::set_num_threads(0);
    }
}

#[test]
fn wrappers_forward_the_divergence_untimed_and_read_only_the_shape() {
    let mesh = tail_mesh();
    let op = operator(&mesh, true, SimdPath::Portable);
    let b = coupling_block(&mesh, &op);
    let xu = random_vec(op.nrows(), 21);
    let want = divergence(&op, &b, &xu);
    // A deferred block whose matrix must never be read.
    let (np, nu) = (b.nrows(), b.ncols());
    let deferred = SharedCsr::new(np, nu, || panic!("the batched pass assembled B"));
    let timed = Arc::new(TimedOperator::new(
        Arc::new(op) as Arc<dyn LinearOperator + Send + Sync>
    ));
    let a_fine: Arc<dyn LinearOperator + Send + Sync> = timed.clone();
    assert_bitwise(
        &divergence(&&a_fine, &deferred, &xu),
        &want,
        "through the wrappers",
    );
    assert_eq!(timed.calls(), 0, "the divergence is not an apply of A");
    assert!(!deferred.is_assembled());
}

#[test]
fn production_solves_leave_the_gradient_block_unassembled() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (model, fields) = sinker_setup(4, 2, 1e3);
    let gmg = GmgConfig {
        levels: 2,
        coarse: CoarseKind::Direct,
        ..GmgConfig::default()
    };
    let solver = model.build_solver(&fields, &gmg);
    let rhs = model.rhs(&solver, &fields);
    let mut x = vec![0.0; solver.nu + solver.np];
    let stats = solver.solve(
        &rhs,
        &mut x,
        &KrylovConfig::default().with_rtol(1e-8).with_max_it(400),
        KrylovOperatorChoice::Picard,
        None,
    );
    assert!(stats.converged);
    assert!(
        !solver.b_full.is_assembled(),
        "sinker solve assembled b_full"
    );
    assert!(
        !solver.b_masked.is_assembled(),
        "sinker solve assembled b_masked"
    );

    let mut rift = RiftModel::new(RiftConfig {
        mx: 6,
        my: 2,
        mz: 4,
        ..RiftConfig::default()
    });
    let step = rift.step();
    assert!(step.newton_iterations > 0);
    let b = rift
        .setup_cache()
        .cached_gradient_block()
        .expect("the rift step built through its cache");
    assert!(!b.is_assembled(), "rift step assembled the gradient block");
    assert_eq!(
        (b.nrows(), b.ncols()),
        (4 * rift.mesh.num_elements(), 3 * rift.mesh.num_nodes())
    );
}

#[test]
fn a_reference_fine_kind_assembles_the_block_once_and_shares_it() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (model, fields) = sinker_setup(4, 2, 1e3);
    let gmg = GmgConfig {
        levels: 2,
        fine_kind: ptatin_ops::OperatorKind::Tensor,
        coarse: CoarseKind::Direct,
        ..GmgConfig::default()
    };
    let mut cache = SetupCache::new();
    let mut its = Vec::new();
    let mut blocks: Vec<SharedCsr> = Vec::new();
    for _ in 0..2 {
        let solver = build_stokes_solver_cached(
            &model.hier,
            &fields.eta_corner,
            &model.bcs,
            &gmg,
            None,
            &mut cache,
        );
        let rhs = model.rhs(&solver, &fields);
        let mut x = vec![0.0; solver.nu + solver.np];
        let stats = solver.solve(
            &rhs,
            &mut x,
            &KrylovConfig::default().with_rtol(1e-8).with_max_it(400),
            KrylovOperatorChoice::Picard,
            None,
        );
        assert!(stats.converged);
        its.push(stats.iterations);
        assert!(solver.b_masked.is_assembled() && solver.b_full.is_assembled());
        blocks.push(solver.b_masked.clone());
    }
    // The block-composed operator and the SpMV in the preconditioner are
    // the ones the solve ran before the gradient block was deferred.
    assert_eq!(its, vec![TENSOR_SINKER4_ITS; 2]);
    assert!(
        std::ptr::eq(blocks[0].csr(), blocks[1].csr()),
        "the second build re-assembled or copied b_masked"
    );
}

/// Iterations of the 4³ sinker (Δη = 10³, two levels, direct coarse solve)
/// with the scalar Tensor fine operator at rtol 1e-8.
const TENSOR_SINKER4_ITS: usize = 43;
