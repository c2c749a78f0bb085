//! The V-cycle's grid transfer as line stencils
//! (`la::transfer::NestedTransfer`, DESIGN.md §9): `prolong_add` must be
//! bitwise `x + P·xc` with `P` the filtered blocked prolongation
//! (`expand_blocked` + `filter_transfer`) applied by `Csr::spmv` and
//! `axpy(1.0, …)`, and `restrict` bitwise `BatchedTransfer::restrict` on
//! both SIMD paths — on cubic and non-cubic hierarchies, face-built and
//! scattered Dirichlet sets, at one and four threads. The stencil's
//! nested-Dirichlet answer must be `dirichlet_sets_nested`'s. And the
//! on-demand contract of the assembled transfers: the production sinker and
//! rift solves never assemble one, while a Galerkin build assembles each
//! once and shares it.

use ptatin_bench::{reference_solver, sinker_setup, Reference};
use ptatin_core::models::rift::{rift_bc, RiftConfig, RiftModel};
use ptatin_core::models::sinker::sinker_bc;
use ptatin_core::solver::{CoarseKind, GmgConfig, KrylovOperatorChoice, SetupCache};
use ptatin_fem::assemble::num_velocity_dofs;
use ptatin_fem::bc::{DirichletBc, VelocityBcBuilder};
use ptatin_la::krylov::KrylovConfig;
use ptatin_la::par;
use ptatin_la::simd::{avx2_fma_available, SimdPath};
use ptatin_la::transfer::{BatchedTransfer, NestedTransfer};
use ptatin_la::vec_ops;
use ptatin_mesh::hierarchy::{expand_blocked, MeshHierarchy};
use ptatin_mesh::StructuredMesh;
use ptatin_mg::gmg::{dirichlet_sets_nested, filter_transfer};
use ptatin_prng::{Rng, StdRng};
use std::sync::Mutex;

/// Serializes the tests that pin the process-global thread count.
static NT_LOCK: Mutex<()> = Mutex::new(());

fn box_mesh(mx: usize, my: usize, mz: usize) -> StructuredMesh {
    StructuredMesh::new_box(mx, my, mz, [0.0, 2.0], [0.0, 1.0], [0.0, 1.5])
}

fn no_slip_bc(mesh: &StructuredMesh) -> DirichletBc {
    let mut b = VelocityBcBuilder::new(mesh);
    for axis in 0..3 {
        for min in [true, false] {
            b = b.no_slip(axis, min);
        }
    }
    b.build()
}

/// A field with `-0.0` on every seventh entry: a constrained row of `P`
/// adds `+0.0`, which turns a `-0.0` of `x` into `+0.0`.
fn field(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            if i % 7 == 3 {
                -0.0
            } else {
                rng.gen_range(-1.0..1.0)
            }
        })
        .collect()
}

fn assert_bitwise(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: entry {i}: {g:e} vs {w:e}"
        );
    }
}

/// Check every level pair of `hier` under the masks of `bcs` against the
/// CSR forms, at the current thread count.
fn check_hierarchy(hier: &MeshHierarchy, bcs: &[DirichletBc], what: &str) {
    for l in 0..hier.num_levels() - 1 {
        let what = format!("{what}, levels {l}→{}", l + 1);
        let fine_mask = bcs[l + 1].mask(num_velocity_dofs(&hier.meshes[l + 1]));
        let coarse_mask = bcs[l].mask(num_velocity_dofs(&hier.meshes[l]));
        let mut p = expand_blocked(&hier.prolongations[l], 3);
        filter_transfer(&mut p, &fine_mask, &coarse_mask);
        let t = NestedTransfer::new(
            hier.meshes[l + 1].node_dims(),
            fine_mask.clone(),
            coarse_mask.clone(),
        );
        assert_eq!((t.nrows(), t.ncols()), (p.nrows(), p.ncols()), "{what}");
        assert_eq!(
            t.dirichlet_sets_nested(),
            dirichlet_sets_nested(&p, &fine_mask, &coarse_mask),
            "{what}: nested answer"
        );

        let xc = field(p.ncols(), 11 + l as u64);
        let x0 = field(p.nrows(), 29 + l as u64);
        let mut want = x0.clone();
        let mut corr = vec![0.0; p.nrows()];
        p.spmv(&xc, &mut corr);
        vec_ops::axpy(1.0, &corr, &mut want);
        let mut got = x0.clone();
        t.prolong_add(&xc, &mut got);
        assert_bitwise(&got, &want, &format!("{what}: prolong_add"));

        let r = field(p.nrows(), 47 + l as u64);
        let mut rc = vec![f64::NAN; p.ncols()];
        t.restrict(&r, &mut rc);
        let mut paths = vec![SimdPath::Portable];
        if avx2_fma_available() {
            paths.push(SimdPath::Avx2Fma);
        }
        for path in paths {
            let mut want = vec![0.0; p.ncols()];
            BatchedTransfer::with_path(&p, path).restrict(&r, &mut want);
            assert_bitwise(&rc, &want, &format!("{what}: restrict ({path:?})"));
        }
    }
}

/// Every hierarchy of the contract, at one and four threads: non-cubic
/// rift boxes, cubic sinker boxes and an all-face no-slip box, on two and
/// three levels, plus a scattered Dirichlet set on each level.
#[test]
fn stencils_are_the_csr_transfers_bitwise() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    type Bc = fn(&StructuredMesh) -> DirichletBc;
    let rift: Bc = |m| rift_bc(m, 0.5, 0.1);
    let cases: [(&str, [usize; 3], Bc); 5] = [
        ("rift 6×2×4", [6, 2, 4], rift),
        ("rift 12×4×8", [12, 4, 8], rift),
        ("sinker 8³", [8, 8, 8], sinker_bc),
        ("sinker 12³", [12, 12, 12], sinker_bc),
        ("no-slip 8×4×4", [8, 4, 4], no_slip_bc),
    ];
    for nt in [1, 4] {
        par::set_num_threads(nt);
        for (name, [mx, my, mz], bc) in cases {
            for levels in [2, 3] {
                let fine = box_mesh(mx, my, mz);
                if !fine.supports_levels(levels) {
                    continue;
                }
                let hier = MeshHierarchy::new(fine, levels);
                let bcs: Vec<DirichletBc> = hier.meshes.iter().map(bc).collect();
                check_hierarchy(&hier, &bcs, &format!("{name}, {levels} levels, nt={nt}"));
                // Scattered constraints on both levels: mostly not nested.
                let mut rng = StdRng::seed_from_u64(levels as u64);
                let scattered: Vec<DirichletBc> = hier
                    .meshes
                    .iter()
                    .map(|m| {
                        let mut b = DirichletBc::new();
                        for dof in 0..num_velocity_dofs(m) {
                            if rng.gen_range(0.0..1.0) < 0.1 {
                                b.set(dof, 0.0);
                            }
                        }
                        b
                    })
                    .collect();
                check_hierarchy(&hier, &scattered, &format!("{name} scattered, nt={nt}"));
            }
        }
    }
    par::set_num_threads(0);
}

/// The non-nested set of `galerkin_coarse_direct`: one pinned interior
/// mid-edge node of the fine mesh interpolates from two free coarse nodes.
#[test]
fn a_pinned_mid_edge_node_is_not_nested() {
    let hier = MeshHierarchy::new(box_mesh(12, 4, 8), 2);
    let mut bcs: Vec<DirichletBc> = hier.meshes.iter().map(|m| rift_bc(m, 0.5, 0.0)).collect();
    let fine_mask = bcs[1].mask(num_velocity_dofs(&hier.meshes[1]));
    let coarse_mask = bcs[0].mask(num_velocity_dofs(&hier.meshes[0]));
    assert!(
        NestedTransfer::new(hier.meshes[1].node_dims(), fine_mask, coarse_mask.clone())
            .dirichlet_sets_nested()
    );
    bcs[1].set(3 * hier.meshes[1].node_index(7, 4, 6) + 1, 0.0);
    let fine_mask = bcs[1].mask(num_velocity_dofs(&hier.meshes[1]));
    let mut p = expand_blocked(&hier.prolongations[0], 3);
    filter_transfer(&mut p, &fine_mask, &coarse_mask);
    assert!(!dirichlet_sets_nested(&p, &fine_mask, &coarse_mask));
    let t = NestedTransfer::new(hier.meshes[1].node_dims(), fine_mask, coarse_mask);
    assert!(!t.dirichlet_sets_nested());
    check_hierarchy(&hier, &bcs, "pinned mid-edge node");
}

#[test]
fn production_solves_leave_every_prolongation_unassembled() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (model, fields) = sinker_setup(8, 3, 1e3);
    // The benchmark's `sinker12` coarse solve; the rift below factors its
    // coarse grid.
    let gmg = GmgConfig {
        coarse: CoarseKind::Amg { coarse_blocks: 4 },
        ..GmgConfig::default()
    };
    let solver = model.build_solver(&fields, &gmg);
    let rhs = model.rhs(&solver, &fields);
    let mut x = vec![0.0; solver.nu + solver.np];
    let stats = solver.solve(
        &rhs,
        &mut x,
        &KrylovConfig::default().with_rtol(1e-6).with_max_it(400),
        KrylovOperatorChoice::Picard,
        None,
    );
    assert!(stats.converged);
    assert_eq!(solver.mg.prolongations.len(), 2);
    for (k, p) in solver.mg.prolongations.iter().enumerate() {
        assert!(!p.is_assembled(), "sinker solve assembled prolongation {k}");
    }
    for (l, p) in model.hier.prolongations.iter().enumerate() {
        assert!(
            !p.is_assembled(),
            "sinker solve assembled scalar prolongation {l}"
        );
    }

    let mut rift = RiftModel::new(RiftConfig {
        mx: 6,
        my: 2,
        mz: 4,
        ..RiftConfig::default()
    });
    let step = rift.step();
    assert!(step.newton_iterations > 0);
    let handles = rift
        .setup_cache()
        .cached_prolongations()
        .expect("the rift step built through its cache");
    assert!(!handles.is_empty());
    for (k, p) in handles.iter().enumerate() {
        assert!(!p.is_assembled(), "rift step assembled prolongation {k}");
    }
}

#[test]
fn a_galerkin_build_assembles_each_prolongation_once_and_shares_it() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (model, fields) = sinker_setup(8, 3, 1e3);
    let gmg = GmgConfig {
        coarse: CoarseKind::Direct,
        ..GmgConfig::default()
    };
    let mut cache = SetupCache::new();
    let build = |cache: &mut SetupCache| {
        reference_solver(
            &model.hier,
            &fields.eta_corner,
            &model.bcs,
            &gmg,
            Reference::GalerkinIntermediate,
            cache,
        )
    };
    let first = build(&mut cache);
    let second = build(&mut cache);
    let cached = cache
        .cached_prolongations()
        .expect("the builds cached them");
    for k in 0..2 {
        let (a, b) = (&first.mg.prolongations[k], &second.mg.prolongations[k]);
        assert!(
            a.is_assembled(),
            "the Galerkin product did not read prolongation {k}"
        );
        assert!(
            std::ptr::eq(a.csr(), b.csr()) && std::ptr::eq(a.csr(), cached[k].csr()),
            "prolongation {k} was assembled or copied twice"
        );
    }
}
