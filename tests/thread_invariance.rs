//! Thread-count invariance harness for the solver stack on the persistent
//! worker pool (`ptatin-la::par`).
//!
//! The determinism contract (pure chunking, left-to-right combines, caller
//! folds piece 0) promises two things, both pinned here on real Stokes
//! solves:
//!
//! 1. at a *fixed* thread count, repeated runs are bitwise identical;
//! 2. across thread counts, only the floating-point regrouping of
//!    reductions changes — Krylov iteration counts must be identical and
//!    residual norms / solutions must agree to tight tolerances.
//!
//! CI runs the whole suite at `PTATIN_TEST_THREADS=1` and `4` on top of
//! these explicit sweeps (scripts/ci.sh).

use ptatin_bench::{paper_gmg_config, reference_solver, sinker_setup, Reference};
use ptatin_core::solver::{GmgConfig, KrylovOperatorChoice, SetupCache};
use ptatin_la::chebyshev::Chebyshev;
use ptatin_la::csr::Csr;
use ptatin_la::krylov::KrylovConfig;
use ptatin_la::par;
use ptatin_mesh::StructuredMesh;
use ptatin_mpm::points::{seed_regular, MaterialPoints};
use ptatin_mpm::projection;
use ptatin_ops::OperatorKind;
use ptatin_prng::StdRng;
use std::sync::Mutex;

/// Serializes the tests in this binary: the thread count is a
/// process-global knob.
static NT_LOCK: Mutex<()> = Mutex::new(());

struct SolveOut {
    iterations: usize,
    initial_residual: f64,
    final_residual: f64,
    x: Vec<f64>,
}

/// Sinker Stokes solve (m=4, 2 levels, Δη = 10³) at `nt` threads, on the
/// production hierarchy or a reference one of the bench harness.
fn solve_sinker(gmg: &GmgConfig, reference: Option<Reference>, nt: usize) -> SolveOut {
    par::set_num_threads(nt);
    let (model, fields) = sinker_setup(4, gmg.levels, 1e3);
    let solver = match reference {
        Some(r) => reference_solver(
            &model.hier,
            &fields.eta_corner,
            &model.bcs,
            gmg,
            r,
            &mut SetupCache::new(),
        ),
        None => model.build_solver(&fields, gmg),
    };
    let rhs = model.rhs(&solver, &fields);
    let mut x = vec![0.0; solver.nu + solver.np];
    let stats = solver.solve(
        &rhs,
        &mut x,
        &KrylovConfig::default().with_rtol(1e-8).with_max_it(900),
        KrylovOperatorChoice::Picard,
        None,
    );
    par::set_num_threads(0);
    assert!(stats.converged, "nt={nt}: {stats:?}");
    SolveOut {
        iterations: stats.iterations,
        initial_residual: stats.initial_residual,
        final_residual: stats.final_residual,
        x,
    }
}

fn assert_thread_invariant(label: &str, runs: &[(usize, SolveOut)]) {
    let (nt0, ref base) = runs[0];
    let scale = base.x.iter().fold(0.0f64, |a, v| a.max(v.abs()));
    for (nt, out) in &runs[1..] {
        assert_eq!(
            out.iterations, base.iterations,
            "{label}: iteration count changed between nt={nt0} and nt={nt}"
        );
        // Residual norms are compared in units of the convergence band:
        // both runs stop at ‖r‖/‖r₀‖ ≤ rtol = 1e-8, and FP regrouping may
        // only move the final residual by a small fraction of that band.
        let rel = (out.final_residual / out.initial_residual
            - base.final_residual / base.initial_residual)
            .abs();
        assert!(
            rel < 3e-9,
            "{label}: relative residual moved by {rel:.2e} between nt={nt0} and nt={nt}"
        );
        let maxdiff = base
            .x
            .iter()
            .zip(&out.x)
            .fold(0.0f64, |a, (p, q)| a.max((p - q).abs()));
        assert!(
            maxdiff < 1e-6 * scale,
            "{label}: solutions diverge by {maxdiff:.2e} (scale {scale:.2e}) \
             between nt={nt0} and nt={nt}"
        );
    }
}

#[test]
fn sinker_solve_invariant_under_thread_count() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let gmg_i = Some(Reference::Fine(OperatorKind::Tensor));
    let runs: Vec<(usize, SolveOut)> = [1usize, 2, 4]
        .into_iter()
        .map(|nt| (nt, solve_sinker(&paper_gmg_config(2), gmg_i, nt)))
        .collect();
    assert_thread_invariant("GMG-i(tensor)", &runs);
}

#[test]
fn preconditioner_config_matrix_invariant_under_thread_count() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The Table IV configurations exercised by the preconditioner tests:
    // all-assembled GMG and the Galerkin-intermediate variant (GMG-ii).
    let configs = [
        ("assembled", Reference::Fine(OperatorKind::Assembled)),
        ("GMG-ii(galerkin)", Reference::GalerkinIntermediate),
    ];
    for (label, reference) in configs {
        let runs: Vec<(usize, SolveOut)> = [1usize, 2, 4]
            .into_iter()
            .map(|nt| (nt, solve_sinker(&paper_gmg_config(2), Some(reference), nt)))
            .collect();
        assert_thread_invariant(label, &runs);
    }
}

#[test]
fn batched_operator_invariant_and_bitwise() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The SIMD-batched fine-level operator keeps both determinism
    // promises: lane formation is thread-count independent (lanes are
    // built once per color, and `par_ranges_aligned` never splits one
    // across threads), so only reduction regrouping may change across nt.
    let gmg = paper_gmg_config(2);
    let runs: Vec<(usize, SolveOut)> = [1usize, 2, 4]
        .into_iter()
        .map(|nt| (nt, solve_sinker(&gmg, None, nt)))
        .collect();
    assert_thread_invariant("GMG-i(tensor-batched)", &runs);
    // And at a fixed thread count the solve is bitwise reproducible.
    let a = solve_sinker(&gmg, None, 4);
    let b = solve_sinker(&gmg, None, 4);
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(
        a.final_residual.to_bits(),
        b.final_residual.to_bits(),
        "batched: residual norm must be bitwise reproducible at fixed nt"
    );
    for i in 0..a.x.len() {
        assert_eq!(
            a.x[i].to_bits(),
            b.x[i].to_bits(),
            "batched: solution must be bitwise reproducible at fixed nt (dof {i})"
        );
    }
}

#[test]
fn default_config_bitwise_across_thread_counts_and_simd_paths() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The production hierarchy — batched kernel on both smoothed levels,
    // sparse Cholesky coarse solve — promises more than the tolerance bands above:
    // the iterate itself is identical at every thread count and on both
    // kernel paths (`BatchedViscousOp` reads `PTATIN_NO_AVX` when it is
    // built, so the portable kernel can be selected per solver; the
    // other tests of this binary hold `NT_LOCK` and build none meanwhile).
    let (model, fields) = sinker_setup(8, 3, 1e3);
    let gmg = GmgConfig {
        levels: 3,
        ..GmgConfig::default()
    };
    let iterate_bits = |nt: usize| {
        par::set_num_threads(nt);
        let solver = model.build_solver(&fields, &gmg);
        let rhs = model.rhs(&solver, &fields);
        let mut x = vec![0.0; solver.nu + solver.np];
        solver.solve(
            &rhs,
            &mut x,
            &KrylovConfig::default().with_rtol(1e-12).with_max_it(8),
            KrylovOperatorChoice::Picard,
            None,
        );
        par::set_num_threads(0);
        x.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
    };
    let base = iterate_bits(1);
    for nt in [2usize, 4] {
        assert!(iterate_bits(nt) == base, "iterate differs at nt={nt}");
    }
    let saved = std::env::var_os("PTATIN_NO_AVX");
    let other = if ptatin_la::simd::detected_simd_path() == ptatin_la::simd::SimdPath::Portable {
        "0"
    } else {
        "1"
    };
    std::env::set_var("PTATIN_NO_AVX", other);
    let flipped = iterate_bits(1);
    match saved {
        Some(v) => std::env::set_var("PTATIN_NO_AVX", v),
        None => std::env::remove_var("PTATIN_NO_AVX"),
    }
    assert!(flipped == base, "iterate differs on the other SIMD path");
}

/// A 2·PAR_MIN_POINTS-capable swarm: 8³ elements × 2³ points per element
/// lands exactly on [`projection::PAR_MIN_POINTS`]; `delta` then nudges
/// the size to either side of the serial/parallel seam.
fn seam_swarm(mesh: &StructuredMesh, delta: i64) -> MaterialPoints {
    let mut rng = StdRng::seed_from_u64(7);
    let mut pts = seed_regular(mesh, 2, 0.25, &mut rng, |_| 0);
    assert_eq!(pts.len(), projection::PAR_MIN_POINTS);
    match delta {
        -1 => pts.swap_remove(pts.len() - 1),
        1 => {
            let (x, e, xi) = (pts.x[0], pts.element[0], pts.xi[0]);
            pts.push_located(x, 0, 0.0, e, xi);
        }
        _ => unreachable!(),
    }
    pts
}

#[test]
fn projection_bitwise_across_par_seam() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Regression: the scatter's piece structure is a pure function of the
    // swarm size (serial below PAR_MIN_POINTS, 8 fixed pieces at or
    // above), never of the thread count — so a swarm one point to either
    // side of the seam must give a bitwise-identical corner field at
    // nt = 1, 2, 4. (Previously the piece count was the thread count
    // itself, so straddling swarms changed bits with nt.)
    let mesh = StructuredMesh::new_box(8, 8, 8, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
    for delta in [-1i64, 1] {
        let pts = seam_swarm(&mesh, delta);
        let value = |p: usize| ((p as f64) * 0.61).sin();
        let runs: Vec<Vec<f64>> = [1usize, 2, 4]
            .into_iter()
            .map(|nt| {
                par::set_num_threads(nt);
                let f = projection::project_to_corners(&mesh, &pts, value, |i| i as f64);
                par::set_num_threads(0);
                f
            })
            .collect();
        for (k, run) in runs[1..].iter().enumerate() {
            for (c, (a, b)) in run.iter().zip(&runs[0]).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "delta {delta} corner {c}: nt={} gives {a}, nt=1 gives {b}",
                    [2, 4][k]
                );
            }
        }
    }
}

#[test]
fn batched_projection_and_fused_smoother_bitwise_across_thread_counts() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Batched P2G well above the parallel threshold: 8³ elements × 27
    // points = 13824 points across 8 fixed accumulation pieces.
    let mesh = StructuredMesh::new_box(8, 8, 8, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
    let mut rng = StdRng::seed_from_u64(11);
    let pts = seed_regular(&mesh, 3, 0.3, &mut rng, |_| 0);
    assert!(pts.len() > projection::PAR_MIN_POINTS);
    let value = |p: usize| ((p as f64) * 0.37).cos();
    let proj: Vec<Vec<f64>> = [1usize, 2, 4, 4]
        .into_iter()
        .map(|nt| {
            par::set_num_threads(nt);
            let f = projection::project_to_corners(&mesh, &pts, value, |i| i as f64);
            par::set_num_threads(0);
            f
        })
        .collect();
    for run in &proj[1..] {
        assert!(
            run.iter()
                .zip(&proj[0])
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "projection changed bits across thread counts"
        );
    }

    // Chebyshev smoothing on a large banded matrix: every sweep is a
    // row-parallel SpMV plus pointwise vector updates, with no reduction,
    // so it is bitwise identical at every thread count. (The direction
    // update d ← c₁d + c₂D⁻¹r is one fused pass; the cache-blocked tile
    // sweep that once ran beside this smoother is gone.)
    let n = 20_000;
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, 2.5));
        if i > 0 {
            t.push((i, i - 1, -1.0));
        }
        if i + 1 < n {
            t.push((i, i + 1, -1.0));
        }
    }
    let a = Csr::from_triplets(n, n, &t);
    let cheb = Chebyshev::new(&a, 3, 10);
    let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.13).sin()).collect();
    let smooth: Vec<Vec<f64>> = [1usize, 2, 4, 4]
        .into_iter()
        .map(|nt| {
            par::set_num_threads(nt);
            let mut x = vec![0.1; n];
            cheb.smooth_with(&a, &b, &mut x, 3);
            par::set_num_threads(0);
            x
        })
        .collect();
    for run in &smooth[1..] {
        assert!(
            run.iter()
                .zip(&smooth[0])
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "Chebyshev smoothing changed bits across thread counts"
        );
    }
}

#[test]
fn fixed_thread_count_is_bitwise_deterministic() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let gmg = paper_gmg_config(2);
    let a = solve_sinker(&gmg, None, 4);
    let b = solve_sinker(&gmg, None, 4);
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(
        a.final_residual.to_bits(),
        b.final_residual.to_bits(),
        "residual norm must be bitwise reproducible at fixed nt"
    );
    for i in 0..a.x.len() {
        assert_eq!(
            a.x[i].to_bits(),
            b.x[i].to_bits(),
            "solution must be bitwise reproducible at fixed nt (dof {i})"
        );
    }
}
