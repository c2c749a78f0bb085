//! Benchmarks of the multigrid machinery: one V(2,2) cycle of the
//! velocity preconditioner (the paper's per-iteration cost driver) and
//! the SA-AMG coarse-solver application and setup.
//!
//! Plain `fn main()` timing harness (`harness = false`): run with
//! `cargo bench --bench mg_vcycle`. No registry dependencies.

use ptatin_bench::{levels_for, paper_gmg_config, sinker_setup};
use ptatin_la::operator::Preconditioner;
use ptatin_mg::amg::{build_sa_amg, AmgConfig, CoarseSolverKind};
use ptatin_mg::nullspace::constant_mode;
use std::time::Instant;

fn laplace3d(n: usize) -> ptatin_la::Csr {
    let idx = |i: usize, j: usize, k: usize| i + n * (j + n * k);
    let mut t = Vec::new();
    for k in 0..n {
        for j in 0..n {
            for i in 0..n {
                let r = idx(i, j, k);
                t.push((r, r, 6.0));
                for (di, dj, dk) in [
                    (-1i64, 0i64, 0i64),
                    (1, 0, 0),
                    (0, -1, 0),
                    (0, 1, 0),
                    (0, 0, -1),
                    (0, 0, 1),
                ] {
                    let (ri, rj, rk) = (i as i64 + di, j as i64 + dj, k as i64 + dk);
                    if ri >= 0
                        && rj >= 0
                        && rk >= 0
                        && (ri as usize) < n
                        && (rj as usize) < n
                        && (rk as usize) < n
                    {
                        t.push((r, idx(ri as usize, rj as usize, rk as usize), -1.0));
                    }
                }
            }
        }
    }
    ptatin_la::Csr::from_triplets(n * n * n, n * n * n, &t)
}

fn time_it<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[2]
}

fn main() {
    println!("mg_vcycle (median of 5):");

    // GMG V(2,2) cycle on the sinker viscous block at 8^3.
    let m = 8;
    let levels = levels_for(m, 3);
    let (model, fields) = sinker_setup(m, levels, 1e4);
    let solver = model.build_solver(&fields, &paper_gmg_config(levels));
    let r: Vec<f64> = (0..solver.nu).map(|i| (i as f64 * 0.13).sin()).collect();
    let mut z = vec![0.0; solver.nu];
    let secs = time_it(5, || solver.mg.apply(&r, &mut z));
    println!("gmg_v22_8^3              {:12.3} ms/cycle", secs * 1e3);

    // SA-AMG V-cycle on a scalar Laplacian.
    let a = laplace3d(16);
    let ns = constant_mode(a.nrows());
    let cfg = AmgConfig {
        block_size: 1,
        coarse_solver: CoarseSolverKind::DirectLu,
        ..AmgConfig::default()
    };
    let amg = build_sa_amg(a.clone(), &ns, &cfg);
    let rr: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.37).cos()).collect();
    let mut zz = vec![0.0; a.nrows()];
    let secs = time_it(10, || amg.apply(&rr, &mut zz));
    println!("amg_vcycle_laplace16^3   {:12.3} ms/cycle", secs * 1e3);

    // AMG setup cost (the "PC setup" axis of Table IV).
    let secs = time_it(3, || {
        let h = build_sa_amg(a.clone(), &ns, &cfg);
        assert!(h.num_levels() > 0);
    });
    println!("amg_setup_laplace16^3    {:12.3} ms/setup", secs * 1e3);
}
