//! Benchmark of complete Stokes solves — the end-to-end
//! "time-to-solution" quantity of Tables II and IV, at laptop scale, for
//! the assembled and tensor-product operator representations.
//!
//! Plain `fn main()` timing harness (`harness = false`): run with
//! `cargo bench --bench stokes_solve`. No registry dependencies.

use ptatin_bench::{levels_for, paper_gmg_config, reference_solver, sinker_setup, Reference};
use ptatin_core::solver::SetupCache;
use ptatin_core::KrylovOperatorChoice;
use ptatin_la::krylov::KrylovConfig;
use ptatin_ops::OperatorKind;
use std::time::Instant;

fn main() {
    println!("stokes_solve (median of 3):");
    let m = 4;
    let levels = levels_for(m, 3);
    for kind in [OperatorKind::Assembled, OperatorKind::Tensor] {
        let (model, fields) = sinker_setup(m, levels, 1e4);
        let gmg = paper_gmg_config(levels);
        let reference = Reference::Fine(kind);
        let solver = reference_solver(
            &model.hier,
            &fields.eta_corner,
            &model.bcs,
            &gmg,
            reference,
            &mut SetupCache::new(),
        );
        let rhs = model.rhs(&solver, &fields);
        let solve = || {
            let mut x = vec![0.0; solver.nu + solver.np];
            solver.solve(
                &rhs,
                &mut x,
                &KrylovConfig::default().with_rtol(1e-5).with_max_it(300),
                KrylovOperatorChoice::Picard,
                None,
            )
        };
        let _warm = solve();
        let mut samples: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                let stats = solve();
                let secs = t0.elapsed().as_secs_f64();
                assert!(stats.converged, "sinker solve did not converge");
                secs
            })
            .collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        println!(
            "sinker_4^3/{:<8} {:10.1} ms/solve",
            kind.label(),
            samples[1] * 1e3
        );
    }
}
