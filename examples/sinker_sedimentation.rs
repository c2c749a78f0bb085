//! Sedimentation experiment: the sinker problem advanced over several time
//! steps with material-point advection — the transient workflow of §IV-A
//! ("ran the solver over three time steps; scientifically relevant
//! sedimentation experiments would be run for many steps").
//!
//! Each step: project point properties → solve Stokes → CFL time step →
//! RK2-advect the points through the flow → repeat. The dense spheres sink
//! measurably over the run.
//!
//! Run with: `cargo run --release --example sinker_sedimentation`

use ptatin3d::core::models::sinker::{SinkerConfig, SinkerModel};
use ptatin3d::core::timestep::cfl_dt;
use ptatin3d::core::{CoarseKind, GmgConfig, KrylovOperatorChoice};
use ptatin_la::krylov::KrylovConfig;
use ptatin_mpm::advect::{advect_rk2, cull_lost, reclaim_lost};
use ptatin_mpm::locate::ElementLocator;

fn sphere_centroid_depth(model: &SinkerModel) -> f64 {
    // Mean z of the sphere-lithology points.
    let mut z = 0.0;
    let mut n = 0usize;
    for i in 0..model.points.len() {
        if model.points.lithology[i] == 1 {
            z += model.points.x[i][2];
            n += 1;
        }
    }
    z / n.max(1) as f64
}

fn main() {
    let mut model = SinkerModel::new(SinkerConfig {
        m: 6,
        levels: 2,
        delta_eta: 1e3,
        ..SinkerConfig::default()
    });
    let gmg = GmgConfig {
        levels: 2,
        coarse: CoarseKind::Direct,
        ..GmgConfig::default()
    };
    let steps = 3;
    let z0 = sphere_centroid_depth(&model);
    println!("initial sphere centroid depth: z = {z0:.4}");
    let mut time = 0.0;
    for step in 1..=steps {
        // Coefficients from the current point cloud.
        let fields = model.coefficients();
        let solver = model.build_solver(&fields, &gmg);
        let rhs = model.rhs(&solver, &fields);
        let mut x = vec![0.0; solver.nu + solver.np];
        let stats = solver.solve(
            &rhs,
            &mut x,
            &KrylovConfig::default().with_rtol(1e-5).with_max_it(400),
            KrylovOperatorChoice::Picard,
            None,
        );
        assert!(stats.converged, "Stokes solve failed at step {step}");
        let velocity = &x[..solver.nu];
        // CFL-limited step, then advect the swarm through the flow.
        let dt = cfl_dt(model.hier.finest(), velocity, 0.5, 1e6);
        let locator = ElementLocator::new(model.hier.finest());
        let adv = advect_rk2(
            model.hier.finest(),
            &locator,
            &mut model.points,
            velocity,
            dt,
        );
        let reclaimed = reclaim_lost(model.hier.finest(), &locator, &mut model.points, 1e-6);
        let _ = reclaimed;
        let lost = cull_lost(&mut model.points);
        time += dt;
        println!(
            "step {step}: {} GCR its, dt = {dt:.3e}, t = {time:.3e}, relocated {} points, lost {lost}, centroid z = {:.4}",
            stats.iterations,
            adv.relocated,
            sphere_centroid_depth(&model)
        );
    }
    let z1 = sphere_centroid_depth(&model);
    println!(
        "sphere centroid sank by {:.3e} (z {z0:.4} -> {z1:.4})",
        z0 - z1
    );
    assert!(z1 < z0, "the dense spheres must sink");
    println!("ok");
}
