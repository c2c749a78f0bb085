//! End-to-end material-point pipeline: seed → project → advect through a
//! solved Stokes field → migrate between subdomains → population control,
//! verifying the invariants the paper's simulations rely on.

use ptatin_core::models::sinker::{SinkerConfig, SinkerModel};
use ptatin_core::solver::{CoarseKind, GmgConfig, KrylovOperatorChoice};
use ptatin_la::krylov::KrylovConfig;
use ptatin_mesh::ElementPartition;
use ptatin_mpm::advect::{advect_rk2, cull_lost, reclaim_lost, relocate_all};
use ptatin_mpm::locate::ElementLocator;
use ptatin_mpm::migrate::SubdomainSwarms;
use ptatin_mpm::population::{control_population, element_counts, PopulationConfig};
use ptatin_mpm::projection::{corners_to_quadrature_log, project_to_corners};
use ptatin_prng::StdRng;

#[test]
fn advection_through_solved_flow_preserves_lithology_budget() {
    let mut model = SinkerModel::new(SinkerConfig {
        m: 4,
        levels: 2,
        delta_eta: 1e3,
        ..SinkerConfig::default()
    });
    let fields = model.coefficients();
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
        &KrylovConfig::default().with_rtol(1e-6).with_max_it(500),
        KrylovOperatorChoice::Picard,
        None,
    );
    assert!(stats.converged);
    let sphere_before = model.points.lithology.iter().filter(|&&l| l == 1).count();
    let mesh = model.hier.finest().clone();
    let locator = ElementLocator::new(&mesh);
    // Several CFL-limited advection steps.
    let dt = ptatin_core::timestep::cfl_dt(&mesh, &x[..solver.nu], 0.4, 1e9);
    for _ in 0..3 {
        let _ = advect_rk2(&mesh, &locator, &mut model.points, &x[..solver.nu], dt);
        // Walls and base are closed (free-slip): reclaim overshoot, cull
        // only genuine (free-surface) escapees.
        let _ = reclaim_lost(&mesh, &locator, &mut model.points, 1e-6);
        let _ = cull_lost(&mut model.points);
    }
    let sphere_after = model.points.lithology.iter().filter(|&&l| l == 1).count();
    // Sphere points sink into the interior — they must survive (ambient
    // points can exit through the free surface).
    assert!(
        sphere_after as f64 > 0.95 * sphere_before as f64,
        "sphere material lost: {sphere_before} -> {sphere_after}"
    );
    // Projection after advection still produces a usable viscosity field.
    let log_eta = project_to_corners(
        &mesh,
        &model.points,
        |p| {
            if model.points.lithology[p] == 1 {
                0.0
            } else {
                (1.0f64 / 1e3).ln()
            }
        },
        |_| (1.0f64 / 1e3).ln(),
    );
    let eta_corner: Vec<f64> = log_eta.iter().map(|v| v.exp()).collect();
    let tables = ptatin_fem::Q2QuadTables::standard();
    let eta_qp = corners_to_quadrature_log(&mesh, &tables, &eta_corner);
    for &e in &eta_qp {
        assert!(e.is_finite() && e > 0.0);
    }
}

#[test]
fn migration_conserves_interior_points() {
    let model = SinkerModel::new(SinkerConfig {
        m: 4,
        levels: 2,
        ..SinkerConfig::default()
    });
    let mesh = model.hier.finest().clone();
    let partition = ElementPartition::new(&mesh, 2, 2, 2);
    let locator = ElementLocator::new(&mesh);
    let mut swarms = SubdomainSwarms::partition(model.points, &partition);
    let total = swarms.total();
    // A pure relocation round (no advection) must move nothing.
    let stats = swarms.exchange(&mesh, &locator, &partition);
    assert_eq!(stats.sent, 0);
    assert_eq!(swarms.total(), total);
    // Displace every point by half an element in +x, relocate (the
    // exchange reads ownership off the (element, ξ) cache) and exchange.
    let shift = 0.5 / mesh.mx as f64;
    for sw in &mut swarms.swarms {
        for p in 0..sw.len() {
            sw.x[p][0] += shift;
        }
        let _ = relocate_all(&mesh, &locator, sw);
    }
    let stats = swarms.exchange(&mesh, &locator, &partition);
    assert!(
        stats.sent > 0,
        "half the points crossed into the next element"
    );
    assert_eq!(stats.sent, stats.received + stats.deleted);
    assert_eq!(swarms.total(), total - stats.deleted);
}

#[test]
fn population_control_restores_starved_elements_after_advection() {
    let mut model = SinkerModel::new(SinkerConfig {
        m: 4,
        levels: 2,
        points_per_dim: 2,
        ..SinkerConfig::default()
    });
    let mesh = model.hier.finest().clone();
    // Artificially strip points from a column of elements.
    let mut i = 0;
    while i < model.points.len() {
        let e = model.points.element[i];
        if e != u32::MAX && mesh.element_ijk(e as usize).0 == 0 {
            model.points.swap_remove(i);
        } else {
            i += 1;
        }
    }
    let cfg = PopulationConfig {
        min_per_element: 4,
        max_per_element: 64,
        inject_to: 8,
    };
    let mut rng = StdRng::seed_from_u64(99);
    let stats = control_population(&mesh, &mut model.points, &cfg, &mut rng);
    assert!(stats.injected > 0);
    let counts = element_counts(&mesh, &model.points);
    for (e, &c) in counts.iter().enumerate() {
        assert!(
            c as usize >= cfg.min_per_element,
            "element {e} still starved ({c})"
        );
    }
}
