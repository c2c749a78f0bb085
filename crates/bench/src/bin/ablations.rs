//! Ablation studies for the design choices DESIGN.md calls out — each
//! corresponds to a trade-off the paper discusses in §III:
//!
//! 1. **Smoothing depth** V(m,m) for m ∈ {1,2,3}: more smoothing lowers
//!    iteration counts but each cycle costs more (§III-C / §V uses V(2,2)
//!    for the sinker, V(3,3) for the rift).
//! 2. **Galerkin vs rediscretized coarsest operator** (§III-C: "Galerkin
//!    coarsening is more robust but is expensive to compute").
//! 3. **Viscosity averaging**: geometric (log-space, our default) vs
//!    arithmetic interpolation of the material-point projection.
//! 4. **Chebyshev target interval**: the paper's `[0.2λ, 1.1λ]` against
//!    wider and narrower alternatives.
//! 5. **SCR vs full-space iteration** across viscosity contrasts (§III-B,
//!    §IV-A: SCR is more robust to extreme contrasts, but each outer
//!    iteration needs an accurate inner solve).
//!
//! Run: `cargo run --release -p ptatin-bench --bin ablations [--quick]`

use ptatin_bench::{levels_for, paper_gmg_config, sinker_setup, write_csv, Args};
use ptatin_core::solver::{CoarseKind, GmgConfig, KrylovOperatorChoice};
use ptatin_fem::assemble::Q2QuadTables;
use ptatin_la::krylov::KrylovConfig;
use ptatin_mpm::projection::{corners_to_quadrature, corners_to_quadrature_log};
use ptatin_ops::OperatorKind;

fn main() {
    let args = Args::parse();
    let m = args.get_usize("m", if args.quick() { 4 } else { 8 });
    let levels = levels_for(m, if args.quick() { 2 } else { 3 });
    let kcfg = KrylovConfig::default().with_rtol(1e-5).with_max_it(800);
    let mut rows: Vec<String> = Vec::new();
    println!("# Ablations on the sinker problem at {m}^3, {levels} levels, Δη = 1e4\n");

    // ---------------------------------------------------------------
    println!("## 1. Smoothing depth (V(m,m))");
    println!("{:>7} {:>5} {:>10}", "V(m,m)", "its", "solve s");
    for depth in [1usize, 2, 3] {
        let (model, fields) = sinker_setup(m, levels, 1e4);
        let mut gmg = paper_gmg_config(levels, OperatorKind::Tensor);
        gmg.pre_smooth = depth;
        gmg.post_smooth = depth;
        let solver = model.build_solver(&fields, &gmg);
        let rhs = model.rhs(&solver, &fields);
        let mut x = vec![0.0; solver.nu + solver.np];
        let t0 = std::time::Instant::now();
        let stats = solver.solve(&rhs, &mut x, &kcfg, KrylovOperatorChoice::Picard, None);
        let secs = t0.elapsed().as_secs_f64();
        println!("V({depth},{depth}) {:>6} {:>10.3}", stats.iterations, secs);
        rows.push(format!(
            "smoothing,V({depth};{depth}),{},{secs:.4}",
            stats.iterations
        ));
    }

    // ---------------------------------------------------------------
    println!("\n## 2. Galerkin vs rediscretized coarsest operator");
    println!("{:>14} {:>5} {:>10}", "coarse op", "its", "solve s");
    for (name, galerkin) in [("Galerkin", true), ("rediscretized", false)] {
        let (model, fields) = sinker_setup(m, levels, 1e4);
        let mut gmg = paper_gmg_config(levels, OperatorKind::Tensor);
        gmg.galerkin_coarsest = galerkin;
        let solver = model.build_solver(&fields, &gmg);
        let rhs = model.rhs(&solver, &fields);
        let mut x = vec![0.0; solver.nu + solver.np];
        let t0 = std::time::Instant::now();
        let stats = solver.solve(&rhs, &mut x, &kcfg, KrylovOperatorChoice::Picard, None);
        let secs = t0.elapsed().as_secs_f64();
        println!("{name:>14} {:>5} {:>10.3}", stats.iterations, secs);
        rows.push(format!("coarse_op,{name},{},{secs:.4}", stats.iterations));
    }

    // ---------------------------------------------------------------
    println!("\n## 3. Viscosity averaging at quadrature points");
    println!("{:>11} {:>5} {:>13}", "averaging", "its", "eta range");
    for (name, geometric) in [("geometric", true), ("arithmetic", false)] {
        let (model, fields) = sinker_setup(m, levels, 1e4);
        let tables = Q2QuadTables::standard();
        let eta_qp = if geometric {
            corners_to_quadrature_log(model.hier.finest(), &tables, &fields.eta_corner)
        } else {
            corners_to_quadrature(model.hier.finest(), &tables, &fields.eta_corner)
        };
        let lo = eta_qp.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = eta_qp.iter().cloned().fold(0.0f64, f64::max);
        let mut gmg = paper_gmg_config(levels, OperatorKind::Tensor);
        gmg.geometric_averaging = geometric;
        let solver = model.build_solver(&fields, &gmg);
        let rhs = model.rhs(&solver, &fields);
        let mut x = vec![0.0; solver.nu + solver.np];
        let stats = solver.solve(&rhs, &mut x, &kcfg, KrylovOperatorChoice::Picard, None);
        println!("{name:>11} {:>5} [{lo:.2e}, {hi:.2e}]", stats.iterations);
        rows.push(format!(
            "averaging,{name},{},{lo:.3e}:{hi:.3e}",
            stats.iterations
        ));
    }

    // ---------------------------------------------------------------
    println!("\n## 4. Coefficient restriction to rediscretized coarse levels");
    println!("{:>22} {:>5} {:>10}", "restriction", "its", "solve s");
    use ptatin_core::CoefficientRestriction;
    for (name, restr, geo) in [
        ("injection", CoefficientRestriction::Injection, true),
        (
            "full-weight geometric",
            CoefficientRestriction::FullWeighting,
            true,
        ),
        (
            "full-weight arithmetic",
            CoefficientRestriction::FullWeighting,
            false,
        ),
    ] {
        let (model, fields) = sinker_setup(m, levels, 1e4);
        let mut gmg = paper_gmg_config(levels, OperatorKind::Tensor);
        gmg.coefficient_restriction = restr;
        gmg.geometric_averaging = geo;
        let solver = model.build_solver(&fields, &gmg);
        let rhs = model.rhs(&solver, &fields);
        let mut x = vec![0.0; solver.nu + solver.np];
        let t0 = std::time::Instant::now();
        let stats = solver.solve(&rhs, &mut x, &kcfg, KrylovOperatorChoice::Picard, None);
        let secs = t0.elapsed().as_secs_f64();
        println!("{name:>22} {:>5} {:>10.3}", stats.iterations, secs);
        rows.push(format!("restriction,{name},{},{secs:.4}", stats.iterations));
    }

    // ---------------------------------------------------------------
    println!("\n## 5. Chebyshev target interval (fractions of λmax)");
    println!("{:>14} {:>5} {:>10}", "interval", "its", "solve s");
    for (name, lo, hi) in [
        ("[0.2, 1.1]", 0.2, 1.1), // paper
        ("[0.05, 1.05]", 0.05, 1.05),
        ("[0.5, 1.1]", 0.5, 1.1),
        ("[0.2, 1.6]", 0.2, 1.6),
    ] {
        let (model, fields) = sinker_setup(m, levels, 1e4);
        let mut gmg = paper_gmg_config(levels, OperatorKind::Tensor);
        gmg.cheb_targets = (lo, hi);
        let solver = model.build_solver(&fields, &gmg);
        let rhs = model.rhs(&solver, &fields);
        let mut x = vec![0.0; solver.nu + solver.np];
        let t0 = std::time::Instant::now();
        let stats = solver.solve(&rhs, &mut x, &kcfg, KrylovOperatorChoice::Picard, None);
        let secs = t0.elapsed().as_secs_f64();
        println!("{name:>14} {:>5} {:>10.3}", stats.iterations, secs);
        rows.push(format!(
            "cheb_interval,{name},{},{secs:.4}",
            stats.iterations
        ));
    }

    // ---------------------------------------------------------------
    println!("\n## 6. Full-space vs Schur-complement reduction across Δη");
    println!(
        "{:>9} {:>10} {:>12} {:>10} {:>12}",
        "Δη", "full its", "full s", "SCR outer", "SCR s (inner)"
    );
    let contrasts = if args.quick() {
        vec![1e2, 1e4]
    } else {
        vec![1e2, 1e4, 1e6]
    };
    for &de in &contrasts {
        let (model, fields) = sinker_setup(m, levels.min(2), de);
        let gmg = GmgConfig {
            levels: levels.min(2),
            coarse: CoarseKind::Direct,
            ..paper_gmg_config(levels.min(2), OperatorKind::Tensor)
        };
        let solver = model.build_solver(&fields, &gmg);
        let rhs = model.rhs(&solver, &fields);
        let mut x1 = vec![0.0; solver.nu + solver.np];
        let t0 = std::time::Instant::now();
        let s_full = solver.solve(&rhs, &mut x1, &kcfg, KrylovOperatorChoice::Picard, None);
        let t_full = t0.elapsed().as_secs_f64();
        let mut x2 = vec![0.0; solver.nu + solver.np];
        let t1 = std::time::Instant::now();
        let (s_scr, inner) = solver.solve_scr(
            &rhs,
            &mut x2,
            &KrylovConfig::default().with_rtol(1e-5).with_max_it(200),
            1e-8,
        );
        let t_scr = t1.elapsed().as_secs_f64();
        println!(
            "{de:>9.0e} {:>10} {t_full:>12.3} {:>10} {t_scr:>9.3} ({inner})",
            s_full.iterations, s_scr.iterations
        );
        rows.push(format!(
            "scr,{de:e},{},{t_full:.4},{},{t_scr:.4},{inner}",
            s_full.iterations, s_scr.iterations
        ));
    }
    println!("\npaper shape: SCR needs far fewer *outer* iterations (more robust),");
    println!("but each costs an accurate inner J_uu solve, so it is slower overall.");

    // ---------------------------------------------------------------
    println!("\n## 7. Cycle type (V vs W; exact coarse solve isolates the cycle shape)");
    println!("{:>7} {:>5} {:>10}", "cycle", "its", "solve s");
    for (name, cyc) in [
        ("V", ptatin_mg::CycleType::V),
        ("W", ptatin_mg::CycleType::W),
    ] {
        let (model, fields) = sinker_setup(m, levels, 1e4);
        let mut gmg = paper_gmg_config(levels, OperatorKind::Tensor);
        gmg.coarse = CoarseKind::Direct;
        gmg.cycle = cyc;
        let solver = model.build_solver(&fields, &gmg);
        let rhs = model.rhs(&solver, &fields);
        let mut x = vec![0.0; solver.nu + solver.np];
        let t0 = std::time::Instant::now();
        let stats = solver.solve(&rhs, &mut x, &kcfg, KrylovOperatorChoice::Picard, None);
        let secs = t0.elapsed().as_secs_f64();
        println!("{name:>7} {:>5} {:>10.3}", stats.iterations, secs);
        rows.push(format!("cycle,{name},{},{secs:.4}", stats.iterations));
    }
    let path = write_csv(
        "ablations.csv",
        "study,variant,iterations,extra1,extra2,extra3",
        &rows,
    );
    println!("\nwrote {}", path.display());
}
