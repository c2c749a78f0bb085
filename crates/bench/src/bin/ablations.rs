//! Ablation studies for the design choices DESIGN.md calls out — each
//! corresponds to a trade-off the paper discusses in §III:
//!
//! 1. **Smoothing depth** V(m,m) for m ∈ {1,2,3}: more smoothing lowers
//!    iteration counts but each cycle costs more (§III-C / §V uses V(2,2)
//!    for the sinker, V(3,3) for the rift).
//! 2. **Galerkin vs rediscretized coarsest operator** (§III-C: "Galerkin
//!    coarsening is more robust but is expensive to compute").
//! 3. **SCR vs full-space iteration** across viscosity contrasts (§III-B,
//!    §IV-A: SCR is more robust to extreme contrasts, but each outer
//!    iteration needs an accurate inner solve).
//! 4. **V vs W cycle** with an exact coarse solve, isolating the cycle
//!    shape.
//!
//! The viscosity-averaging, coefficient-restriction and Chebyshev-interval
//! studies measured the defaults as best or tied and their knobs were
//! retired; EXPERIMENTS.md "Ablations" keeps the verdicts.
//!
//! Run: `cargo run --release -p ptatin-bench --bin ablations [--quick]`

use ptatin_bench::{levels_for, paper_gmg_config, sinker_setup, write_csv, Args};
use ptatin_core::solver::{CoarseKind, GmgConfig, KrylovOperatorChoice};
use ptatin_la::krylov::KrylovConfig;
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
    println!("\n## 3. Full-space vs Schur-complement reduction across Δη");
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
    println!("\n## 4. Cycle type (V vs W; exact coarse solve isolates the cycle shape)");
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
