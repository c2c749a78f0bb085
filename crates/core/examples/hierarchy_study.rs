//! Diagnostic: how the multigrid hierarchy configuration affects
//! iteration counts on the sinker problem — compares level counts, the
//! coarse-operator construction (rediscretized vs Galerkin) and the
//! coarse solver. Useful when adapting the solver to new problem sizes.
//!
//! Run with: `cargo run --release -p ptatin-core --example hierarchy_study`

use ptatin_core::models::sinker::{SinkerConfig, SinkerModel};
use ptatin_core::solver::{CoarseKind, GmgConfig, KrylovOperatorChoice};
use ptatin_la::krylov::KrylovConfig;
use ptatin_ops::OperatorKind;

fn run(m: usize, levels: usize, coarse: CoarseKind, galerkin_mid: bool, label: &str) {
    let model = SinkerModel::new(SinkerConfig {
        m,
        levels,
        delta_eta: 1e4,
        ..SinkerConfig::default()
    });
    let fields = model.coefficients();
    let gmg = GmgConfig {
        levels,
        fine_kind: if galerkin_mid {
            OperatorKind::Assembled
        } else {
            GmgConfig::default().fine_kind
        },
        galerkin_intermediate: galerkin_mid,
        coarse,
        ..GmgConfig::default()
    };
    let solver = model.build_solver(&fields, &gmg);
    let rhs = model.rhs(&solver, &fields);
    let mut x = vec![0.0; solver.nu + solver.np];
    let s = solver.solve(
        &rhs,
        &mut x,
        &KrylovConfig::default().with_rtol(1e-5).with_max_it(500),
        KrylovOperatorChoice::Picard,
        None,
    );
    println!(
        "m={m} levels={levels} {label}: its={} converged={}",
        s.iterations, s.converged
    );
}

fn main() {
    let m = 8;
    run(
        m,
        2,
        CoarseKind::Direct,
        false,
        "2 levels, Galerkin coarsest, direct",
    );
    run(
        m,
        3,
        CoarseKind::Direct,
        false,
        "3 levels, rediscretized mid, direct",
    );
    run(
        m,
        3,
        CoarseKind::Amg { coarse_blocks: 4 },
        false,
        "3 levels, rediscretized mid, AMG-PCG",
    );
    run(
        m,
        3,
        CoarseKind::Direct,
        true,
        "3 levels, all-Galerkin, direct",
    );
}
