//! One-off phase breakdown of the setup of the every-level-assembled
//! reference hierarchy: fresh vs warm-cache rebuild, printed as -log_view
//! tables.

use ptatin_bench::{reference_solver, sinker_setup, Reference};
use ptatin_core::models::sinker::sinker_bc;
use ptatin_core::solver::{CoarseKind, GmgConfig, SetupCache};
use ptatin_fem::bc::DirichletBc;
use ptatin_la::par;
use ptatin_ops::OperatorKind;
use ptatin_prof as prof;

fn main() {
    let m: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(6);
    par::set_num_threads(1);
    let levels = if m % 4 == 0 { 3 } else { 2 };
    let (model, fields) = sinker_setup(m, levels, 1e4);
    let bcs: Vec<DirichletBc> = model.hier.meshes.iter().map(sinker_bc).collect();
    let gmg = GmgConfig {
        levels,
        galerkin_coarsest: false,
        coarse: CoarseKind::Amg { coarse_blocks: 4 },
        ..GmgConfig::default()
    };
    let assembled = Reference::Fine(OperatorKind::Assembled);
    let mut cache = SetupCache::new();
    prof::enable();
    let _ = reference_solver(
        &model.hier,
        &fields.eta_corner,
        &bcs,
        &gmg,
        assembled,
        &mut cache,
    );
    eprintln!("== fresh setup ==");
    eprint!("{}", prof::log_view_string(&prof::snapshot()));
    prof::reset();
    let _ = reference_solver(
        &model.hier,
        &fields.eta_corner,
        &bcs,
        &gmg,
        assembled,
        &mut cache,
    );
    eprintln!("== warm rebuild ==");
    eprint!("{}", prof::log_view_string(&prof::snapshot()));
}
