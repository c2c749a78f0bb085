//! Quick convergence-rate measurement for the SolCx verification problem.

use ptatin_core::models::solcx::{SolCxConfig, SolCxModel};

fn main() {
    for (el, er) in [(1.0, 1.0), (1.0, 1e4)] {
        println!("eta = ({el}, {er})");
        let mut prev: Option<(f64, f64, f64)> = None;
        for m in [4usize, 8, 16] {
            let model = SolCxModel::new(SolCxConfig {
                mx: m,
                my: 2,
                mz: m,
                eta_left: el,
                eta_right: er,
                ..SolCxConfig::default()
            });
            let rep = model.solve();
            let (ev, ep) = (rep.errors.velocity_l2, rep.errors.pressure_l2);
            let (rv, rp) = match prev {
                Some((_, pv, pp)) => ((pv / ev).log2(), (pp / ep).log2()),
                None => (f64::NAN, f64::NAN),
            };
            println!(
                "  m={m:3} its={:4} conv={} vel={ev:.4e} (rate {rv:.2}) p={ep:.4e} (rate {rp:.2})",
                rep.stats.iterations, rep.stats.converged
            );
            prev = Some((rep.h, ev, ep));
        }
    }
}
