//! Model problems: the sinker robustness/performance problem (§IV), the
//! continental rifting application (§V), and the scenario-registry
//! workloads — SolCx analytic verification, plastic shear-band
//! localization, and the nonlinear falling-block problem.

pub mod falling_block;
pub mod rift;
pub mod shear_band;
pub mod sinker;
pub mod solcx;

use ptatin_mesh::axis_supports_levels;

/// Why a fine grid of `axes` elements cannot carry a `levels`-deep
/// hierarchy under the velocity multigrid, as `(key, message)` with the
/// key at fault; `None` when every model can be built on it. `axes` pairs
/// each extent with the key that sets it.
pub fn hierarchy_error(axes: [(&str, usize); 3], levels: usize) -> Option<(&str, String)> {
    if levels < 2 {
        return Some((
            "levels",
            format!(
                "levels = {levels} must be at least 2: the velocity multigrid needs a \
                 smoothed level above its coarse solve"
            ),
        ));
    }
    let (key, m) = axes
        .into_iter()
        .find(|&(_, m)| !axis_supports_levels(m, levels))?;
    let k = levels - 1;
    let msg = if m == 0 {
        format!("{key} = 0 must be positive")
    } else {
        format!(
            "{key} = {m} is not divisible by 2^(levels-1) = 2^{k}: \
             the mesh cannot coarsen {k} times"
        )
    };
    Some((key, msg))
}
