//! Population control: long simulations stretch and compress the point
//! cloud; elements starved of points lose coefficient resolution while
//! crowded elements waste time. Under-populated elements are re-seeded
//! with points inheriting the locally dominant state; over-populated
//! elements are thinned.

use crate::points::MaterialPoints;
use ptatin_fem::geometry::map_to_physical;
use ptatin_mesh::StructuredMesh;
use ptatin_prng::Rng;
use ptatin_prof as prof;

/// Population bounds per element.
#[derive(Clone, Copy, Debug)]
pub struct PopulationConfig {
    pub min_per_element: usize,
    pub max_per_element: usize,
    /// Points injected when an element falls below the minimum.
    pub inject_to: usize,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        Self {
            min_per_element: 4,
            max_per_element: 60,
            inject_to: 8,
        }
    }
}

/// Outcome of one control pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PopulationStats {
    pub injected: usize,
    pub removed: usize,
    /// Elements that had no point at all (state cloned from a neighbour).
    pub empty_elements: usize,
}

/// Per-element point counts.
pub fn element_counts(mesh: &StructuredMesh, points: &MaterialPoints) -> Vec<u32> {
    let mut counts = vec![0u32; mesh.num_elements()];
    for &e in &points.element {
        if e != u32::MAX {
            counts[e as usize] += 1;
        }
    }
    counts
}

/// One control pass. Injected points copy lithology/plastic strain from
/// the nearest existing point in the element (or a face neighbour for
/// empty elements); removal thins crowded elements arbitrarily but
/// deterministically.
pub fn control_population<R: Rng>(
    mesh: &StructuredMesh,
    points: &mut MaterialPoints,
    cfg: &PopulationConfig,
    rng: &mut R,
) -> PopulationStats {
    let _s = prof::scope("mpm.population");
    let mut stats = PopulationStats::default();
    // Build per-element point lists.
    let nel = mesh.num_elements();
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); nel];
    for p in 0..points.len() {
        let e = points.element[p];
        if e != u32::MAX {
            lists[e as usize].push(p as u32);
        }
    }
    // Removal first (indices stay valid by removing from the back).
    let mut to_remove: Vec<u32> = Vec::new();
    for list in &lists {
        if list.len() > cfg.max_per_element {
            // Keep every k-th point, drop the excess deterministically.
            let excess = list.len() - cfg.max_per_element;
            let stride = list.len() / excess.max(1);
            let mut dropped = 0;
            for (i, &p) in list.iter().enumerate() {
                if dropped < excess && i % stride.max(1) == 0 {
                    to_remove.push(p);
                    dropped += 1;
                }
            }
        }
    }
    to_remove.sort_unstable_by(|a, b| b.cmp(a));
    for p in &to_remove {
        points.swap_remove(*p as usize);
        stats.removed += 1;
    }
    // Rebuild lists after removal.
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); nel];
    for p in 0..points.len() {
        let e = points.element[p];
        if e != u32::MAX {
            lists[e as usize].push(p as u32);
        }
    }
    // Injection.
    for e in 0..nel {
        if lists[e].len() >= cfg.min_per_element {
            continue;
        }
        // Donor state: nearest point in this element, else any point in a
        // face-neighbouring element.
        let donor = lists[e].first().copied().or_else(|| {
            let (ei, ej, ek) = mesh.element_ijk(e);
            let mut neighbors = Vec::new();
            let lims = [mesh.mx, mesh.my, mesh.mz];
            for d in 0..3 {
                let mut ijk = [ei, ej, ek];
                if ijk[d] > 0 {
                    ijk[d] -= 1;
                    neighbors.push(mesh.element_index(ijk[0], ijk[1], ijk[2]));
                    ijk[d] += 1;
                }
                if ijk[d] + 1 < lims[d] {
                    ijk[d] += 1;
                    neighbors.push(mesh.element_index(ijk[0], ijk[1], ijk[2]));
                }
            }
            neighbors
                .into_iter()
                .find_map(|ne| lists[ne].first().copied())
        });
        let Some(donor) = donor else {
            stats.empty_elements += 1;
            continue; // nothing nearby to clone — leave to projection fallback
        };
        if lists[e].is_empty() {
            stats.empty_elements += 1;
        }
        let corners = mesh.element_corner_coords(e);
        let need = cfg.inject_to.saturating_sub(lists[e].len());
        for _ in 0..need {
            let xi = [
                rng.gen_range(-0.9..0.9),
                rng.gen_range(-0.9..0.9),
                rng.gen_range(-0.9..0.9),
            ];
            // Donor chosen by proximity among the element's points (when
            // several exist) to preserve sub-element interfaces.
            let x = map_to_physical(&corners, xi);
            let mut best = donor;
            let mut best_d = f64::INFINITY;
            for &cand in &lists[e] {
                let cx = points.x[cand as usize];
                let d2 = (cx[0] - x[0]).powi(2) + (cx[1] - x[1]).powi(2) + (cx[2] - x[2]).powi(2);
                if d2 < best_d {
                    best_d = d2;
                    best = cand;
                }
            }
            points.push(
                x,
                points.lithology[best as usize],
                points.plastic_strain[best as usize],
            );
            let idx = points.len() - 1;
            points.element[idx] = e as u32;
            points.xi[idx] = xi;
            stats.injected += 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::seed_regular;
    use ptatin_prng::StdRng;

    fn mesh() -> StructuredMesh {
        StructuredMesh::new_box(3, 3, 3, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0])
    }

    #[test]
    fn healthy_population_untouched() {
        let mesh = mesh();
        let mut rng = StdRng::seed_from_u64(1);
        let mut pts = seed_regular(&mesh, 2, 0.0, &mut rng, |_| 0);
        let n = pts.len();
        let stats = control_population(&mesh, &mut pts, &PopulationConfig::default(), &mut rng);
        assert_eq!(stats, PopulationStats::default());
        assert_eq!(pts.len(), n);
    }

    #[test]
    fn starved_element_is_refilled_with_inherited_state() {
        let mesh = mesh();
        let mut rng = StdRng::seed_from_u64(2);
        let mut pts = seed_regular(&mesh, 2, 0.0, &mut rng, |_| 3);
        // Remove every point of element 0.
        let mut i = 0;
        while i < pts.len() {
            if pts.element[i] == 0 {
                pts.swap_remove(i);
            } else {
                i += 1;
            }
        }
        let cfg = PopulationConfig::default();
        let stats = control_population(&mesh, &mut pts, &cfg, &mut rng);
        assert!(stats.injected >= cfg.inject_to);
        assert_eq!(stats.empty_elements, 1);
        let counts = element_counts(&mesh, &pts);
        assert!(counts[0] as usize >= cfg.min_per_element);
        // Inherited lithology from neighbours.
        for p in 0..pts.len() {
            if pts.element[p] == 0 {
                assert_eq!(pts.lithology[p], 3);
            }
        }
    }

    #[test]
    fn crowded_element_is_thinned() {
        let mesh = mesh();
        let mut rng = StdRng::seed_from_u64(3);
        let mut pts = seed_regular(&mesh, 2, 0.0, &mut rng, |_| 0);
        // Stuff 100 extra points into element 5.
        let corners = mesh.element_corner_coords(5);
        for k in 0..100 {
            let xi = [
                -0.8 + 1.6 * ((k % 5) as f64) / 4.0,
                -0.8 + 1.6 * (((k / 5) % 5) as f64) / 4.0,
                -0.8 + 1.6 * ((k / 25) as f64) / 3.0,
            ];
            let x = map_to_physical(&corners, xi);
            pts.push(x, 0, 0.0);
            let idx = pts.len() - 1;
            pts.element[idx] = 5;
            pts.xi[idx] = xi;
        }
        let cfg = PopulationConfig::default();
        let stats = control_population(&mesh, &mut pts, &cfg, &mut rng);
        assert!(stats.removed > 0);
        let counts = element_counts(&mesh, &pts);
        assert!(counts[5] as usize <= cfg.max_per_element + 1);
    }
}
