//! Material-point migration between mesh subdomains — the exchange
//! algorithm of §II-D: points that leave their subdomain are collected in
//! a send list `L_s`, offered to all neighbouring subdomains, relocated
//! there, and deleted if no neighbour claims them.
//!
//! In this shared-memory reproduction the "send" is a move between
//! per-subdomain swarms, but the algorithm (including deletion of
//! unclaimed points, which implements outflow) is the paper's.

use crate::locate::{locate_point, ElementLocator};
use crate::points::{MaterialPoints, PointState};
use ptatin_mesh::{ElementPartition, StructuredMesh};
use ptatin_prof as prof;

/// Points distributed over subdomains, one swarm per subdomain.
pub struct SubdomainSwarms {
    pub swarms: Vec<MaterialPoints>,
}

/// Statistics of one exchange round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Points placed on a neighbour's send list.
    pub sent: usize,
    /// Points accepted by a neighbouring subdomain.
    pub received: usize,
    /// Points no subdomain claimed (deleted — outflow or lost).
    pub deleted: usize,
}

impl SubdomainSwarms {
    /// Distribute a single swarm into per-subdomain swarms by element
    /// ownership. Unlocated points are dropped.
    pub fn partition(points: MaterialPoints, partition: &ElementPartition) -> Self {
        let mut swarms: Vec<MaterialPoints> = (0..partition.num_subdomains())
            .map(|_| MaterialPoints::default())
            .collect();
        for p in 0..points.len() {
            let e = points.element[p];
            if e == u32::MAX {
                continue;
            }
            let s = partition.subdomain_of_element(e as usize);
            swarms[s].push_located(
                points.x[p],
                points.lithology[p],
                points.plastic_strain[p],
                e,
                points.xi[p],
            );
        }
        Self { swarms }
    }

    /// Total point count across subdomains.
    pub fn total(&self) -> usize {
        // DETERMINISM-OK: integer sum, order-independent.
        self.swarms.iter().map(|s| s.len()).sum()
    }

    /// Merge back into a single swarm.
    pub fn merge(self) -> MaterialPoints {
        let mut out = MaterialPoints::default();
        for sw in self.swarms {
            for p in 0..sw.len() {
                out.push_located(
                    sw.x[p],
                    sw.lithology[p],
                    sw.plastic_strain[p],
                    sw.element[p],
                    sw.xi[p],
                );
            }
        }
        out
    }

    /// One migration round after advection: points now owned elsewhere go
    /// to `L_s`, are offered to all neighbours (which re-run point
    /// location), and unclaimed points are deleted.
    ///
    /// Precondition (the one `project_to_corners` relies on too): every
    /// point's `(element, ξ)` cache is valid on `mesh` — as `advect_rk2`
    /// and `relocate_all` leave it — or flagged `u32::MAX`. Ownership is
    /// read off the cached element; only flagged points are located here.
    pub fn exchange(
        &mut self,
        mesh: &StructuredMesh,
        locator: &ElementLocator,
        partition: &ElementPartition,
    ) -> MigrationStats {
        let _s = prof::scope("mpm.exchange");
        let ns = partition.num_subdomains();
        let mut stats = MigrationStats::default();
        // Phase 1: build send lists.
        let mut send_lists: Vec<Vec<PointState>> = vec![Vec::new(); ns];
        for s in 0..ns {
            let sw = &mut self.swarms[s];
            let mut i = 0;
            while i < sw.len() {
                if sw.element[i] == u32::MAX {
                    if let Some((e, xi)) = locate_point(mesh, locator, sw.x[i], None) {
                        sw.element[i] = e as u32;
                        sw.xi[i] = xi;
                    }
                }
                let e = sw.element[i];
                if e != u32::MAX && partition.subdomain_of_element(e as usize) == s {
                    i += 1;
                } else {
                    // Not ours any more (or not locatable from here).
                    send_lists[s].push(sw.extract(i));
                    sw.swap_remove(i);
                    stats.sent += 1;
                }
            }
        }
        // Phase 2: offer each send list to the neighbours of its origin;
        // the first neighbour whose subdomain contains the point claims it.
        for s in 0..ns {
            for ps in send_lists[s].drain(..) {
                let mut claimed = false;
                if let Some((e, xi)) = locate_point(mesh, locator, ps.x, None) {
                    let owner = partition.subdomain_of_element(e);
                    if owner != s {
                        // Accept any owner, not just `partition.neighbors(s)`
                        // (a point can cross a subdomain corner in one
                        // step); the paper restricts to neighbours because
                        // MPI messages are only posted there — with a
                        // CFL-limited step the two sets coincide.
                        self.swarms[owner].insert_located(ps, e as u32, xi);
                        stats.received += 1;
                        claimed = true;
                    }
                }
                if !claimed {
                    stats.deleted += 1;
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advect::advect_rk2;
    use crate::points::seed_regular;
    use ptatin_prng::StdRng;

    fn setup() -> (StructuredMesh, ElementLocator, ElementPartition) {
        let mesh = StructuredMesh::new_box(4, 4, 4, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let locator = ElementLocator::new(&mesh);
        let partition = ElementPartition::new(&mesh, 2, 2, 2);
        (mesh, locator, partition)
    }

    #[test]
    fn partition_respects_ownership() {
        let (mesh, _locator, partition) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        let pts = seed_regular(&mesh, 2, 0.0, &mut rng, |_| 0);
        let total = pts.len();
        let swarms = SubdomainSwarms::partition(pts, &partition);
        assert_eq!(swarms.total(), total);
        for (s, sw) in swarms.swarms.iter().enumerate() {
            for p in 0..sw.len() {
                assert_eq!(partition.subdomain_of_element(sw.element[p] as usize), s);
            }
        }
    }

    #[test]
    fn exchange_moves_points_across_subdomains() {
        let (mesh, locator, partition) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let pts = seed_regular(&mesh, 2, 0.0, &mut rng, |_| 0);
        let mut swarms = SubdomainSwarms::partition(pts, &partition);
        let before = swarms.total();
        // Advect everything to +x by one element width: interior points
        // switch subdomains across the x midplane; the rightmost column
        // exits the domain.
        let mut vel = vec![0.0; 3 * mesh.num_nodes()];
        for n in 0..mesh.num_nodes() {
            vel[3 * n] = 0.25;
        }
        for sw in &mut swarms.swarms {
            let _ = advect_rk2(&mesh, &locator, sw, &vel, 1.0);
        }
        let stats = swarms.exchange(&mesh, &locator, &partition);
        assert!(stats.sent > 0);
        assert!(stats.received > 0);
        assert!(stats.deleted > 0, "outflow points must be deleted");
        // Conservation: all sent points are either received or deleted.
        assert_eq!(stats.sent, stats.received + stats.deleted);
        assert_eq!(swarms.total(), before - stats.deleted);
        // Ownership is consistent afterwards.
        for (s, sw) in swarms.swarms.iter().enumerate() {
            for p in 0..sw.len() {
                assert_eq!(partition.subdomain_of_element(sw.element[p] as usize), s);
            }
        }
    }

    #[test]
    fn no_flow_no_migration() {
        let (mesh, locator, partition) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let pts = seed_regular(&mesh, 2, 0.1, &mut rng, |_| 0);
        let mut swarms = SubdomainSwarms::partition(pts, &partition);
        let stats = swarms.exchange(&mesh, &locator, &partition);
        assert_eq!(stats, MigrationStats::default());
    }

    #[test]
    fn merge_roundtrip() {
        let (mesh, _locator, partition) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let pts = seed_regular(&mesh, 2, 0.0, &mut rng, |_| 0);
        let n = pts.len();
        let merged = SubdomainSwarms::partition(pts, &partition).merge();
        assert_eq!(merged.len(), n);
    }
}
