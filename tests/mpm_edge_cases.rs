//! Material-point edge cases: points landing EXACTLY on element faces,
//! subdomain boundaries, and domain corners must be located, owned by
//! exactly one subdomain, and never lost or duplicated by the migration
//! exchange. Population control must stay conservative: counts end inside
//! the configured band and injected points carry valid element/ξ state.

use ptatin_mesh::{ElementPartition, StructuredMesh};
use ptatin_mpm::advect::relocate_all;
use ptatin_mpm::locate::{locate_point, ElementLocator, XI_TOL};
use ptatin_mpm::migrate::SubdomainSwarms;
use ptatin_mpm::points::{seed_regular, MaterialPoints};
use ptatin_mpm::population::{control_population, element_counts, PopulationConfig};
use ptatin_prng::StdRng;

/// 4×4×4 unit box: element faces at multiples of 0.25, subdomain midplanes
/// (2×2×2 partition) at 0.5.
fn setup() -> (StructuredMesh, ElementLocator, ElementPartition) {
    let mesh = StructuredMesh::new_box(4, 4, 4, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
    let locator = ElementLocator::new(&mesh);
    let partition = ElementPartition::new(&mesh, 2, 2, 2);
    (mesh, locator, partition)
}

/// Positions lying exactly on inter-element faces, edges, the subdomain
/// midplanes, and the domain boundary/corners.
fn boundary_positions() -> Vec<[f64; 3]> {
    let mut xs = Vec::new();
    // Interior element faces (one coordinate exactly on a face plane).
    for &f in &[0.25, 0.5, 0.75] {
        xs.push([f, 0.1, 0.1]);
        xs.push([0.1, f, 0.6]);
        xs.push([0.6, 0.9, f]);
    }
    // Element edges and the interior corner shared by 8 elements (also
    // the corner shared by all 8 subdomains).
    xs.push([0.5, 0.5, 0.1]);
    xs.push([0.25, 0.75, 0.5]);
    xs.push([0.5, 0.5, 0.5]);
    // Domain boundary: faces, edges, corners (inclusive boundaries).
    xs.push([0.0, 0.3, 0.3]);
    xs.push([1.0, 0.3, 0.3]);
    xs.push([0.0, 0.0, 0.7]);
    xs.push([0.0, 0.0, 0.0]);
    xs.push([1.0, 1.0, 1.0]);
    xs
}

#[test]
fn face_and_corner_points_locate_consistently() {
    let (mesh, locator, _) = setup();
    for x in boundary_positions() {
        let (e, xi) =
            locate_point(&mesh, &locator, x, None).unwrap_or_else(|| panic!("{x:?} not located"));
        // ξ is inside (within tolerance) of the claimed element, and the
        // claimed element reproduces the physical position.
        assert!(
            xi.iter().all(|v| v.abs() <= 1.0 + XI_TOL),
            "{x:?}: ξ {xi:?} outside reference cube"
        );
        let corners = mesh.element_corner_coords(e);
        let back = ptatin_fem::geometry::map_to_physical(&corners, xi);
        for d in 0..3 {
            assert!(
                (back[d] - x[d]).abs() < 1e-9,
                "{x:?}: location does not reproduce the position"
            );
        }
        // Location is deterministic: asking again (with the found element
        // as hint, as advection does) gives the same owner.
        let (e2, _) = locate_point(&mesh, &locator, x, Some(e)).unwrap();
        assert_eq!(e, e2, "{x:?}: hint-based relocation changed the owner");
    }
}

fn swarm_at(
    positions: &[[f64; 3]],
    mesh: &StructuredMesh,
    locator: &ElementLocator,
) -> MaterialPoints {
    let mut pts = MaterialPoints::default();
    for (i, &x) in positions.iter().enumerate() {
        pts.push(x, (i % 3) as u16, i as f64 * 0.01);
    }
    let stats = relocate_all(mesh, locator, &mut pts);
    assert_eq!(stats.lost, 0, "boundary points must all be locatable");
    pts
}

#[test]
fn subdomain_boundary_points_neither_lost_nor_duplicated() {
    let (mesh, locator, partition) = setup();
    let positions = boundary_positions();
    let pts = swarm_at(&positions, &mesh, &locator);
    let n = pts.len();
    assert_eq!(n, positions.len());

    let mut swarms = SubdomainSwarms::partition(pts, &partition);
    assert_eq!(swarms.total(), n, "partition dropped a boundary point");
    // Each point is owned by exactly one subdomain, consistently with its
    // element.
    for (s, sw) in swarms.swarms.iter().enumerate() {
        for p in 0..sw.len() {
            assert_eq!(
                partition.subdomain_of_element(sw.element[p] as usize),
                s,
                "point {:?} filed under the wrong subdomain",
                sw.x[p]
            );
        }
    }
    // An exchange round with no motion must be a no-op: nothing sent off
    // the boundary points, nothing deleted, total conserved.
    let stats = swarms.exchange(&mesh, &locator, &partition);
    assert_eq!(stats.deleted, 0, "exchange deleted a boundary point");
    assert_eq!(
        stats.sent, stats.received,
        "a sent boundary point was not re-claimed"
    );
    assert_eq!(swarms.total(), n, "exchange changed the population");
    // No duplication: physical positions are still pairwise distinct.
    let merged = swarms.merge();
    for i in 0..merged.len() {
        for j in (i + 1)..merged.len() {
            assert_ne!(merged.x[i], merged.x[j], "point duplicated by exchange");
        }
    }
}

#[test]
fn exchange_conserves_points_crossing_exactly_onto_the_midplane() {
    let (mesh, locator, partition) = setup();
    // Points one background step left of the subdomain midplane.
    let positions: Vec<[f64; 3]> = (0..8)
        .map(|i| {
            [
                0.375,
                0.0625 + 0.125 * (i % 4) as f64,
                if i < 4 { 0.25 } else { 0.75 },
            ]
        })
        .collect();
    let pts = swarm_at(&positions, &mesh, &locator);
    let n = pts.len();
    let mut swarms = SubdomainSwarms::partition(pts, &partition);
    // Move them EXACTLY onto the midplane x = 0.5 (an element face and the
    // subdomain boundary at once), refresh the (element, ξ) caches the
    // way advection would (the exchange reads ownership off them), then
    // exchange.
    for sw in &mut swarms.swarms {
        for p in 0..sw.len() {
            sw.x[p][0] = 0.5;
        }
        let _ = relocate_all(&mesh, &locator, sw);
    }
    let stats = swarms.exchange(&mesh, &locator, &partition);
    assert_eq!(stats.deleted, 0, "midplane points must not be deleted");
    assert_eq!(stats.sent, stats.received);
    assert_eq!(
        swarms.total(),
        n,
        "population changed crossing the midplane"
    );
    for (s, sw) in swarms.swarms.iter().enumerate() {
        for p in 0..sw.len() {
            assert_eq!(partition.subdomain_of_element(sw.element[p] as usize), s);
        }
    }
}

#[test]
fn population_control_is_conservative_and_bounded() {
    let (mesh, locator, _) = setup();
    let mut rng = StdRng::seed_from_u64(11);
    // Pathological swarm: all points crowded into one octant, so half the
    // elements are overfull and half are starved/empty.
    let mut pts = seed_regular(&mesh, 3, 0.2, &mut rng, |x| if x[1] > 0.5 { 1 } else { 0 });
    for p in 0..pts.len() {
        for d in 0..3 {
            pts.x[p][d] *= 0.5;
        }
    }
    let _ = relocate_all(&mesh, &locator, &mut pts);
    let cfg = PopulationConfig {
        min_per_element: 4,
        max_per_element: 30,
        inject_to: 8,
    };
    let before = pts.len();
    let counts_before = element_counts(&mesh, &pts);
    // An element can only be refilled when a donor state exists: a point
    // of its own, or one in a face neighbour (distant empty elements are
    // deliberately left to the projection fallback).
    let has_donor: Vec<bool> = (0..mesh.num_elements())
        .map(|e| {
            if counts_before[e] > 0 {
                return true;
            }
            let (ei, ej, ek) = mesh.element_ijk(e);
            let lims = [mesh.mx, mesh.my, mesh.mz];
            (0..3).any(|d| {
                let mut ijk = [ei, ej, ek];
                let lower = ijk[d] > 0 && {
                    ijk[d] -= 1;
                    let n = mesh.element_index(ijk[0], ijk[1], ijk[2]);
                    ijk[d] += 1;
                    counts_before[n] > 0
                };
                let upper = ijk[d] + 1 < lims[d] && {
                    ijk[d] += 1;
                    counts_before[mesh.element_index(ijk[0], ijk[1], ijk[2])] > 0
                };
                lower || upper
            })
        })
        .collect();
    let stats = control_population(&mesh, &mut pts, &cfg, &mut rng);
    // Exact bookkeeping: every change is accounted for.
    assert_eq!(
        pts.len(),
        before + stats.injected - stats.removed,
        "population change not equal to injected - removed"
    );
    assert!(
        stats.injected > 0 && stats.removed > 0,
        "pathology exercised"
    );
    let counts = element_counts(&mesh, &pts);
    let mut starved_with_donor = 0;
    for (e, &c) in counts.iter().enumerate() {
        assert!(
            c as usize <= cfg.max_per_element,
            "element {e} still overfull ({c})"
        );
        // Thinning must never drop a healthy element below the minimum.
        if counts_before[e] as usize >= cfg.min_per_element {
            assert!(
                c as usize >= cfg.min_per_element,
                "element {e} thinned below the minimum ({c})"
            );
        }
        if has_donor[e] && (c as usize) < cfg.min_per_element {
            starved_with_donor += 1;
        }
    }
    assert_eq!(
        starved_with_donor, 0,
        "elements with an available donor were left starved"
    );
    // Injected points carry valid ownership: relocating the whole swarm
    // must not change any element assignment or lose anyone.
    let owners: Vec<u32> = pts.element.clone();
    let stats2 = relocate_all(&mesh, &locator, &mut pts);
    assert_eq!(stats2.lost, 0, "injected point fell outside the mesh");
    assert_eq!(owners, pts.element, "injected point had a wrong owner");
}
