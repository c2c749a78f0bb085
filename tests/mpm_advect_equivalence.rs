//! Lane-batched advection and point location against their scalar
//! references. The contract is bitwise: positions, ξ, owning elements and
//! stats of `advect_rk2` / `relocate_all` equal `advect_rk2_scalar` /
//! `relocate_all_scalar` bit for bit on both SIMD paths — the kernels in
//! `ptatin_la::simd` repeat the scalar arithmetic in the scalar operand
//! order with no fused multiply-add, and every lane the batched attempt
//! does not place takes the scalar search. Fusing one multiply-add or
//! reordering one sum in either kernel fails these tests.
//!
//! Covered: mixed-element lanes, `len % 4 ∈ {0,1,2,3}`, unlocated points
//! inside a lane, points crossing one and two elements, points leaving
//! through an outflow face, a midpoint outside the domain (`v2 = v1`), a
//! swarm shuffled by `cull_lost` + `control_population`, stale hints after
//! a remesh, and the `exchange` that trusts the `(element, ξ)` cache.

use ptatin_la::simd::{avx2_fma_available, SimdPath};
use ptatin_mesh::{ElementPartition, StructuredMesh};
use ptatin_mpm::advect::{
    advect_rk2, advect_rk2_scalar, advect_rk2_with_path, cull_lost, relocate_all,
    relocate_all_scalar, relocate_all_with_path, AdvectionStats,
};
use ptatin_mpm::locate::{locate_point, ElementLocator};
use ptatin_mpm::migrate::{MigrationStats, SubdomainSwarms};
use ptatin_mpm::points::{seed_regular, MaterialPoints, PointState};
use ptatin_mpm::population::{control_population, PopulationConfig};
use ptatin_prng::{Rng, StdRng};
use std::f64::consts::PI;

fn paths() -> Vec<SimdPath> {
    let mut p = vec![SimdPath::Portable];
    if avx2_fma_available() {
        p.push(SimdPath::Avx2Fma);
    }
    p
}

/// Unit box with every element a general (non-parallelepiped) hexahedron;
/// the boundary faces stay planar so "outside" is well defined.
fn deformed_mesh(mx: usize, my: usize, mz: usize) -> StructuredMesh {
    let mut mesh = StructuredMesh::new_box(mx, my, mz, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
    mesh.deform(|x| {
        let bump = (PI * x[0]).sin() * (PI * x[1]).sin() * (PI * x[2]).sin();
        [
            x[0] + 0.03 * bump * (3.0 * x[1] + x[2]).cos(),
            x[1] + 0.03 * bump * (2.0 * x[2] - x[0]).sin(),
            x[2] + 0.04 * bump * (2.0 * PI * x[0]).cos(),
        ]
    });
    mesh
}

/// A swirling field that is tangent to no wall in particular, scaled by
/// `amp`, plus a uniform `drift` (outflow when it points out of a face).
fn velocity(mesh: &StructuredMesh, amp: f64, drift: [f64; 3]) -> Vec<f64> {
    mesh.coords
        .iter()
        .flat_map(|x| {
            let (sx, cx) = (PI * x[0]).sin_cos();
            let (sy, cy) = (PI * x[1]).sin_cos();
            let (sz, cz) = (PI * x[2]).sin_cos();
            [
                drift[0] + amp * (sx * sx * sz * cz + 0.3 * sy * cz),
                drift[1] + amp * (0.4 * cx * sz - 0.2 * sy * sy * cx),
                drift[2] + amp * (-sx * cx * sz * sz + 0.25 * cy * sx),
            ]
        })
        .collect()
}

/// Jittered seeding, then a shuffle so that consecutive points (the four
/// of a lane group) sit in unrelated elements.
fn shuffled_swarm(mesh: &StructuredMesh, np: usize, seed: u64) -> MaterialPoints {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pts = seed_regular(mesh, np, 0.3, &mut rng, |x| u16::from(x[2] > 0.5));
    for i in (1..pts.len()).rev() {
        let j = rng.gen_index(i + 1);
        pts.x.swap(i, j);
        pts.xi.swap(i, j);
        pts.element.swap(i, j);
        pts.lithology.swap(i, j);
        pts.plastic_strain.swap(i, j);
    }
    pts
}

fn truncate(pts: &mut MaterialPoints, len: usize) {
    pts.x.truncate(len);
    pts.xi.truncate(len);
    pts.element.truncate(len);
    pts.lithology.truncate(len);
    pts.plastic_strain.truncate(len);
}

fn bits3(v: &[[f64; 3]]) -> Vec<[u64; 3]> {
    v.iter().map(|p| p.map(f64::to_bits)).collect()
}

#[track_caller]
fn assert_swarms_bitwise_eq(got: &MaterialPoints, want: &MaterialPoints, what: &str) {
    assert_eq!(got.element, want.element, "{what}: elements");
    assert_eq!(bits3(&got.x), bits3(&want.x), "{what}: positions");
    assert_eq!(bits3(&got.xi), bits3(&want.xi), "{what}: ξ");
    assert_eq!(got.lithology, want.lithology, "{what}: lithology");
}

/// One step on clones of `pts` through the scalar loop and through the
/// batched loop on every path; returns the scalar result.
#[track_caller]
fn step_all_ways(
    mesh: &StructuredMesh,
    locator: &ElementLocator,
    pts: &MaterialPoints,
    vel: &[f64],
    dt: f64,
    what: &str,
) -> (MaterialPoints, AdvectionStats) {
    let mut want = pts.clone();
    let want_stats = advect_rk2_scalar(mesh, locator, &mut want, vel, dt);
    for path in paths() {
        let mut got = pts.clone();
        let stats = advect_rk2_with_path(mesh, locator, &mut got, vel, dt, path);
        assert_eq!(stats, want_stats, "{what} {path:?}: stats");
        assert_swarms_bitwise_eq(&got, &want, &format!("{what} {path:?}"));
    }
    (want, want_stats)
}

/// Largest element-index distance (in i, j or k) a point moved.
fn max_element_hop(
    mesh: &StructuredMesh,
    before: &MaterialPoints,
    after: &MaterialPoints,
) -> usize {
    let mut hop = 0;
    for (&a, &b) in before.element.iter().zip(&after.element) {
        if a == u32::MAX || b == u32::MAX {
            continue;
        }
        let (ai, aj, ak) = mesh.element_ijk(a as usize);
        let (bi, bj, bk) = mesh.element_ijk(b as usize);
        hop = hop
            .max(ai.abs_diff(bi))
            .max(aj.abs_diff(bj))
            .max(ak.abs_diff(bk));
    }
    hop
}

#[test]
fn advect_bitwise_mixed_lanes_tails_and_unlocated_points() {
    let mesh = deformed_mesh(6, 5, 4);
    let locator = ElementLocator::new(&mesh);
    let vel = velocity(&mesh, 1.0, [0.0; 3]);
    let full = shuffled_swarm(&mesh, 2, 41);
    for tail in 0..4 {
        let mut pts = full.clone();
        truncate(&mut pts, 4 * 60 + tail);
        // Unlocated points at every lane position, and one whole group.
        for p in [1, 6, 11, 16, 40, 41, 42, 43] {
            pts.element[p] = u32::MAX;
        }
        // ≈0.4 element widths per step: lanes stay, leave and come back.
        for step in 0..4 {
            let what = format!("len%4={tail} step {step}");
            let (next, stats) = step_all_ways(&mesh, &locator, &pts, &vel, 0.06, &what);
            assert!(stats.lost >= 8, "{what}: flagged points count as lost");
            if step == 3 {
                assert!(stats.relocated > 0, "{what}: some point changed element");
            }
            pts = next;
        }
    }
}

#[test]
fn advect_bitwise_points_crossing_one_and_two_elements() {
    let mesh = deformed_mesh(8, 8, 8);
    let locator = ElementLocator::new(&mesh);
    let vel = velocity(&mesh, 1.0, [0.0; 3]);
    let pts = shuffled_swarm(&mesh, 2, 43);
    // Peak speed ≈ 0.9: one element (1/8) per step, then two and a half.
    for (dt, want_hop) in [(0.13, 1), (0.33, 2)] {
        let what = format!("dt={dt}");
        let (after, stats) = step_all_ways(&mesh, &locator, &pts, &vel, dt, &what);
        assert!(stats.relocated > pts.len() / 10, "{what}: {stats:?}");
        assert!(
            max_element_hop(&mesh, &pts, &after) >= want_hop,
            "{what}: no point crossed {want_hop} element(s)"
        );
    }
}

#[test]
fn advect_bitwise_outflow_and_midpoint_outside_domain() {
    let mesh = deformed_mesh(6, 5, 4);
    let locator = ElementLocator::new(&mesh);
    // Strong drift through the +x face on top of the swirl.
    let vel = velocity(&mesh, 0.3, [0.9, 0.0, 0.0]);
    let pts = shuffled_swarm(&mesh, 3, 47);
    let dt = 0.2;
    let (after, stats) = step_all_ways(&mesh, &locator, &pts, &vel, dt, "outflow");
    assert!(stats.lost > 50, "points near +x must leave: {stats:?}");
    // Some of them were already outside at the midpoint, so their second
    // stage reused v1: x1 = x0 + dt·v1 exactly.
    let mut midpoint_outside = 0;
    for p in 0..pts.len() {
        let v1 = ptatin_mpm::interpolate_velocity(&mesh, &vel, pts.element[p] as usize, pts.xi[p]);
        let x0 = pts.x[p];
        let xmid = [
            x0[0] + 0.5 * dt * v1[0],
            x0[1] + 0.5 * dt * v1[1],
            x0[2] + 0.5 * dt * v1[2],
        ];
        if locate_point(&mesh, &locator, xmid, Some(pts.element[p] as usize)).is_none() {
            midpoint_outside += 1;
            let x1 = [x0[0] + dt * v1[0], x0[1] + dt * v1[1], x0[2] + dt * v1[2]];
            assert_eq!(after.x[p].map(f64::to_bits), x1.map(f64::to_bits));
            assert_eq!(after.element[p], u32::MAX);
        }
    }
    assert!(
        midpoint_outside > 10,
        "only {midpoint_outside} midpoints left"
    );
}

#[test]
fn advect_bitwise_after_cull_and_population_shuffle() {
    let mesh = deformed_mesh(6, 5, 4);
    let locator = ElementLocator::new(&mesh);
    let vel = velocity(&mesh, 0.6, [0.5, 0.0, -0.2]);
    let mut rng = StdRng::seed_from_u64(53);
    // Element-major seeding this time: the shuffling is the swap-removes
    // of culling and thinning plus the injected tail.
    let mut pts = seed_regular(&mesh, 3, 0.25, &mut rng, |x| u16::from(x[0] > 0.5));
    let population = PopulationConfig {
        min_per_element: 24,
        max_per_element: 30,
        inject_to: 27,
    };
    let (mut culled, mut injected, mut removed) = (0, 0, 0);
    for step in 0..4 {
        let (next, _) = step_all_ways(&mesh, &locator, &pts, &vel, 0.08, &format!("step {step}"));
        pts = next;
        culled += cull_lost(&mut pts);
        let pop = control_population(&mesh, &mut pts, &population, &mut rng);
        injected += pop.injected;
        removed += pop.removed;
    }
    assert!(culled > 0 && injected > 0 && removed > 0);
}

#[test]
fn advect_bitwise_default_entry_matches_scalar() {
    // The dispatching entry point on whatever path this process runs —
    // the portable one under `PTATIN_NO_AVX=1`.
    let mesh = deformed_mesh(5, 4, 3);
    let locator = ElementLocator::new(&mesh);
    let vel = velocity(&mesh, 1.0, [0.2, 0.1, 0.0]);
    let pts = shuffled_swarm(&mesh, 3, 59);
    let mut want = pts.clone();
    let mut got = pts.clone();
    let want_stats = advect_rk2_scalar(&mesh, &locator, &mut want, &vel, 0.1);
    assert_eq!(advect_rk2(&mesh, &locator, &mut got, &vel, 0.1), want_stats);
    assert_swarms_bitwise_eq(&got, &want, "advect_rk2");
    let (mut want, mut got) = (got.clone(), got);
    let want_stats = relocate_all_scalar(&mesh, &locator, &mut want);
    assert_eq!(relocate_all(&mesh, &locator, &mut got), want_stats);
    assert_swarms_bitwise_eq(&got, &want, "relocate_all");
}

#[test]
fn relocate_bitwise_stale_hints_unlocated_and_outside_points() {
    let mesh = deformed_mesh(6, 5, 4);
    let locator = ElementLocator::new(&mesh);
    let full = shuffled_swarm(&mesh, 2, 61);
    // The swarm was seeded on `mesh`; relocating it on a differently
    // deformed mesh makes every ξ and many owners stale.
    let mut other = StructuredMesh::new_box(6, 5, 4, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
    other.deform(|x| {
        let bump = (PI * x[0]).sin() * (PI * x[1]).sin() * (PI * x[2]).sin();
        [
            x[0] - 0.05 * bump,
            x[1] + 0.06 * bump * x[2],
            x[2] + 0.05 * bump,
        ]
    });
    let other_locator = ElementLocator::new(&other);
    for tail in 0..4 {
        let mut pts = full.clone();
        truncate(&mut pts, 4 * 70 + tail);
        for p in [0, 5, 10, 15, 100, 101, 102, 103] {
            pts.element[p] = u32::MAX; // no hint
        }
        pts.x[21] = [1.7, 0.5, 0.5]; // outside, with a hint
        pts.x[100] = [0.5, -0.4, 0.5]; // outside, no hint
        pts.element[33] = (mesh.num_elements() - 1) as u32; // far-away hint
        pts.element[34] = 0;
        pts.element[35] = mesh.num_elements() as u32 + 5; // past the mesh: clamped
        for (m, l, what) in [
            (&mesh, &locator, "same mesh"),
            (&other, &other_locator, "remeshed"),
        ] {
            let mut want = pts.clone();
            let want_stats = relocate_all_scalar(m, l, &mut want);
            assert_eq!(want_stats.lost, 2, "{what}");
            for path in paths() {
                let mut got = pts.clone();
                let stats = relocate_all_with_path(m, l, &mut got, path);
                assert_eq!(stats, want_stats, "{what} {path:?} len%4={tail}");
                assert_swarms_bitwise_eq(&got, &want, &format!("{what} {path:?} len%4={tail}"));
            }
        }
    }
}

/// The exchange as it was before it trusted the `(element, ξ)` cache:
/// phase 1 re-runs point location on every point of every subdomain.
fn exchange_with_full_relocate(
    swarms: &mut SubdomainSwarms,
    mesh: &StructuredMesh,
    locator: &ElementLocator,
    partition: &ElementPartition,
) -> MigrationStats {
    let ns = partition.num_subdomains();
    let mut stats = MigrationStats::default();
    let mut send_lists: Vec<Vec<PointState>> = vec![Vec::new(); ns];
    for s in 0..ns {
        let sw = &mut swarms.swarms[s];
        let mut i = 0;
        while i < sw.len() {
            let hint = (sw.element[i] != u32::MAX).then_some(sw.element[i] as usize);
            match locate_point(mesh, locator, sw.x[i], hint) {
                Some((e, xi)) if partition.subdomain_of_element(e) == s => {
                    sw.element[i] = e as u32;
                    sw.xi[i] = xi;
                    i += 1;
                }
                _ => {
                    send_lists[s].push(sw.extract(i));
                    sw.swap_remove(i);
                    stats.sent += 1;
                }
            }
        }
    }
    for s in 0..ns {
        for ps in send_lists[s].drain(..) {
            match locate_point(mesh, locator, ps.x, None) {
                Some((e, xi)) if partition.subdomain_of_element(e) != s => {
                    let owner = partition.subdomain_of_element(e);
                    swarms.swarms[owner].insert_located(ps, e as u32, xi);
                    stats.received += 1;
                }
                _ => stats.deleted += 1,
            }
        }
    }
    stats
}

#[test]
fn exchange_on_advected_partition_bitwise_equals_full_relocate() {
    let mesh = deformed_mesh(6, 6, 3);
    let locator = ElementLocator::new(&mesh);
    let partition = ElementPartition::new(&mesh, 2, 2, 1);
    // Swirl plus drift towards +x: points change subdomain both ways
    // across the midplanes and some leave the domain.
    let vel = velocity(&mesh, 0.8, [0.4, 0.1, 0.0]);
    let pts = shuffled_swarm(&mesh, 3, 67);
    let split = |pts: &MaterialPoints| {
        let mut swarms = SubdomainSwarms::partition(pts.clone(), &partition);
        for sw in &mut swarms.swarms {
            advect_rk2(&mesh, &locator, sw, &vel, 0.15);
        }
        swarms
    };
    let mut got = split(&pts);
    let mut want = split(&pts);
    let stats = got.exchange(&mesh, &locator, &partition);
    let want_stats = exchange_with_full_relocate(&mut want, &mesh, &locator, &partition);
    assert_eq!(stats, want_stats);
    assert!(stats.received > 0 && stats.deleted > 0, "{stats:?}");
    for (s, (g, w)) in got.swarms.iter().zip(&want.swarms).enumerate() {
        assert_swarms_bitwise_eq(g, w, &format!("subdomain {s}"));
    }
    assert_swarms_bitwise_eq(&got.merge(), &want.merge(), "merged");
}
