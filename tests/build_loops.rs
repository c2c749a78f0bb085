//! The element loops of a solver build on SIMD lanes (DESIGN.md §9, §13):
//! the smoother diagonal of the batched operator, the geometry pack's
//! metric terms and the body-force load must hold their scalar
//! references' bits — `viscous_diagonal` ≡ `matrix_free_diagonal`, every
//! real pack slot ≡ `kernels::qp_jacobian` with ghost slots `+0.0`, and
//! `assemble_body_force` ≡ the per-quadrature-point `qp_geometry` loop it
//! replaced (copied below as the oracle) — on both SIMD paths, at one and
//! four threads, on sinker boxes, a deformed rift-shaped mesh and boxes
//! whose colour sizes and element counts leave every remainder mod 4.

use ptatin_core::models::rift::rift_bc;
use ptatin_core::models::sinker::sinker_bc;
use ptatin_fem::assemble::{assemble_body_force, num_velocity_dofs, Q2QuadTables};
use ptatin_fem::bc::DirichletBc;
use ptatin_fem::geometry::qp_geometry;
use ptatin_la::par;
use ptatin_la::simd::{avx2_fma_available, SimdPath, LANES};
use ptatin_mesh::StructuredMesh;
use ptatin_ops::kernels::{q1_grad_tables, qp_jacobian};
use ptatin_ops::{matrix_free_diagonal, viscous_diagonal, BatchedGeometry, ViscousOpData, NQP};
use ptatin_prng::{Rng, StdRng};
use std::sync::Mutex;

/// Serializes the tests that pin the process-global thread count.
static NT_LOCK: Mutex<()> = Mutex::new(());

fn paths() -> Vec<SimdPath> {
    let mut p = vec![SimdPath::Portable];
    if avx2_fma_available() {
        p.push(SimdPath::Avx2Fma);
    }
    p
}

fn unit_box(mx: usize, my: usize, mz: usize) -> StructuredMesh {
    StructuredMesh::new_box(mx, my, mz, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0])
}

/// The rift's 12×4×8 box with a topography and a shear, so no two
/// elements share a Jacobian.
fn rift_mesh() -> StructuredMesh {
    let mut mesh = StructuredMesh::new_box(12, 4, 8, [0.0, 3.0], [0.0, 1.0], [-1.0, 0.0]);
    mesh.deform(|c| {
        let top = 0.08 * (2.1 * c[0]).sin() * (1.3 * c[1] + 0.4).cos();
        [c[0] + 0.05 * c[2] * c[1], c[1], c[2] + top * (1.0 + c[2])]
    });
    mesh
}

/// The test meshes with their Dirichlet sets. Colour sizes of 5×3×3
/// leave `% 4` remainders 2 and 3, of 5×5×2 remainders 1 and 2; the
/// element counts 45, 50 and 27 leave 1, 2 and 3.
fn cases() -> Vec<(&'static str, StructuredMesh, DirichletBc)> {
    let sinker = |m: usize| {
        let mesh = unit_box(m, m, m);
        let bc = sinker_bc(&mesh);
        (mesh, bc)
    };
    let (s8, b8) = sinker(8);
    let (s12, b12) = sinker(12);
    let rift = rift_mesh();
    let rbc = rift_bc(&rift, 0.5, 0.0);
    let mut sheared = unit_box(5, 3, 3);
    sheared.deform(|c| {
        [
            c[0] + 0.1 * c[1] * c[2],
            c[1] - 0.05 * c[0],
            c[2] + 0.07 * c[0],
        ]
    });
    let sbc = sinker_bc(&sheared);
    vec![
        ("sinker 8³", s8, b8),
        ("sinker 12³", s12, b12),
        ("deformed rift 12×4×8", rift, rbc),
        ("sheared 5×3×3", sheared, sbc),
        ("5×5×2 unconstrained", unit_box(5, 5, 2), DirichletBc::new()),
        ("3×3×3 unconstrained", unit_box(3, 3, 3), DirichletBc::new()),
    ]
}

/// Viscosities over six decades, so every product of the loop matters.
fn eta_field(nel: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..nel * NQP)
        .map(|_| 10f64.powf(rng.gen_range(-3.0..3.0)))
        .collect()
}

fn assert_bitwise(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: entry {i}: {g:e} vs {w:e}"
        );
    }
}

#[test]
fn diagonal_and_pack_metrics_are_bitwise_their_scalar_references() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let tables = Q2QuadTables::standard();
    let q1g = q1_grad_tables(&tables.quad.points);
    for (seed, (name, mesh, bc)) in cases().into_iter().enumerate() {
        let data = ViscousOpData::new(&mesh, eta_field(mesh.num_elements(), seed as u64), &bc);
        assert_eq!(data.constrained.is_empty(), bc.dofs.is_empty(), "{name}");
        let want = matrix_free_diagonal(&data, &tables, &q1g);
        for nt in [1, 4] {
            par::set_num_threads(nt);
            for path in paths() {
                let what = format!("{name}, {path:?}, nt={nt}");
                let geom = BatchedGeometry::with_path(&data, path);
                assert_eq!(geom.path(), path);
                let mut seen = vec![false; data.nel];
                for (elems, geo) in geom.metric_lanes() {
                    assert!(!elems.is_empty() && elems.len() <= LANES, "{what}");
                    for q in 0..NQP {
                        let g = &geo[q];
                        for (l, &e) in elems.iter().enumerate() {
                            let (jinv, wdet) = qp_jacobian(
                                &data.corners[e as usize],
                                &q1g[q],
                                tables.quad.weights[q],
                            );
                            for d in 0..3 {
                                for x in 0..3 {
                                    assert_eq!(
                                        g.jinv[d][x].0[l].to_bits(),
                                        jinv[d][x].to_bits(),
                                        "{what}: element {e}, qp {q}, jinv[{d}][{x}]"
                                    );
                                }
                            }
                            assert_eq!(g.wdet.0[l].to_bits(), wdet.to_bits(), "{what}: {e}/{q}");
                        }
                        for l in elems.len()..LANES {
                            let ghost = g.jinv.iter().flatten().chain([&g.wdet]);
                            for v in ghost {
                                assert_eq!(v.0[l].to_bits(), 0, "{what}: ghost slot {l}, qp {q}");
                            }
                        }
                    }
                    for &e in elems {
                        assert!(
                            !std::mem::replace(&mut seen[e as usize], true),
                            "{what}: {e}"
                        );
                    }
                }
                assert!(seen.iter().all(|&s| s), "{what}: an element has no slot");
                assert_bitwise(&viscous_diagonal(&data, &geom), &want, &what);
            }
        }
    }
    par::set_num_threads(1);
}

/// The body-force loop as it stood before the Q1 gradient table, `det3`
/// and the per-element accumulator — the oracle, verbatim.
fn body_force_reference(
    mesh: &StructuredMesh,
    tables: &Q2QuadTables,
    rho: &[f64],
    gravity: [f64; 3],
) -> Vec<f64> {
    let nqp = tables.nqp();
    assert_eq!(rho.len(), mesh.num_elements() * nqp);
    let mut f = vec![0.0; num_velocity_dofs(mesh)];
    for e in 0..mesh.num_elements() {
        let corners = mesh.element_corner_coords(e);
        let nodes = mesh.element_nodes(e);
        for q in 0..nqp {
            let geo = qp_geometry(&corners, tables.quad.points[q], tables.quad.weights[q]);
            let w = rho[e * nqp + q] * geo.wdetj;
            for (i, &nid) in nodes.iter().enumerate() {
                let phi = tables.basis[q][i];
                for d in 0..3 {
                    f[3 * nid + d] += w * gravity[d] * phi;
                }
            }
        }
    }
    f
}

#[test]
fn body_force_is_bitwise_the_per_point_geometry_loop() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let tables = Q2QuadTables::standard();
    for (seed, (name, mesh, _)) in cases().into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(100 + seed as u64);
        let rho: Vec<f64> = (0..mesh.num_elements() * NQP)
            .map(|_| rng.gen_range(0.5..3.5))
            .collect();
        for gravity in [[0.0, 0.0, -9.8], [1.5, -0.0, -2.0], [-0.3, -0.7, 0.0]] {
            let want = body_force_reference(&mesh, &tables, &rho, gravity);
            for nt in [1, 4] {
                par::set_num_threads(nt);
                let got = assemble_body_force(&mesh, &tables, &rho, gravity);
                assert_bitwise(&got, &want, &format!("{name}, g = {gravity:?}, nt={nt}"));
            }
        }
    }
    par::set_num_threads(1);
}

#[test]
#[should_panic(expected = "element is inverted or degenerate (det J = ")]
fn body_force_still_refuses_an_inverted_element() {
    let mut mesh = unit_box(2, 1, 1);
    mesh.deform(|c| [c[0], c[1], -c[2]]);
    let tables = Q2QuadTables::standard();
    let rho = vec![1.0; mesh.num_elements() * NQP];
    assemble_body_force(&mesh, &tables, &rho, [0.0, 0.0, -9.8]);
}
