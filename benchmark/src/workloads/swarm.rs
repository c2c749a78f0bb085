//! `swarm_advect` — the material-point pipeline with the solver bypassed:
//! a 24³ box deformed by a 5 % sinusoidal vertical displacement, 4³ points
//! per element (884,736 points, ≈55 MB of swarm), an analytic solenoidal
//! vortex on the Q2 nodes, and per step locator build → RK2 advection →
//! cull → population control → projection to corners → quadrature
//! interpolation; every fourth step the swarm is advected per subdomain
//! of a 2×2×1 partition and exchanged between them.
//!
//! The only workload where `ptatin-mpm` is nearly all of the time: an MPM
//! change shows here and must show nothing on `sinker12`.
//!
//! The seed draws the point jitter.

use super::{Checks, Iterated, Layers, Params, Workload};
use crate::trace::{self, Recorder, Span};
use ptatin3d::core::timestep::cfl_dt;
use ptatin3d::fem::assemble::Q2QuadTables;
use ptatin3d::mesh::{ElementPartition, StructuredMesh};
use ptatin3d::mpm::advect::{advect_rk2, cull_lost, relocate_all};
use ptatin3d::mpm::locate::ElementLocator;
use ptatin3d::mpm::migrate::SubdomainSwarms;
use ptatin3d::mpm::points::{seed_regular, MaterialPoints};
use ptatin3d::mpm::population::{control_population, element_counts, PopulationConfig};
use ptatin3d::mpm::projection::{corners_to_quadrature, project_to_corners};
use ptatin_prng::{Rng, StdRng};
use std::f64::consts::PI;
use std::time::Instant;

const CFL: f64 = 0.25;
const MIGRATE_EVERY: usize = 4;

pub struct Swarm {
    m: usize,
    points_per_dim: usize,
    steps: usize,
    seed: u64,
    population: PopulationConfig,
    /// Largest relative change of the lithology-1 share of the points.
    max_drift: f64,
}

impl Swarm {
    pub fn new(p: &Params) -> Self {
        let (m, points_per_dim, steps): (usize, usize, usize) =
            if p.smoke { (8, 2, 4) } else { (24, 4, 8) };
        let per_element = points_per_dim.pow(3);
        Self {
            m,
            points_per_dim,
            steps,
            seed: p.seed,
            // Bounds an eighth either side of the seeded count, so that the
            // flow's thinning and crowding make population control inject
            // and remove points on most steps.
            population: PopulationConfig {
                min_per_element: per_element * 7 / 8,
                max_per_element: per_element * 9 / 8,
                inject_to: per_element,
            },
            // The smoke swarm has only ≈460 lithology-1 points, of which
            // population control clones or drops a few.
            max_drift: if p.smoke { 0.05 } else { 0.01 },
        }
    }
}

/// `f(y)·(∂ψ/∂z, 0, −∂ψ/∂x)` with `ψ = sin²(πx) sin²(πz)`: divergence-free
/// for any `f`, tangent to (and zero on) the walls of the unit cube, so no
/// point leaves the domain.
fn vortex(x: [f64; 3]) -> [f64; 3] {
    let f = 1.0 + 0.5 * (2.0 * PI * x[1]).cos();
    let (sx, cx) = (PI * x[0]).sin_cos();
    let (sz, cz) = (PI * x[2]).sin_cos();
    [
        f * 2.0 * PI * sx * sx * sz * cz,
        0.0,
        -f * 2.0 * PI * sx * cx * sz * sz,
    ]
}

pub struct Ready {
    mesh: StructuredMesh,
    points: MaterialPoints,
    velocity: Vec<f64>,
    rng: StdRng,
}

pub struct State {
    ready: Ready,
    seeded: usize,
    lith1_at_start: usize,
    lost: usize,
    injected: usize,
    removed: usize,
    migrated: usize,
    qp_sum: f64,
}

fn lith1(points: &MaterialPoints) -> usize {
    points.lithology.iter().filter(|&&l| l == 1).count()
}

impl Workload for Swarm {
    type Ready = Ready;
    type State = State;

    fn name(&self) -> &'static str {
        "swarm_advect"
    }

    fn setup(&self, rec: &mut Recorder) -> Ready {
        let (mesh, _) = rec.span("mesh.build", |_| {
            let m = self.m;
            let mut mesh = StructuredMesh::new_box(m, m, m, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
            // Vertical displacement that vanishes on the top and bottom
            // faces: the domain stays the unit cube.
            mesh.deform(|x| {
                let dz = 0.05 * (2.0 * PI * x[0]).sin() * (2.0 * PI * x[1]).cos();
                [x[0], x[1], x[2] + dz * (PI * x[2]).sin()]
            });
            mesh
        });
        let mut rng = StdRng::seed_from_u64(self.seed);
        let (points, _) = rec.span("mpm.seed", |_| {
            seed_regular(&mesh, self.points_per_dim, 0.25, &mut rng, |x| {
                let d2 = (x[0] - 0.5).powi(2) + (x[1] - 0.5).powi(2) + (x[2] - 0.6).powi(2);
                u16::from(d2 < 0.09)
            })
        });
        let (velocity, _) = rec.span("swarm.velocity", |_| {
            mesh.coords.iter().flat_map(|&x| vortex(x)).collect()
        });
        let mut ready = Ready {
            velocity,
            mesh,
            points,
            rng,
        };
        let (locator, _) = rec.span("mpm.locator_build", |_| ElementLocator::new(&ready.mesh));
        rec.span("mpm.relocate", |_| {
            relocate_all(&ready.mesh, &locator, &mut ready.points)
        });
        ready
    }

    fn iterate(&self, mut ready: Ready, rec: &mut Recorder) -> Iterated<State> {
        let seeded = ready.points.len();
        let lith1_at_start = lith1(&ready.points);
        let tables = Q2QuadTables::standard();
        let partition = ElementPartition::new(&ready.mesh, 2, 2, 1);
        let dt = cfl_dt(&ready.mesh, &ready.velocity, CFL, f64::INFINITY);
        let (mut lost, mut injected, mut removed, mut migrated) = (0, 0, 0, 0);
        let mut qp_sum = 0.0;
        let t0 = Instant::now();
        for step in 1..=self.steps {
            let Ready {
                mesh,
                points,
                velocity,
                rng,
            } = &mut ready;
            let (locator, _) = rec.span("mpm.locator_build", |_| ElementLocator::new(mesh));
            if step % MIGRATE_EVERY == 0 {
                // The §II-D exchange: advect per subdomain, then hand the
                // points that left their subdomain to its neighbours.
                let (mut swarms, _) = rec.span("mpm.partition", |_| {
                    SubdomainSwarms::partition(std::mem::take(points), &partition)
                });
                rec.span("mpm.advect", |_| {
                    for swarm in &mut swarms.swarms {
                        advect_rk2(mesh, &locator, swarm, velocity, dt);
                    }
                });
                let (stats, _) = rec.span("mpm.migrate", |_| {
                    let stats = swarms.exchange(mesh, &locator, &partition);
                    *points = swarms.merge();
                    stats
                });
                migrated += stats.received;
                lost += stats.deleted;
            } else {
                rec.span("mpm.advect", |_| {
                    advect_rk2(mesh, &locator, points, velocity, dt)
                });
            }
            let (culled, _) = rec.span("mpm.cull", |_| cull_lost(points));
            lost += culled;
            let (pop, _) = rec.span("mpm.population", |_| {
                control_population(mesh, points, &self.population, rng)
            });
            injected += pop.injected;
            removed += pop.removed;
            let (corner, _) = rec.span("mpm.project", |_| {
                project_to_corners(mesh, points, |p| f64::from(points.lithology[p]), |_| 0.0)
            });
            let (qp, _) = rec.span("mpm.to_qp", |_| {
                corners_to_quadrature(mesh, &tables, &corner)
            });
            qp_sum += qp.iter().sum::<f64>();
        }
        let step_s = t0.elapsed().as_secs_f64() / self.steps as f64;
        Iterated {
            step_s,
            state: State {
                ready,
                seeded,
                lith1_at_start,
                lost,
                injected,
                removed,
                migrated,
                qp_sum,
            },
        }
    }

    fn check(&self, s: &State, checks: &mut Checks) {
        let points = &s.ready.points;
        let counts = element_counts(&s.ready.mesh, points);
        let (lo, hi) = (
            self.population.min_per_element as u32,
            self.population.max_per_element as u32,
        );
        let out_of_bounds = counts.iter().filter(|&&c| c < lo || c > hi).count();
        let drift = (lith1(points) as f64 / points.len() as f64)
            / (s.lith1_at_start as f64 / s.seeded as f64)
            - 1.0;
        let ok = s.lost == 0
            && out_of_bounds == 0
            && drift.abs() < self.max_drift
            && s.qp_sum.is_finite();
        checks.count(
            self.steps as u64 + 1,
            u64::from(!ok),
            &format!(
                "swarm rep: {} lost, {out_of_bounds} elements out of population bounds, \
                 lithology drift {drift:.4}",
                s.lost
            ),
        );
    }

    fn layers(&self, s: &State, spans: &[Span], out: &mut Layers) {
        let per_call = |name: &str| {
            trace::total_seconds(spans, name) / trace::count(spans, name).max(1) as f64
        };
        let n = s.ready.points.len() as f64;
        out.insert("mpm.points", n);
        out.insert("mpm.locator_build_s", per_call("mpm.locator_build"));
        out.insert("mpm.advect_s", per_call("mpm.advect"));
        out.insert("mpm.advect.mpts_s", n / per_call("mpm.advect") / 1e6);
        out.insert("mpm.population_s", per_call("mpm.population"));
        out.insert("mpm.project_s", per_call("mpm.project"));
        out.insert("mpm.project.mpts_s", n / per_call("mpm.project") / 1e6);
        out.insert("mpm.to_qp_s", per_call("mpm.to_qp"));
        out.insert(
            "mpm.migrate_s",
            per_call("mpm.partition") + per_call("mpm.migrate"),
        );
        out.insert("mpm.relocate_s", per_call("mpm.relocate"));
        out.insert("mpm.injected", s.injected as f64);
        out.insert("mpm.removed", s.removed as f64);
        out.insert("mpm.migrated", s.migrated as f64);
        out.insert("mpm.lost", s.lost as f64);
    }
}

/// The same calls, once each, on a clone of another workload's swarm
/// (seconds per call).
#[allow(clippy::too_many_arguments)]
pub fn probe_calls<R: Rng>(
    mesh: &StructuredMesh,
    points: &MaterialPoints,
    velocity: &[f64],
    dt: f64,
    population: &PopulationConfig,
    partition: &ElementPartition,
    rng: &mut R,
    out: &mut Layers,
) {
    fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let v = f();
        (v, t.elapsed().as_secs_f64())
    }
    let mut points = points.clone();
    let n = points.len() as f64;
    out.insert("mpm.points", n);
    let (locator, s) = timed(|| ElementLocator::new(mesh));
    out.insert("mpm.locator_build_s", s);
    let (_, s) = timed(|| relocate_all(mesh, &locator, &mut points));
    out.insert("mpm.relocate_s", s);
    let mut swarms = SubdomainSwarms::partition(points, partition);
    let (_, s) = timed(|| {
        for swarm in &mut swarms.swarms {
            advect_rk2(mesh, &locator, swarm, velocity, dt);
        }
    });
    out.insert("mpm.advect_s", s);
    out.insert("mpm.advect.mpts_s", n / s / 1e6);
    let (stats, s) = timed(|| swarms.exchange(mesh, &locator, partition));
    out.insert("mpm.migrate_s", s);
    out.insert("mpm.migrated", stats.received as f64);
    let mut points = swarms.merge();
    out.insert("mpm.lost", (stats.deleted + cull_lost(&mut points)) as f64);
    let (pop, s) = timed(|| control_population(mesh, &mut points, population, rng));
    out.insert("mpm.population_s", s);
    out.insert("mpm.injected", pop.injected as f64);
    out.insert("mpm.removed", pop.removed as f64);
    let (corner, s) =
        timed(|| project_to_corners(mesh, &points, |p| f64::from(points.lithology[p]), |_| 0.0));
    out.insert("mpm.project_s", s);
    out.insert("mpm.project.mpts_s", points.len() as f64 / s / 1e6);
    let (_, s) = timed(|| corners_to_quadrature(mesh, &Q2QuadTables::standard(), &corner));
    out.insert("mpm.to_qp_s", s);
}
