//! Fig. 1 of the paper: the sinker test problem — viscosity structure and
//! the complicated, nonlocal flow pattern (streamlines) driven by the
//! density contrast of the spheres.
//!
//! Writes CSV slices of viscosity and velocity on the mid-plane plus
//! streamlines integrated through the solved velocity field (RK4 tracers),
//! suitable for plotting.
//!
//! Run: `cargo run --release -p ptatin-bench --bin fig1_sinker_field [--quick]`

use ptatin_bench::{levels_for, paper_gmg_config, sinker_setup, write_csv, Args};
use ptatin_core::KrylovOperatorChoice;
use ptatin_la::krylov::KrylovConfig;
use ptatin_mpm::locate::{locate_point, ElementLocator};
use ptatin_mpm::projection::interpolate_velocity;

fn main() {
    let args = Args::parse();
    let m = args.get_usize("m", if args.quick() { 8 } else { 16 });
    let levels = levels_for(m, 3);
    println!("# Fig. 1 reproduction — sinker field and streamlines at {m}^3");
    let (model, fields) = sinker_setup(m, levels, 1e4);
    let gmg = paper_gmg_config(levels);
    let solver = model.build_solver(&fields, &gmg);
    let rhs = model.rhs(&solver, &fields);
    let mut x = vec![0.0; solver.nu + solver.np];
    let stats = solver.solve(
        &rhs,
        &mut x,
        &KrylovConfig::default().with_rtol(1e-5).with_max_it(500),
        KrylovOperatorChoice::Picard,
        None,
    );
    println!(
        "Stokes solve: {} iterations (converged: {})",
        stats.iterations, stats.converged
    );
    let mesh = model.hier.finest();
    let velocity = &x[..solver.nu];

    // Mid-plane (y = 0.5) slice of viscosity and velocity.
    let (nx, ny, nz) = mesh.node_dims();
    let j = ny / 2;
    let mut slice_rows = Vec::new();
    for k in 0..nz {
        for i in 0..nx {
            let n = mesh.node_index(i, j, k);
            let c = mesh.coords[n];
            // Viscosity: nearest corner value.
            let ci = (i / 2).min(mesh.corner_dims().0 - 1);
            let cj = (j / 2).min(mesh.corner_dims().1 - 1);
            let ck = (k / 2).min(mesh.corner_dims().2 - 1);
            let eta = fields.eta_corner[mesh.corner_index(ci, cj, ck)];
            slice_rows.push(format!(
                "{},{},{},{},{},{}",
                c[0],
                c[2],
                eta,
                velocity[3 * n],
                velocity[3 * n + 1],
                velocity[3 * n + 2]
            ));
        }
    }
    let p1 = write_csv("fig1_slice_y05.csv", "x,z,eta,ux,uy,uz", &slice_rows);
    println!("wrote {}", p1.display());

    // Streamlines: RK4 tracers seeded on a grid of the mid-plane.
    let locator = ElementLocator::new(mesh);
    let mut stream_rows = Vec::new();
    let nseeds = if args.quick() { 4 } else { 8 };
    let steps = if args.quick() { 200 } else { 600 };
    // Path step sized to the flow magnitude.
    let mut vmax = 0.0f64;
    for n in 0..mesh.num_nodes() {
        let v =
            (velocity[3 * n].powi(2) + velocity[3 * n + 1].powi(2) + velocity[3 * n + 2].powi(2))
                .sqrt();
        vmax = vmax.max(v);
    }
    let ds = if vmax > 0.0 { 0.02 / vmax } else { 0.0 };
    let mut sid = 0;
    for sa in 0..nseeds {
        for sb in 0..nseeds {
            let mut pos = [
                0.1 + 0.8 * sa as f64 / (nseeds - 1) as f64,
                0.5,
                0.1 + 0.8 * sb as f64 / (nseeds - 1) as f64,
            ];
            for step in 0..steps {
                let Some((e, xi)) = locate_point(mesh, &locator, pos, None) else {
                    break;
                };
                let v = interpolate_velocity(mesh, velocity, e, xi);
                stream_rows.push(format!(
                    "{sid},{step},{},{},{},{}",
                    pos[0],
                    pos[1],
                    pos[2],
                    (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt()
                ));
                // RK4 in pseudo-time along the flow.
                let eval = |p: [f64; 3]| -> Option<[f64; 3]> {
                    locate_point(mesh, &locator, p, Some(e))
                        .map(|(e2, xi2)| interpolate_velocity(mesh, velocity, e2, xi2))
                };
                let k1 = v;
                let p2 = [
                    pos[0] + 0.5 * ds * k1[0],
                    pos[1] + 0.5 * ds * k1[1],
                    pos[2] + 0.5 * ds * k1[2],
                ];
                let Some(k2) = eval(p2) else { break };
                let p3 = [
                    pos[0] + 0.5 * ds * k2[0],
                    pos[1] + 0.5 * ds * k2[1],
                    pos[2] + 0.5 * ds * k2[2],
                ];
                let Some(k3) = eval(p3) else { break };
                let p4 = [
                    pos[0] + ds * k3[0],
                    pos[1] + ds * k3[1],
                    pos[2] + ds * k3[2],
                ];
                let Some(k4) = eval(p4) else { break };
                for d in 0..3 {
                    pos[d] += ds / 6.0 * (k1[d] + 2.0 * k2[d] + 2.0 * k3[d] + k4[d]);
                }
            }
            sid += 1;
        }
    }
    let p2 = write_csv(
        "fig1_streamlines.csv",
        "streamline,step,x,y,z,speed",
        &stream_rows,
    );
    println!(
        "wrote {} ({} streamline points)",
        p2.display(),
        stream_rows.len()
    );

    // Sphere positions for the plot overlay.
    let sph: Vec<String> = model
        .spheres
        .iter()
        .map(|s| format!("{},{},{},{}", s[0], s[1], s[2], model.cfg.radius))
        .collect();
    let p3 = write_csv("fig1_spheres.csv", "cx,cy,cz,r", &sph);
    println!("wrote {}", p3.display());
}
