//! `ptatin` — command-line driver for the pTatin3D-rs models.
//!
//! ```text
//! ptatin sinker   [m=8] [levels=3] [delta_eta=1e4] [out=vtk_out]
//! ptatin rift     [mx=12] [my=4] [mz=8] [steps=10] [shortening=0]
//!                 [strong-crust] [out=vtk_out]
//!                 [--checkpoint-every=N] [--checkpoint-dir=DIR]
//!                 [--restart-from=FILE] [--fault=LIST]
//! ptatin ensemble sweep=FILE [slice=2] [retries=2] [flop-budget=N]
//!                 [events=FILE|-] [ckpt-dir=DIR] [bench=FILE]
//!                 [keep-ckpt] [no-preempt] [--fault=LIST]
//! ptatin scenario file=SPEC [steps=N]
//! ptatin verify   [mode=full|smoke] [fine_kind=KIND]
//! ```
//!
//! Every subcommand takes `threads=N` (worker threads; default
//! `PTATIN_TEST_THREADS`, else one: two threads lose to one on the sinker
//! and the rift, DESIGN.md §7). An argument the subcommand does
//! not know, a value that does not parse, or a mesh size the multigrid
//! cannot coarsen to `levels` levels, prints the usage text and exits with
//! status 2 — nothing falls back to a default silently.
//!
//! Both subcommands solve the model and write ParaView-ready legacy VTK
//! files (mesh fields + material-point cloud) into `out/`.
//! `sinker` prints its iteration count with the true relative residual
//! `‖b − Ax‖/‖b‖` of the solution and exits with status 3 when the solve
//! did not converge (its VTK files are still written), 0 otherwise.
//!
//! Checkpoint/restart and fault injection (rift):
//!
//! * `--checkpoint-every=N` writes `ckpt_step_*.ptck` into the checkpoint
//!   directory (default `out/`) every N committed steps.
//! * `--restart-from=FILE` resumes a run from a checkpoint; the
//!   configuration flags must match the original run (enforced by the
//!   stored config hash) and the resumed trajectory is bitwise identical
//!   to the uninterrupted one at a fixed `PTATIN_TEST_THREADS`.
//! * `--fault=breakdown@K|stall@K|crash@K` (or `PTATIN_FAULT=...`, a
//!   `;`-separated list of either) deterministically injects a failure at
//!   step K. Breakdowns and stalls are recovered by the retry ladder; a
//!   crash exits with status 42 leaving only the periodic checkpoints
//!   behind.
//!
//! Exit status: 0 on completion, 42 on a simulated crash, 3 when recovery
//! was exhausted and the run aborted (after writing a final checkpoint).
//!
//! Output that cannot be written is reported, not panicked on: `out/` and
//! the parent of a `--log-json` file are created before anything is
//! solved, and a directory that cannot be created (or a file that cannot
//! be written at the end of the run) prints `cannot write <path>: <OS
//! error>` and exits with status 2, as a bad `--restart-from` and a
//! checkpoint I/O failure do.
//!
//! Ensemble sweeps (`ptatin ensemble`): expand a sweep file (base
//! `key = value` lines plus `sweep key = v1, v2` / `sweep key = a..b`
//! axes) into jobs and time-slice them fairly over the shared pool with
//! checkpoint-backed preemption. `slice=N` sets the committed-step
//! quantum (`no-preempt` runs each job to completion), `retries=N`
//! bounds crash retries, `flop-budget=N` kills jobs that exceed the
//! profiler's flop count, `events=FILE` streams JSONL progress (`-` =
//! stderr), `bench=FILE` writes a `ptatin-ensemble-bench-v1` document.
//! Fault plans (`--fault` or `PTATIN_FAULT`) accept `;`-separated lists
//! with optional job targeting: `crash@1:job=3;stall@0:job=11`. Exit
//! status: 0 when every job completed, 3 when any job failed.
//!
//! Scenario registry (`ptatin scenario`): parse a scenario spec file
//! (`key = value` lines; see `examples/scenarios/`) and run it, printing
//! each diagnostic metric. `steps=N` overrides the file's step count.
//! Exit status: 0 when the run converged, 3 otherwise.
//!
//! Verification gate (`ptatin verify`): run the SolCx analytic
//! convergence gate — solve the sharp-viscosity-jump problem at a ladder
//! of resolutions and fit the L² error rates. `mode=smoke` runs the
//! two-level variant CI uses on every invocation; `fine_kind=` selects
//! the fine-level operator (assembled|matrix_free|tensor|tensor_c|
//! tensor_batched). The report prints each rate in decimal *and* as raw
//! f64 bits so two runs at different thread counts can be diffed
//! textually. Exit status: 0 on PASS, 3 on FAIL.
//!
//! Profiling (any subcommand; with no subcommand `sinker` is implied):
//!
//! ```text
//! ptatin --log-view                  # -log_view-style table on stderr
//! ptatin --log-json=output/prof.json # same data as JSON
//! ```

use ptatin3d::ckpt::faults::{self, FaultPlan};
use ptatin3d::ckpt::Checkpoint;
use ptatin3d::core::models::hierarchy_error;
use ptatin3d::core::models::rift::{RiftConfig, RiftModel};
use ptatin3d::core::models::sinker::{SinkerConfig, SinkerModel};
use ptatin3d::core::output::{
    cell_average, corner_vector_field, write_vtk_mesh, write_vtk_points, Field,
};
use ptatin3d::core::recovery::{run_rift as drive_rift, RunConfig, RunOutcome};
use ptatin3d::core::GmgConfig;
use ptatin3d::ensemble::{self, EnsembleConfig, EventSink};
use ptatin3d::scenarios;
use ptatin_la::par;
use std::path::{Path, PathBuf};

/// Keys (`key=value`) and bare flags every subcommand accepts.
const GLOBAL_KEYS: &[&str] = &["threads", "--log-json"];
const GLOBAL_FLAGS: &[&str] = &["--log-view"];

/// The `key=value` keys and bare flags of a subcommand beyond the global
/// ones, `None` for an unknown subcommand.
fn accepted(cmd: &str) -> Option<(&'static [&'static str], &'static [&'static str])> {
    Some(match cmd {
        "sinker" => (&["m", "levels", "delta_eta", "out"], &[]),
        "rift" => (
            &[
                "mx",
                "my",
                "mz",
                "steps",
                "shortening",
                "out",
                "--checkpoint-every",
                "--checkpoint-dir",
                "--restart-from",
                "--fault",
            ],
            &["strong-crust"],
        ),
        "ensemble" => (
            &[
                "sweep",
                "slice",
                "slice-wall",
                "retries",
                "flop-budget",
                "events",
                "ckpt-dir",
                "bench",
                "--fault",
            ],
            &["keep-ckpt", "no-preempt"],
        ),
        "scenario" => (&["file", "steps"], &[]),
        "verify" => (&["mode", "fine_kind"], &[]),
        _ => return None,
    })
}

fn usage() {
    eprintln!("usage: ptatin <sinker|rift|ensemble|scenario|verify> [key=value ...] [threads=N] [--log-view] [--log-json=FILE]");
    eprintln!("  sinker:   m=8 levels=3 delta_eta=1e4 out=vtk_out");
    eprintln!("  rift:     mx=12 my=4 mz=8 steps=10 shortening=0 [strong-crust] out=vtk_out");
    eprintln!("            --checkpoint-every=N --checkpoint-dir=DIR");
    eprintln!("            --restart-from=FILE --fault=<breakdown|stall|crash>@STEP[;...]");
    eprintln!("  ensemble: sweep=FILE slice=2 retries=2 flop-budget=N events=FILE|-");
    eprintln!("            ckpt-dir=DIR bench=FILE [keep-ckpt] [no-preempt] --fault=LIST");
    eprintln!("  scenario: file=SPEC steps=N");
    eprintln!(
        "  verify:   mode=full|smoke fine_kind={}",
        scenarios::operator_kind_name(GmgConfig::default().fine_kind)
    );
}

/// Report a command-line error with the usage text and exit 2.
fn bad_usage(msg: &str) -> ! {
    eprintln!("ptatin: {msg}");
    usage();
    std::process::exit(2);
}

/// Refuse a mesh that cannot carry a `levels`-deep multigrid
/// (`ptatin_core::models::hierarchy_error`) before any model is built.
fn check_hierarchy(axes: [(&str, usize); 3], levels: usize) {
    if let Some((_, msg)) = hierarchy_error(axes, levels) {
        bad_usage(&msg);
    }
}

/// Install the fault plans: the `--fault` list wins over `PTATIN_FAULT`;
/// both accept `;`-separated lists with `:job=N` targeting.
fn install_faults(args: &Args) {
    let fault_arg = args.get("--fault", String::new());
    if fault_arg.is_empty() {
        faults::install_from_env();
    } else {
        match FaultPlan::parse_list(&fault_arg) {
            Some(plans) => faults::set_plans(plans),
            None => bad_usage(&format!(
                "bad --fault spec {fault_arg:?}: want <breakdown|stall|crash>@STEP[:job=N][;...]"
            )),
        }
    }
}

fn print_armed_faults() {
    let armed = faults::plans();
    if !armed.is_empty() {
        let list: Vec<String> = armed.iter().map(|p| p.to_string()).collect();
        println!("fault injection armed: {}", list.join("; "));
    }
}

struct Args(Vec<String>);

impl Args {
    /// Accept `argv` for `cmd` only if every argument is a key or flag the
    /// subcommand knows; anything else would silently run the defaults.
    fn parse(cmd: &str, argv: Vec<String>) -> Self {
        let Some((keys, flags)) = accepted(cmd) else {
            bad_usage(&format!("unknown subcommand `{cmd}`"));
        };
        for a in &argv {
            let known = match a.split_once('=') {
                Some((key, _)) => keys.contains(&key) || GLOBAL_KEYS.contains(&key),
                None => flags.contains(&a.as_str()) || GLOBAL_FLAGS.contains(&a.as_str()),
            };
            if !known {
                bad_usage(&format!("unknown argument `{a}` for `{cmd}`"));
            }
        }
        Self(argv)
    }
    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        let Some(v) = self
            .0
            .iter()
            .find_map(|a| a.strip_prefix(key)?.strip_prefix('='))
        else {
            return default;
        };
        v.parse()
            .unwrap_or_else(|_| bad_usage(&format!("cannot parse `{v}` for `{key}`")))
    }
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    // `ptatin --log-view` (flags only) implies the default subcommand.
    let cmd = if argv.is_empty() || argv[0] == "help" {
        usage();
        return;
    } else if argv[0].starts_with("--") {
        String::from("sinker")
    } else {
        argv.remove(0)
    };
    let args = Args::parse(&cmd, argv);
    let threads = args.get("threads", 0usize);
    if threads > 0 {
        par::set_num_threads(threads);
    } else if std::env::var_os("PTATIN_TEST_THREADS").is_none() {
        par::set_num_threads(1);
    }
    let log_view = args.flag("--log-view");
    let log_json = {
        let p = args.get("--log-json", String::new());
        (!p.is_empty()).then(|| PathBuf::from(p))
    };
    if let Some(path) = &log_json {
        create_parent(path);
    }
    if log_view || log_json.is_some() {
        ptatin_prof::enable();
    }
    match cmd.as_str() {
        "sinker" => run_sinker(&args),
        "rift" => run_rift(&args),
        "ensemble" => run_ensemble(&args),
        "scenario" => run_scenario_cmd(&args),
        "verify" => run_verify(&args),
        _ => unreachable!("`Args::parse` exits on any other subcommand"),
    }
    if log_view {
        ptatin_prof::print_log_view();
    }
    if let Some(path) = log_json {
        ptatin_prof::write_json(&path).unwrap_or_else(|e| cannot_write(&path, e));
        println!("wrote profiler report to {}", path.display());
    }
}

/// Report an output that cannot be written and exit with status 2.
fn cannot_write(path: &Path, e: std::io::Error) -> ! {
    eprintln!("cannot write {}: {e}", path.display());
    std::process::exit(2);
}

/// Create the output directory `dir` before a run writes into it.
fn create_dir(dir: &Path) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| cannot_write(dir, e));
}

/// Create the directory `file` will be written into.
fn create_parent(file: &Path) {
    if let Some(dir) = file.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| cannot_write(file, e));
    }
}

fn run_scenario_cmd(args: &Args) {
    let file = args.get("file", String::new());
    if file.is_empty() {
        eprintln!("scenario: missing file=SPEC");
        std::process::exit(2);
    }
    let spec = scenarios::parse_scenario_file(Path::new(&file)).unwrap_or_else(|e| {
        eprintln!("{file}: {e}");
        std::process::exit(2);
    });
    let steps = args.get("steps", spec.steps);
    println!(
        "scenario: {} from {} ({} steps)",
        spec.scenario.kind(),
        file,
        steps
    );
    let summary = scenarios::run_scenario(&spec.scenario, steps);
    println!(
        "{}: converged={} iterations={}",
        summary.kind, summary.converged, summary.iterations
    );
    for (name, value) in &summary.metrics {
        println!("  {name} = {value:.6e}");
    }
    if let Some(err) = &summary.error {
        eprintln!("scenario failed: {err}");
    }
    if !summary.converged {
        std::process::exit(3);
    }
}

fn run_verify(args: &Args) {
    let mode = args.get("mode", String::from("full"));
    let mut cfg = match mode.as_str() {
        "full" => scenarios::GateConfig::full(),
        "smoke" => scenarios::GateConfig::smoke(),
        other => {
            eprintln!("verify: unknown mode `{other}` (full|smoke)");
            std::process::exit(2);
        }
    };
    let kind = args.get("fine_kind", String::new());
    if !kind.is_empty() {
        cfg.fine_kind = scenarios::parse_operator_kind(&kind).unwrap_or_else(|| {
            eprintln!(
                "verify: unknown operator kind `{kind}` \
                 (assembled|matrix_free|tensor|tensor_c|tensor_batched)"
            );
            std::process::exit(2);
        });
    }
    println!(
        "verify: solcx {} gate, fine_kind={:?}, {} threads",
        mode,
        cfg.fine_kind,
        par::num_threads()
    );
    let report = scenarios::run_gate(&cfg);
    print!("{}", report.render());
    if !report.pass() {
        std::process::exit(3);
    }
}

fn run_ensemble(args: &Args) {
    let sweep = args.get("sweep", String::new());
    if sweep.is_empty() {
        eprintln!("ensemble: missing sweep=FILE");
        std::process::exit(2);
    }
    let jobs = ensemble::load_sweep_file(Path::new(&sweep)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    install_faults(args);
    let no_preempt = args.flag("no-preempt");
    let slice_wall = args.get("slice-wall", 0.0f64);
    let flop_budget = args.get("flop-budget", 0u64);
    let cfg = EnsembleConfig {
        ckpt_root: PathBuf::from(args.get("ckpt-dir", String::from("output/ensemble_ckpt"))),
        slice_steps: if no_preempt {
            0
        } else {
            args.get("slice", 2usize)
        },
        slice_wall_seconds: (slice_wall > 0.0 && !no_preempt).then_some(slice_wall),
        max_retries: args.get("retries", 2usize),
        flop_budget: (flop_budget > 0).then_some(flop_budget),
        keep_checkpoints: args.flag("keep-ckpt"),
    };
    // Flop budgets and per-job attribution need the profiler counters.
    if cfg.flop_budget.is_some() {
        ptatin_prof::enable();
    }
    let events = args.get("events", String::new());
    let mut sink = match events.as_str() {
        "" => EventSink::null(),
        "-" => EventSink::stderr(),
        p => EventSink::file(Path::new(p)).unwrap_or_else(|e| {
            eprintln!("cannot open event log {p}: {e}");
            std::process::exit(2);
        }),
    };
    print_armed_faults();
    println!(
        "ensemble: {} jobs from {}, slice={} retries={}{}",
        jobs.len(),
        sweep,
        if cfg.slice_steps == 0 {
            String::from("off")
        } else {
            cfg.slice_steps.to_string()
        },
        cfg.max_retries,
        match cfg.flop_budget {
            Some(b) => format!(", flop budget {b}"),
            None => String::new(),
        }
    );
    let n_jobs = jobs.len();
    let summary = ensemble::run_sweep(jobs, &cfg, &mut sink).unwrap_or_else(|e| {
        eprintln!("checkpoint i/o failed: {e}");
        std::process::exit(2);
    });
    print!("{}", ensemble::summary_table(&summary));
    let mut failed = 0usize;
    for r in &summary.results {
        if !r.outcome.is_success() {
            failed += 1;
            eprintln!(
                "job {:>5} [{}] failed: {} after {} steps, {} retries",
                r.id,
                r.name,
                r.outcome.label(),
                r.steps_done,
                r.retries
            );
        }
    }
    let bench = args.get("bench", String::new());
    if !bench.is_empty() {
        let stats = ensemble::ThroughputStats::from_summary(&summary);
        let doc = ensemble::bench_doc(
            "cli",
            n_jobs,
            cfg.slice_steps,
            vec![stats.to_value(par::num_threads())],
        );
        std::fs::write(&bench, doc.to_json() + "\n").unwrap_or_else(|e| {
            eprintln!("cannot write bench file {bench}: {e}");
            std::process::exit(2);
        });
        println!("wrote {bench}");
    }
    if failed > 0 {
        std::process::exit(3);
    }
}

fn run_sinker(args: &Args) {
    let m = args.get("m", 8usize);
    let levels = args.get("levels", if m % 4 == 0 { 3usize } else { 2 });
    check_hierarchy([("m", m); 3], levels);
    let delta_eta = args.get("delta_eta", 1e4f64);
    let out: PathBuf = PathBuf::from(args.get("out", String::from("vtk_out")));
    create_dir(&out);
    println!(
        "sinker: {m}^3 elements, {levels} levels, Δη = {delta_eta:.0e}, {} threads",
        par::num_threads()
    );
    let defaults = SinkerConfig::default();
    let model = SinkerModel::new(SinkerConfig {
        m,
        levels,
        delta_eta,
        gmg: GmgConfig {
            levels,
            ..defaults.gmg
        },
        ..defaults
    });
    let sol = model.solve();
    println!(
        "solve: {} iterations in {:.2}s (converged: {}, ‖b − Ax‖/‖b‖ = {:.3e})",
        sol.stats.iterations,
        sol.solve_seconds,
        sol.stats.converged,
        sol.solver.relative_residual(&sol.rhs, &sol.x)
    );
    let mesh = model.hier.finest();
    let vel = corner_vector_field(mesh, &sol.x[..sol.solver.nu]);
    let eta_cell = cell_average(mesh.num_elements(), 27, &sol.fields.eta_qp);
    let rho_cell = cell_average(mesh.num_elements(), 27, &sol.fields.rho_qp);
    let mesh_vtk = out.join("sinker_mesh.vtk");
    write_vtk_mesh(
        &mesh_vtk,
        mesh,
        &[
            Field::PointVector("velocity", &vel),
            Field::CellScalar("eta", &eta_cell),
            Field::CellScalar("rho", &rho_cell),
        ],
    )
    .unwrap_or_else(|e| cannot_write(&mesh_vtk, e));
    let points_vtk = out.join("sinker_points.vtk");
    write_vtk_points(&points_vtk, &model.points).unwrap_or_else(|e| cannot_write(&points_vtk, e));
    println!(
        "wrote {}/sinker_mesh.vtk and sinker_points.vtk",
        out.display()
    );
    if !sol.stats.converged {
        std::process::exit(3);
    }
}

fn run_rift(args: &Args) {
    let cfg = RiftConfig {
        mx: args.get("mx", 12usize),
        my: args.get("my", 4usize),
        mz: args.get("mz", 8usize),
        levels: 2,
        shortening_velocity: args.get("shortening", 0.0f64),
        weak_lower_crust: !args.flag("strong-crust"),
        ..RiftConfig::default()
    };
    check_hierarchy([("mx", cfg.mx), ("my", cfg.my), ("mz", cfg.mz)], cfg.levels);
    let steps = args.get("steps", 10usize);
    let out: PathBuf = PathBuf::from(args.get("out", String::from("vtk_out")));
    let checkpoint_every = args.get("--checkpoint-every", 0usize);
    let checkpoint_dir = {
        let d = args.get("--checkpoint-dir", String::new());
        if d.is_empty() {
            out.clone()
        } else {
            PathBuf::from(d)
        }
    };
    install_faults(args);
    create_dir(&out);
    println!(
        "rift: {}x{}x{} elements, {} steps, shortening {}, {} lower crust",
        cfg.mx,
        cfg.my,
        cfg.mz,
        steps,
        cfg.shortening_velocity,
        if cfg.weak_lower_crust {
            "weak"
        } else {
            "strong"
        }
    );
    let restart_from = args.get("--restart-from", String::new());
    let mut model = if restart_from.is_empty() {
        RiftModel::new(cfg)
    } else {
        let path = PathBuf::from(&restart_from);
        let ck = Checkpoint::read_from(&path).unwrap_or_else(|e| {
            eprintln!("cannot read checkpoint {restart_from}: {e}");
            std::process::exit(2);
        });
        let model = RiftModel::from_checkpoint(cfg, ck).unwrap_or_else(|e| {
            eprintln!("cannot restart from {restart_from}: {e}");
            std::process::exit(2);
        });
        println!(
            "restarted from {} at step {} (t={:.4})",
            restart_from, model.step_index, model.time
        );
        model
    };
    print_armed_faults();
    let run = RunConfig {
        steps,
        checkpoint_every: (checkpoint_every > 0).then_some(checkpoint_every),
        checkpoint_dir: Some(checkpoint_dir),
    };
    let report = drive_rift(&mut model, &run).unwrap_or_else(|e| {
        eprintln!("checkpoint i/o failed: {e}");
        std::process::exit(2);
    });
    for s in &report.steps {
        println!(
            "step {:>4}: t={:.4} newton={} krylov={} yielded={} topo_max={:+.4}{}{}",
            s.step,
            s.time,
            s.newton_iterations,
            s.total_krylov,
            s.yielded_points,
            s.max_topography,
            if s.converged { "" } else { " (max its)" },
            if s.attempts > 1 {
                format!(" [recovered, attempt {}]", s.attempts)
            } else {
                String::new()
            }
        );
    }
    match &report.outcome {
        RunOutcome::Completed => {}
        // `run_rift` has no preemption hook; the plain rift subcommand
        // can never be preempted.
        RunOutcome::Preempted { .. } => {}
        RunOutcome::SimulatedCrash { step } => {
            eprintln!("simulated crash at step {step}; restart from the last checkpoint");
            std::process::exit(42);
        }
        RunOutcome::Aborted {
            step,
            last_outcome,
            final_checkpoint,
        } => {
            eprintln!("recovery exhausted at step {step} ({last_outcome:?}); aborting");
            if let Some(p) = final_checkpoint {
                eprintln!("final checkpoint written to {}", p.display());
            }
            std::process::exit(3);
        }
    }
    let vel = corner_vector_field(&model.mesh, &model.velocity);
    let mesh_vtk = out.join("rift_mesh.vtk");
    write_vtk_mesh(
        &mesh_vtk,
        &model.mesh,
        &[
            Field::PointVector("velocity", &vel),
            Field::PointScalar("temperature", &model.temperature),
        ],
    )
    .unwrap_or_else(|e| cannot_write(&mesh_vtk, e));
    let points_vtk = out.join("rift_points.vtk");
    write_vtk_points(&points_vtk, &model.points).unwrap_or_else(|e| cannot_write(&points_vtk, e));
    println!("wrote {}/rift_mesh.vtk and rift_points.vtk", out.display());
}
