//! Ensemble quickstart: expand a small parameter sweep, run it with
//! checkpoint-backed preemptive scheduling and print the summary.
//!
//! Run: `cargo run --release --example ensemble_sweep`

use ptatin3d::ensemble::{run_sweep, summary_table, EnsembleConfig, EventSink, SweepSpec};
use ptatin_la::par;

fn main() {
    par::set_num_threads(2);
    // 8 tiny rifting jobs: 2 extension velocities × 4 seeds, 2 steps
    // each. The same text works as a sweep file for `ptatin ensemble
    // sweep=FILE`.
    let sweep = "\
scenario = rift
mx = 4
my = 2
mz = 2
levels = 2
steps = 2
max_it = 1
linear_max_it = 60
sweep extension_velocity = 0.4, 0.5
sweep seed = 0..4
";
    let jobs = SweepSpec::parse(sweep)
        .expect("sweep parses")
        .expand()
        .expect("sweep expands");
    println!("expanded {} jobs:", jobs.len());
    for j in &jobs {
        println!("  #{:02} {} ({} steps)", j.id, j.name, j.steps);
    }

    // Slice of 1 committed step: every job is suspended to its private
    // checkpoint directory once and resumed bitwise later.
    let cfg = EnsembleConfig {
        ckpt_root: std::env::temp_dir().join("ptatin_ensemble_example"),
        slice_steps: 1,
        ..EnsembleConfig::default()
    };
    // `EventSink::stderr()` would stream JSONL progress while it runs.
    let mut sink = EventSink::null();
    let summary = run_sweep(jobs, &cfg, &mut sink).expect("sweep runs");
    print!("{}", summary_table(&summary));
    for r in &summary.results {
        println!(
            "  #{:02} {:<28} {} steps={} slices={} preemptions={} hash={}",
            r.id,
            r.name,
            r.outcome.label(),
            r.steps_done,
            r.slices,
            r.preemptions,
            match r.final_state_hash {
                Some(h) => format!("{h:016x}"),
                None => "-".into(),
            }
        );
    }
    std::fs::remove_dir_all(cfg.ckpt_root).ok();
    par::set_num_threads(0);
}
