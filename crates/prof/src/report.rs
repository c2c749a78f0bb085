//! Reporters: `-log_view`-style text table, JSON, and CSV, all
//! rendering a [`Snapshot`]. Pure functions of the snapshot, so output
//! is deterministic and testable without touching the global registry.

use crate::json::Value;
use crate::{KspRecord, Snapshot};
use std::fmt::Write as _;

/// Render a PETSc `-log_view`-style report: one row per event with
/// calls, inclusive/exclusive time, flops, flop rate and the rate of its
/// logged memory traffic, followed by a call tree and per-solve KSP
/// summaries.
pub fn log_view_string(snap: &Snapshot) -> String {
    let mut out = String::new();
    let total: f64 = snap.events.iter().map(|e| e.excl_seconds).sum();
    out.push_str(
        "\n---------------------------------------- pTatin3D-rs profiling: -log_view ----------------------------------------\n",
    );
    let _ = writeln!(
        out,
        "{:<24} {:>8} {:>12} {:>12} {:>5} {:>14} {:>10} {:>10}",
        "Event", "Calls", "Time(s)", "Excl(s)", "%T", "Flops", "MFlops/s", "MB/s"
    );
    out.push_str(&"-".repeat(114));
    out.push('\n');
    for e in &snap.events {
        let pct = if total > 0.0 {
            100.0 * e.excl_seconds / total
        } else {
            0.0
        };
        let rate = |n: u64| {
            if e.incl_seconds > 0.0 {
                n as f64 / e.incl_seconds / 1e6
            } else {
                0.0
            }
        };
        let _ = writeln!(
            out,
            "{:<24} {:>8} {:>12.4e} {:>12.4e} {:>5.1} {:>14} {:>10.1} {:>10.1}",
            e.name,
            e.calls,
            e.incl_seconds,
            e.excl_seconds,
            pct,
            e.flops,
            rate(e.flops),
            rate(e.bytes)
        );
    }
    if !snap.edges.is_empty() {
        out.push_str("\nCall tree (parent -> child, calls, inclusive seconds):\n");
        render_tree(snap, &mut out);
    }
    if !snap.ksp.is_empty() {
        out.push_str("\nKSP solves:\n");
        for k in &snap.ksp {
            let _ = writeln!(
                out,
                "  {:<28} its={:<4} rtol={:<9.2e} converged={:<5} r0={:.3e} rN={:.3e}",
                k.label, k.iterations, k.rtol, k.converged, k.initial_residual, k.final_residual
            );
        }
    }
    out.push_str(&"-".repeat(114));
    out.push('\n');
    out
}

fn render_tree(snap: &Snapshot, out: &mut String) {
    // Roots: events that never appear as a child of another event.
    let is_child: std::collections::HashSet<&str> = snap.edges.iter().map(|e| e.child).collect();
    let roots: Vec<&str> = snap
        .events
        .iter()
        .map(|e| e.name)
        .filter(|n| !is_child.contains(n))
        .collect();
    for root in roots {
        if snap.children(root).is_empty() {
            continue;
        }
        let _ = writeln!(out, "  {root}");
        render_subtree(snap, root, 1, out, &mut Vec::new());
    }
}

fn render_subtree<'a>(
    snap: &'a Snapshot,
    node: &'a str,
    depth: usize,
    out: &mut String,
    path: &mut Vec<&'a str>,
) {
    if depth > 12 || path.contains(&node) {
        return; // cycle guard (recursive events like nested V-cycles)
    }
    path.push(node);
    for edge in snap.children(node) {
        let _ = writeln!(
            out,
            "  {}{:<width$} calls={:<6} incl={:.4e}s",
            "  ".repeat(depth),
            edge.child,
            edge.calls,
            edge.incl_seconds,
            width = 30usize.saturating_sub(2 * depth),
        );
        render_subtree(snap, edge.child, depth + 1, out, path);
    }
    path.pop();
}

/// Render the snapshot as a JSON document (see DESIGN.md for the
/// schema). Deterministic: object keys are sorted, events keep
/// registration order inside the `events` array.
pub fn json_string(snap: &Snapshot) -> String {
    let events = Value::Arr(
        snap.events
            .iter()
            .map(|e| {
                Value::obj(vec![
                    ("name", Value::Str(e.name.to_string())),
                    ("calls", Value::Num(e.calls as f64)),
                    ("incl_s", Value::Num(e.incl_seconds)),
                    ("excl_s", Value::Num(e.excl_seconds)),
                    ("flops", Value::Num(e.flops as f64)),
                    ("bytes", Value::Num(e.bytes as f64)),
                ])
            })
            .collect(),
    );
    let edges = Value::Arr(
        snap.edges
            .iter()
            .map(|e| {
                Value::obj(vec![
                    ("parent", Value::Str(e.parent.to_string())),
                    ("child", Value::Str(e.child.to_string())),
                    ("calls", Value::Num(e.calls as f64)),
                    ("incl_s", Value::Num(e.incl_seconds)),
                ])
            })
            .collect(),
    );
    let ksp = Value::Arr(snap.ksp.iter().map(ksp_value).collect());
    let doc = Value::obj(vec![
        ("version", Value::Num(1.0)),
        ("events", events),
        ("edges", edges),
        ("ksp", ksp),
    ]);
    let mut text = doc.to_json();
    text.push('\n');
    text
}

fn ksp_value(k: &KspRecord) -> Value {
    Value::obj(vec![
        ("label", Value::Str(k.label.clone())),
        ("iterations", Value::Num(k.iterations as f64)),
        ("rtol", Value::Num(k.rtol)),
        ("converged", Value::Bool(k.converged)),
        ("initial_residual", Value::Num(k.initial_residual)),
        ("final_residual", Value::Num(k.final_residual)),
        (
            "history",
            Value::Arr(k.history.iter().map(|&r| Value::Num(r)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeSnapshot, EventSnapshot};

    fn sample() -> Snapshot {
        Snapshot {
            events: vec![
                EventSnapshot {
                    name: "StokesSolve",
                    calls: 1,
                    incl_seconds: 2.0,
                    excl_seconds: 0.5,
                    flops: 0,
                    bytes: 0,
                },
                EventSnapshot {
                    name: "MatMult_MF",
                    calls: 40,
                    incl_seconds: 1.5,
                    excl_seconds: 1.5,
                    flops: 53_622 * 32_768,
                    bytes: 0,
                },
            ],
            edges: vec![EdgeSnapshot {
                parent: "StokesSolve",
                child: "MatMult_MF",
                calls: 40,
                incl_seconds: 1.5,
            }],
            ksp: vec![KspRecord {
                label: "GCR(stokes)".into(),
                iterations: 12,
                rtol: 0.05,
                converged: true,
                initial_residual: 1.0,
                final_residual: 1e-9,
                history: vec![1.0, 1e-9],
            }],
        }
    }

    #[test]
    fn log_view_contains_all_sections() {
        let text = log_view_string(&sample());
        assert!(text.contains("MatMult_MF"));
        assert!(text.contains("MFlops/s") && text.contains("MB/s"));
        assert!(text.contains("Call tree"));
        assert!(text.contains("KSP solves"));
        assert!(text.contains("GCR(stokes)"));
        assert!(text.contains("its=12   rtol=5.00e-2"), "{text}");
    }

    #[test]
    fn json_round_trips_through_parser() {
        let text = json_string(&sample());
        let v = crate::json::parse(&text).unwrap();
        let events = v.get("events").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("name").unwrap().as_str().unwrap(),
            "MatMult_MF"
        );
        assert_eq!(
            events[1].get("flops").unwrap().as_f64().unwrap() as u64,
            53_622 * 32_768
        );
        let ksp = v.get("ksp").unwrap().as_arr().unwrap();
        assert_eq!(ksp[0].get("iterations").unwrap().as_f64().unwrap(), 12.0);
        assert_eq!(ksp[0].get("rtol").unwrap().as_f64().unwrap(), 0.05);
    }
}
