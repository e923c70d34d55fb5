//! Rendering of run reports: the driver's result line, the human-readable
//! listing, and the result file `compare.sh` reads.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::run::Report;
use serde_json::Value;

fn metrics_with_units<'a>(
    values: &std::collections::BTreeMap<&'static str, f64>,
    names: impl Iterator<Item = (&'a str, &'a str)>,
) -> Value {
    Value::Object(
        names
            .map(|(name, unit)| {
                (
                    name.to_owned(),
                    serde_json::json!({"value": values[name], "unit": unit}),
                )
            })
            .collect(),
    )
}

/// The one-line JSON object the driver reads: the end-to-end metrics of an
/// untraced run, the per-layer metrics of a traced one.
pub fn driver_line(report: &Report, trace: bool) -> String {
    let metrics = if trace {
        metrics_with_units(
            &report.per_layer,
            PER_LAYER.iter().map(|m| (m.name, m.unit)),
        )
    } else {
        metrics_with_units(
            &report.end_to_end,
            END_TO_END.iter().map(|m| (m.name, m.unit)),
        )
    };
    serde_json::json!({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics
    })
    .to_string()
}

/// Every metric by name with unit and direction, then the run's identity.
pub fn print_listing(report: &Report, with_layers: bool) {
    let w = report.workload.name();
    println!(
        "# {w}: seed {} · {} s · request list {:016x} · nproc {}",
        report.seed, report.seconds, report.request_hash, report.nproc
    );
    let counts: Vec<String> = report
        .counts
        .iter()
        .map(|(k, v)| format!("{k} {v}"))
        .collect();
    println!("# {w}: samples: {}", counts.join(" · "));
    for m in END_TO_END {
        println!(
            "{w} {:<28} {:>14.4} {:<6} ({} is better, bound {:.0} %)",
            m.name,
            report.end_to_end[m.name],
            m.unit,
            m.better.as_str(),
            m.bound * 100.0
        );
    }
    if with_layers {
        for m in PER_LAYER {
            println!(
                "{w} {:<42} {:>14.4} {:<6} ({} is better)",
                m.name,
                report.per_layer[m.name],
                m.unit,
                m.better.as_str()
            );
        }
    }
    for why in &report.failures {
        println!("# {w}: FAILED CHECK: {why}");
    }
    for why in &report.invalid {
        println!("# {w}: INVALID: {why}");
    }
}

/// One workload's section of a result file.
pub fn workload_section(report: &Report) -> Value {
    let floats = |m: &std::collections::BTreeMap<&'static str, f64>| {
        Value::Object(
            m.iter()
                .map(|(k, v)| ((*k).to_owned(), Value::Float(*v)))
                .collect(),
        )
    };
    serde_json::json!({
        "seed": report.seed,
        "request_hash": format!("{:016x}", report.request_hash),
        "attempted": report.attempted,
        "failed": report.failed,
        "correct": report.correct,
        "invalid": report.invalid,
        "counts": Value::Object(
            report
                .counts
                .iter()
                .map(|(k, v)| ((*k).to_owned(), Value::Int(*v as i64)))
                .collect()
        ),
        "end_to_end": floats(&report.end_to_end),
        "per_layer": floats(&report.per_layer)
    })
}
