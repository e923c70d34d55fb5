//! Comparison of result files, and summaries of repeated runs: the
//! acceptance sets behind the checked-in baseline and the paired-run rule.

use crate::catalog::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, quartiles, spread};
use crate::workloads::Workload;
use serde_json::Value;
use std::collections::BTreeMap;

type Error = Box<dyn std::error::Error>;

fn read_json(path: &str) -> Result<Value, Error> {
    Ok(serde_json::from_str(
        &std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
    )?)
}

/// `b` relative to `a`, signed so that positive is worse.
fn worsening(m: &EndToEnd, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Lower => b / a - 1.0,
        Better::Higher => 1.0 - b / a,
    }
}

/// Prints one row per (end-to-end metric, workload) of two result files and
/// returns whether `b` is acceptable: nothing `worse`, no higher error ratio.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, Error> {
    compare_values(&read_json(a_path)?, &read_json(b_path)?)
}

fn compare_values(a: &Value, b: &Value) -> Result<bool, Error> {
    for (side, file) in [("A", a), ("B", b)] {
        if file["label"].as_str() != Some("full") {
            return Err(format!("{side} is not a full run (label {})", file["label"]).into());
        }
    }
    println!(
        "{:<14} {:<24} {:>12} {:>12} {:>22} {:>6} {:>7}  verdict",
        "workload", "metric", "A", "B", "B/A (base A)", "bound", "spread"
    );
    let mut acceptable = true;
    for w in Workload::ALL {
        let (wa, wb) = (&a["workloads"][w.name()], &b["workloads"][w.name()]);
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (
                wa["end_to_end"][m.name].as_f64(),
                wb["end_to_end"][m.name].as_f64(),
            ) else {
                println!("{:<14} {:<24} missing in one file", w.name(), m.name);
                acceptable = false;
                continue;
            };
            let recorded = [wa, wb]
                .iter()
                .filter_map(|f| f.get("spread")?.get(m.name)?.as_f64())
                .fold(0.0, f64::max);
            let change = worsening(m, va, vb);
            let verdict = if recorded > m.bound {
                "unresolved"
            } else if change > m.bound {
                acceptable = false;
                "worse"
            } else if change < -m.bound {
                "better"
            } else {
                "unchanged"
            };
            println!(
                "{:<14} {:<24} {:>12.4} {:>12.4} {:>10.4} of {:>8.4} {:>5.0}% {:>6.1}%  {verdict}",
                w.name(),
                m.name,
                va,
                vb,
                vb / va,
                va,
                m.bound * 100.0,
                recorded * 100.0
            );
        }
        let errors = |f: &Value| f["per_layer"]["error_ratio"].as_f64().unwrap_or(0.0);
        if errors(wb) > errors(wa) {
            println!(
                "{:<14} error_ratio rose from {} to {}",
                w.name(),
                errors(wa),
                errors(wb)
            );
            acceptable = false;
        }
    }
    Ok(acceptable)
}

/// The values of each (workload, metric) over repeated runs, in run order.
type Runs = BTreeMap<(String, String), Vec<f64>>;

/// Runs from lines of `<tag>\t<workload>\t<result line>`, keyed by tag.
fn read_runs(path: &str) -> Result<BTreeMap<String, Runs>, Error> {
    let mut out: BTreeMap<String, Runs> = BTreeMap::new();
    for line in std::fs::read_to_string(path)?.lines() {
        let mut parts = line.splitn(3, '\t');
        let (Some(tag), Some(workload), Some(json)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!("{path}: malformed line `{line}`").into());
        };
        let result: Value = serde_json::from_str(json)?;
        if result["correct"].as_bool() != Some(true) {
            return Err(format!("{path}: a run of {workload} was not correct").into());
        }
        for (name, m) in result["metrics"].as_object().ok_or("no metrics")? {
            out.entry(tag.to_owned())
                .or_default()
                .entry((workload.to_owned(), name.clone()))
                .or_default()
                .push(m["value"].as_f64().ok_or("metric without a value")?);
        }
    }
    Ok(out)
}

/// Summarizes acceptance sets (one tag per set) into a baseline file: per
/// set the median, quartiles and spread of each metric on each workload; at
/// the top the first set's medians and the widest spread seen.
pub fn summarize(runs_path: &str, layers_path: Option<&str>) -> Result<Value, Error> {
    let sets = read_runs(runs_path)?;
    let mut set_values = Vec::new();
    let mut widest: BTreeMap<(String, String), f64> = BTreeMap::new();
    println!(
        "{:<6} {:<14} {:<24} {:>3} {:>12} {:>12} {:>12} {:>7}",
        "set", "workload", "metric", "n", "median", "q1", "q3", "spread"
    );
    for (tag, metrics) in &sets {
        let mut per_workload: BTreeMap<String, Vec<(String, Value)>> = BTreeMap::new();
        for ((workload, name), values) in metrics {
            let (q1, q3) = quartiles(values).ok_or("a set needs at least two runs")?;
            let s = spread(values).unwrap_or(0.0);
            println!(
                "{tag:<6} {workload:<14} {name:<24} {:>3} {:>12.4} {q1:>12.4} {q3:>12.4} {:>6.1}%",
                values.len(),
                median(values),
                s * 100.0
            );
            let widest = widest
                .entry((workload.clone(), name.clone()))
                .or_insert(0.0);
            *widest = widest.max(s);
            per_workload.entry(workload.clone()).or_default().push((
                name.clone(),
                serde_json::json!({
                    "n": values.len(), "median": median(values), "q1": q1, "q3": q3, "spread": s
                }),
            ));
        }
        set_values.push(serde_json::json!({
            "set": tag,
            "workloads": Value::Object(
                per_workload
                    .into_iter()
                    .map(|(w, ms)| (w, Value::Object(ms)))
                    .collect()
            )
        }));
    }
    let layers = layers_path.map(read_json).transpose()?;
    let first = sets.values().next().ok_or("no runs")?;
    let workloads = Workload::ALL
        .iter()
        .map(|w| {
            let pick = |f: &dyn Fn(&(String, String)) -> Option<f64>| {
                Value::Object(
                    END_TO_END
                        .iter()
                        .filter_map(|m| {
                            let key = (w.name().to_owned(), m.name.to_owned());
                            Some((m.name.to_owned(), Value::Float(f(&key)?)))
                        })
                        .collect(),
                )
            };
            let mut section = vec![
                (
                    "end_to_end".to_owned(),
                    pick(&|k| first.get(k).map(|v| median(v))),
                ),
                ("spread".to_owned(), pick(&|k| widest.get(k).copied())),
            ];
            if let Some(l) = &layers {
                section.push((
                    "per_layer".to_owned(),
                    l["workloads"][w.name()]["per_layer"].clone(),
                ));
            }
            (w.name().to_owned(), Value::Object(section))
        })
        .collect();
    // Where and on what the sets were taken, from the suite that ran with them.
    let of_suite = |key: &str| layers.as_ref().map_or(Value::Null, |l| l[key].clone());
    Ok(serde_json::json!({
        "label": "full",
        "commit": of_suite("commit"),
        "nproc": of_suite("nproc"),
        "seconds": of_suite("seconds"),
        "workloads": Value::Object(workloads),
        "acceptance_sets": set_values
    }))
}

/// The paired-run rule over lines tagged `A` (parent) and `B` (change), in
/// run order: per metric and workload each side's median and quartiles, the
/// pairs `B` wins, and whether that is a gain — at least nine tenths of the
/// pairs won, ties counting for neither, and medians further apart than the
/// parent's own quartiles.
pub fn pairs(runs_path: &str) -> Result<(), Error> {
    let runs = read_runs(runs_path)?;
    let (a, b) = (
        runs.get("A").ok_or("no runs tagged A")?,
        runs.get("B").ok_or("no runs tagged B")?,
    );
    println!(
        "{:<14} {:<24} {:>30} {:>30} {:>9}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins"
    );
    for w in Workload::ALL {
        for m in END_TO_END {
            let key = (w.name().to_owned(), m.name.to_owned());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let n = va.len().min(vb.len());
            let wins = (0..n).filter(|&i| worsening(m, va[i], vb[i]) < 0.0).count();
            let losses = (0..n).filter(|&i| worsening(m, va[i], vb[i]) > 0.0).count();
            let (a_q1, a_q3) = quartiles(va).ok_or("need at least two pairs")?;
            let (b_q1, b_q3) = quartiles(vb).ok_or("need at least two pairs")?;
            let apart = (median(vb) - median(va)).abs() > a_q3 - a_q1;
            let verdict = if apart && wins * 10 >= n * 9 {
                "gain"
            } else if apart && losses * 10 >= n * 9 {
                "loss"
            } else {
                "no claim"
            };
            println!(
                "{:<14} {:<24} {:>10.4} [{:>8.4}, {:>8.4}] {:>10.4} [{:>8.4}, {:>8.4}] {:>5}/{:<3}  {verdict}",
                w.name(), m.name, median(va), a_q1, a_q3, median(vb), b_q1, b_q3, wins, n
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_file(read_p50: f64, errors: f64, label: &str) -> Value {
        let e2e: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                let v = if m.name == "read_p50_ms" {
                    read_p50
                } else {
                    10.0
                };
                format!("\"{}\":{v:?}", m.name)
            })
            .collect();
        let section = format!(
            "{{\"end_to_end\":{{{}}},\"per_layer\":{{\"error_ratio\":{errors:?}}}}}",
            e2e.join(",")
        );
        let workloads: Vec<String> = Workload::ALL
            .iter()
            .map(|w| format!("\"{}\":{section}", w.name()))
            .collect();
        let text = format!(
            "{{\"label\":\"{label}\",\"workloads\":{{{}}}}}",
            workloads.join(",")
        );
        serde_json::from_str(&text).unwrap()
    }

    #[test]
    fn compare_flags_regressions_errors_and_quick_runs() {
        let base = result_file(1.0, 0.0, "full");
        let same = result_file(1.05, 0.0, "full");
        let slow = result_file(1.5, 0.0, "full");
        let broken = result_file(1.0, 0.01, "full");
        let quick = result_file(1.0, 0.0, "quick");
        assert!(compare_values(&base, &same).unwrap());
        assert!(!compare_values(&base, &slow).unwrap());
        assert!(
            compare_values(&slow, &base).unwrap(),
            "an improvement is acceptable"
        );
        assert!(!compare_values(&base, &broken).unwrap());
        assert!(compare_values(&base, &quick).is_err());
    }

    #[test]
    fn worsening_respects_direction() {
        let lower = &END_TO_END[1];
        let higher = END_TO_END
            .iter()
            .find(|m| m.better == Better::Higher)
            .unwrap();
        assert!(worsening(lower, 1.0, 1.2) > 0.19);
        assert!(worsening(higher, 100.0, 80.0) > 0.19);
        assert!(worsening(higher, 100.0, 120.0) < 0.0);
    }
}
