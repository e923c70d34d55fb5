//! `harness` — the wire-level, layer-attributed benchmark for sensormeta.
//!
//! ```text
//! harness run     --workload W --seed N --seconds S --trace 0|1   one run; the last line is the driver's JSON
//! harness suite   [--seed N] [--quick] [--commit ID]              all four workloads with the traced pass
//! harness compare A.json B.json                                   one row per (metric, workload)
//! harness summarize RUNS.tsv [--layers SUITE.json] --out FILE     acceptance sets → baseline file
//! harness pairs   RUNS.tsv                                        the paired-run rule over A/B runs
//! ```
//!
//! `run` and `suite` also take `--server-bin PATH` (the release `sensormeta`
//! binary), `--work-dir DIR` (scratch space) and `--results-dir DIR`;
//! `run.sh` passes them.

mod catalog;
mod compare;
mod http;
mod layers;
mod loadgen;
mod oracle;
mod report;
mod run;
mod stats;
mod target;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::Workload;

type Error = Box<dyn std::error::Error>;

/// `BENCHMARK.json`'s `run_seconds`, the set-ups per run and the requests
/// the traced pass replays; and what `--quick` uses instead.
const FULL: (f64, usize, usize) = (18.0, 3, 200);
const QUICK: (f64, usize, usize) = (3.0, 1, 40);
const DEFAULT_SEED: u64 = 2011;

struct Args {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Args {
        let mut flags = BTreeMap::new();
        let mut positional = Vec::new();
        let mut i = 0;
        while i < args.len() {
            match args[i].strip_prefix("--") {
                Some("quick") => {
                    flags.insert("quick".to_owned(), "1".to_owned());
                    i += 1;
                }
                Some(key) => {
                    flags.insert(key.to_owned(), args.get(i + 1).cloned().unwrap_or_default());
                    i += 2;
                }
                None => {
                    positional.push(args[i].clone());
                    i += 1;
                }
            }
        }
        Args { flags, positional }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    fn required(&self, key: &str) -> Result<&str, Error> {
        self.get(key)
            .ok_or_else(|| format!("missing --{key}").into())
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, Error> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} {v}: not a number").into()),
        }
    }

    fn env(&self) -> Result<target::Env, Error> {
        Ok(target::Env {
            server_bin: PathBuf::from(self.required("server-bin")?),
            work_dir: PathBuf::from(self.required("work-dir")?)
                .join(format!("run-{}", std::process::id())),
        })
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        eprintln!("usage: harness run|suite|compare|summarize|pairs …");
        return ExitCode::from(2);
    };
    let args = Args::parse(&argv[1..]);
    let outcome = match cmd.as_str() {
        "run" => run_one(&args),
        "suite" => suite(&args),
        "compare" => match args.positional.as_slice() {
            [a, b] => compare::compare(a, b),
            _ => Err("usage: harness compare A.json B.json".into()),
        },
        "summarize" => summarize(&args),
        "pairs" => match args.positional.as_slice() {
            [runs] => compare::pairs(runs).map(|()| true),
            _ => Err("usage: harness pairs RUNS.tsv".into()),
        },
        other => Err(format!("unknown command `{other}`").into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("harness: {e}");
            ExitCode::from(2)
        }
    }
}

/// One run for the driver. The result line comes last; whether the run was
/// correct is in the line, so a completed run exits 0.
fn run_one(args: &Args) -> Result<bool, Error> {
    let name = args.required("workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let trace = args.number("trace", 0u8)? != 0;
    let env = args.env()?;
    let report = run::run(&run::Options {
        workload,
        seed: args.number("seed", DEFAULT_SEED)?,
        seconds: args.number("seconds", FULL.0)?,
        setups: FULL.1,
        trace: trace.then_some(FULL.2),
        env: env.clone(),
    });
    let _ = std::fs::remove_dir_all(&env.work_dir);
    let report = report?;
    report::print_listing(&report, trace);
    if let (Some(json), Some(dir)) = (&report.trace_json, args.get("results-dir")) {
        std::fs::create_dir_all(dir)?;
        std::fs::write(format!("{dir}/trace-{}.json", workload.name()), json)?;
    }
    println!("{}", report::driver_line(&report, trace));
    Ok(true)
}

/// All four workloads, each with the traced pass, and the closure checks.
/// Writes `latest.json` and one span dump per workload.
fn suite(args: &Args) -> Result<bool, Error> {
    let started = Instant::now();
    let quick = args.get("quick").is_some();
    let seed = args.number("seed", DEFAULT_SEED)?;
    let (seconds, setups, replay) = if quick { QUICK } else { FULL };
    let results_dir = args.required("results-dir")?;
    std::fs::create_dir_all(results_dir)?;
    let env = args.env()?;
    let mut sections = Vec::new();
    let mut good = true;
    for workload in Workload::ALL {
        let report = run::run(&run::Options {
            workload,
            seed,
            seconds,
            setups,
            trace: Some(replay),
            env: env.clone(),
        });
        let _ = std::fs::remove_dir_all(&env.work_dir);
        let report = report?;
        report::print_listing(&report, true);
        good &= report.correct && report.invalid.is_empty();
        closure_checks(&report);
        if let Some(json) = &report.trace_json {
            std::fs::write(
                format!("{results_dir}/trace-{}.json", workload.name()),
                json,
            )?;
        }
        sections.push((
            workload.name().to_owned(),
            report::workload_section(&report),
        ));
    }
    let wall_s = started.elapsed().as_secs_f64();
    let label = if quick { "quick" } else { "full" };
    let file = serde_json::json!({
        "label": label,
        "seed": seed,
        "seconds": seconds,
        "nproc": target::nproc(),
        "commit": args.get("commit").unwrap_or("unknown"),
        "wall_s": wall_s,
        "workloads": serde_json::Value::Object(sections)
    });
    let path = format!("{results_dir}/latest.json");
    std::fs::write(&path, file.to_string() + "\n")?;
    println!(
        "# {label} suite: seed {seed} · nproc {} · commit {} · {wall_s:.1} s wall · wrote {path}",
        target::nproc(),
        args.get("commit").unwrap_or("unknown"),
    );
    if !good {
        println!("# suite FAILED: a run was invalid or a correctness check failed");
    }
    Ok(good)
}

/// Does the layer attribution close? Printed, not enforced: these relate
/// traced in-process means to wire measurements and are read by people.
fn closure_checks(report: &run::Report) {
    let w = report.workload.name();
    let l = |name: &str| report.per_layer[name];
    let children = l("query.keyword_us")
        + l("query.conditions_sparql_us")
        + l("query.conditions_sql_us")
        + l("query.assemble_us")
        + l("query.finalize_us");
    if l("query.uncached_us") > 0.0 {
        println!(
            "# {w}: attribution: query.* stages sum to {:.0} us = {:.2} of query.uncached_us ({:.0} us)",
            children,
            children / l("query.uncached_us"),
            l("query.uncached_us")
        );
    }
    if let Some(handle_us) = report.handle_mean_us {
        let cpu_us = report.end_to_end["server_cpu_ms_per_req"] * 1e3;
        println!(
            "# {w}: attribution: mean App::handle {handle_us:.0} us = {:.2} of server_cpu_ms_per_req ({cpu_us:.0} us)",
            handle_us / cpu_us
        );
    }
    println!(
        "# {w}: attribution: cache.query_results.hit_ratio {:.3} · trace.overhead_ratio {:.3}",
        l("cache.query_results.hit_ratio"),
        l("trace.overhead_ratio")
    );
}

fn summarize(args: &Args) -> Result<bool, Error> {
    let [runs] = args.positional.as_slice() else {
        return Err("usage: harness summarize RUNS.tsv [--layers SUITE.json] --out FILE".into());
    };
    let baseline = compare::summarize(runs, args.get("layers"))?;
    std::fs::write(args.required("out")?, baseline.to_string() + "\n")?;
    Ok(true)
}
