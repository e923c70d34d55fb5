//! CLI for the workspace linter.
//!
//! ```text
//! cargo run -p xlint -- --workspace          # lint every library source
//! cargo run -p xlint -- --explain <rule>     # rule rationale
//! cargo run -p xlint -- path/to/file.rs …    # lint specific files
//! ```
//!
//! Exit codes: 0 clean, 1 any violation, 2 usage/configuration error.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

use std::path::PathBuf;
use std::process::ExitCode;
use xlint::{lint_files, lint_workspace, Rule};

struct Opts {
    workspace: bool,
    explain: Option<String>,
    files: Vec<PathBuf>,
}

fn usage() -> &'static str {
    "usage: xlint [--workspace] [--explain RULE] [files…]\n\
     \n\
     --workspace        lint all library sources of the enclosing workspace\n\
     --explain RULE     print the rationale for a rule (or `all`)\n\
     files…             lint specific files"
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workspace: false,
        explain: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => opts.workspace = true,
            "--explain" => {
                let rule = it.next().ok_or("--explain needs a rule name (or `all`)")?;
                opts.explain = Some(rule.clone());
            }
            "-h" | "--help" => return Err(usage().to_string()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`\n{}", usage()));
            }
            file => opts.files.push(PathBuf::from(file)),
        }
    }
    if !opts.workspace && opts.files.is_empty() && opts.explain.is_none() {
        return Err(format!("nothing to lint\n{}", usage()));
    }
    Ok(opts)
}

/// Prints the rationale for one rule name, or all of them for `all`.
fn explain(name: &str) -> Result<(), String> {
    if name == "all" {
        for (i, rule) in Rule::all().iter().enumerate() {
            if i > 0 {
                println!();
            }
            println!("{}\n  {}", rule.name(), rule.explain());
        }
        return Ok(());
    }
    let rule = Rule::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = Rule::all().iter().map(|r| r.name()).collect();
        format!("unknown rule `{name}`; known rules: {}", known.join(", "))
    })?;
    println!("{}\n  {}", rule.name(), rule.explain());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("xlint: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(opts: &Opts) -> Result<bool, Box<dyn std::error::Error>> {
    if let Some(name) = &opts.explain {
        explain(name)?;
        if !opts.workspace && opts.files.is_empty() {
            return Ok(true);
        }
    }
    let cwd = std::env::current_dir()?;
    let report = if opts.workspace {
        lint_workspace(&cwd)?.1
    } else {
        lint_files(&cwd, &opts.files)?
    };
    for v in &report.violations {
        println!("{}:{}: {}: {}", v.file, v.line, v.rule.name(), v.message);
    }
    println!(
        "xlint: {} file(s) scanned, {} violation(s)",
        report.files_scanned,
        report.violations.len()
    );
    Ok(report.violations.is_empty())
}
