//! `sensormeta` — command-line interface to the whole system.
//!
//! ```text
//! sensormeta generate  --out corpus.jsonl [--institutions N] [--seed N]
//! sensormeta load      --snapshot repo.snap FILE...
//! sensormeta search    --snapshot repo.snap QUERY [--attribute A --op OP --value V] [--limit N]
//! sensormeta sql       --snapshot repo.snap "SELECT …"
//! sensormeta sparql    --snapshot repo.snap "PREFIX … SELECT …"
//! sensormeta pagerank  --snapshot repo.snap [--top N]
//! sensormeta tagcloud  --snapshot repo.snap [--svg FILE]
//! sensormeta serve     --snapshot repo.snap [--addr HOST:PORT]
//! sensormeta fsck      --snapshot repo.snap
//! sensormeta fig3      [--size N] [--tol T]
//! ```

use sensormeta::query::{CondOp, Condition, QueryEngine, SearchForm};
use sensormeta::rank::{all_solvers, PageRankProblem, TransitionMatrix};
use sensormeta::smr::{parse_csv, parse_jsonl, Smr};
use sensormeta::tagging::{compute_cloud, CloudParams, TagStore};
use sensormeta::workload::{barabasi_albert, generate_corpus, CorpusConfig};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn run(args: &[String]) -> CliResult {
    let Some(cmd) = args.first() else {
        print_usage();
        return Ok(());
    };
    let opts = Opts::parse(&args[1..]);
    match cmd.as_str() {
        "generate" => generate(&opts),
        "load" => load(&opts),
        "search" => search(&opts),
        "sql" => sql(&opts),
        "sparql" => sparql(&opts),
        "pagerank" => pagerank(&opts),
        "tagcloud" => tagcloud(&opts),
        "serve" => serve(&opts),
        "fsck" => fsck(&opts),
        "fig3" => fig3(&opts),
        "stats" => stats(&args[1..]),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command `{other}`; try `sensormeta help`").into()),
    }
}

fn print_usage() {
    println!(
        "sensormeta — advanced search, visualization and tagging of sensor metadata\n\n\
         commands:\n  \
         generate  --out FILE [--institutions N] [--seed N]   write a synthetic corpus (JSONL)\n  \
         load      --snapshot FILE INPUT...                   bulk-load JSONL/CSV into a snapshot\n  \
         search    --snapshot FILE QUERY [--attribute A --op OP --value V] [--limit N]\n  \
         sql       --snapshot FILE \"SELECT …\"                  run SQL (SELECT/EXPLAIN)\n  \
         sparql    --snapshot FILE \"SELECT …\"                  run SPARQL\n  \
         pagerank  --snapshot FILE [--top N]                  print page authorities\n  \
         tagcloud  --snapshot FILE [--svg FILE]               print/render the tag cloud\n  \
         serve     --snapshot FILE [--addr HOST:PORT]         start the demo web app\n  \
         fsck      --snapshot FILE                            verify WAL checksums + structural invariants\n  \
         fig3      [--size N] [--tol T]                       reproduce the Fig. 3 solver table\n  \
         stats     SUBCOMMAND [ARGS...]                       run any subcommand, then dump the metrics registry"
    );
}

/// Dead-simple option parser: `--key value` pairs plus positionals.
struct Opts {
    flags: std::collections::BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Opts {
    fn parse(args: &[String]) -> Opts {
        let mut flags = std::collections::BTreeMap::new();
        let mut positional = Vec::new();
        let mut i = 0;
        while i < args.len() {
            if let Some(key) = args[i].strip_prefix("--") {
                let value = args.get(i + 1).cloned().unwrap_or_default();
                flags.insert(key.to_owned(), value);
                i += 2;
            } else {
                positional.push(args[i].clone());
                i += 1;
            }
        }
        Opts { flags, positional }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    fn get_or(&self, key: &str, default: &str) -> String {
        self.get(key).unwrap_or(default).to_owned()
    }

    fn usize_or(&self, key: &str, default: usize) -> usize {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    fn snapshot(&self) -> Result<&str, Box<dyn std::error::Error>> {
        self.get("snapshot")
            .ok_or_else(|| "missing --snapshot FILE".into())
    }
}

fn open_smr(opts: &Opts) -> Result<Smr, Box<dyn std::error::Error>> {
    let path = opts.snapshot()?;
    Ok(Smr::load(Path::new(path))?)
}

fn generate(opts: &Opts) -> CliResult {
    let out = opts.get("out").ok_or("missing --out FILE")?;
    let cfg = CorpusConfig {
        institutions: opts.usize_or("institutions", 6),
        projects_per_institution: opts.usize_or("projects", 3),
        sites_per_project: opts.usize_or("sites", 4),
        deployments_per_site: opts.usize_or("deployments", 5),
        seed: opts.usize_or("seed", 2011) as u64,
    };
    let pages = generate_corpus(&cfg);
    let mut lines = String::new();
    for p in &pages {
        let draft = sensormeta::smr::PageDraft {
            title: p.title.clone(),
            namespace: p.namespace.to_owned(),
            body: p.body.clone(),
            annotations: p.annotations.clone(),
            links: p.links.clone(),
            tags: p.tags.clone(),
        };
        lines.push_str(&serde_json::to_string(&draft)?);
        lines.push('\n');
    }
    std::fs::write(out, lines)?;
    println!("wrote {} pages to {out}", pages.len());
    Ok(())
}

fn load(opts: &Opts) -> CliResult {
    let path = opts.snapshot()?.to_owned();
    if opts.positional.is_empty() {
        return Err("no input files given".into());
    }
    // Durable open: creates a fresh store when the snapshot is absent,
    // otherwise recovers any committed work left in the write-ahead log.
    let (mut smr, report) = Smr::open_durable(Path::new(&path))?;
    if report.replayed_ops > 0 || !report.wal_problems.is_empty() {
        println!(
            "recovered {} op(s) from the write-ahead log ({} skipped, {} problem(s))",
            report.replayed_ops,
            report.skipped_ops,
            report.wal_problems.len()
        );
        for p in report.wal_problems.iter().take(5) {
            eprintln!("  wal: {p}");
        }
    }
    for input in &opts.positional {
        let text = std::fs::read_to_string(input)?;
        let (drafts, errors) = if input.ends_with(".csv") {
            parse_csv(&text)
        } else {
            parse_jsonl(&text)
        };
        let report = smr.bulk_load(drafts);
        println!(
            "{input}: created {}, updated {}, errors {}",
            report.created,
            report.updated,
            report.errors.len() + errors.len()
        );
        for (what, why) in report.errors.iter().chain(errors.iter()).take(5) {
            eprintln!("  {what}: {why}");
        }
    }
    // Fold the log into a fresh snapshot so the next open starts clean.
    smr.checkpoint()?;
    println!(
        "checkpointed snapshot to {path} ({} pages)",
        smr.page_count()
    );
    Ok(())
}

fn search(opts: &Opts) -> CliResult {
    let smr = open_smr(opts)?;
    let engine = QueryEngine::open(smr)?;
    let mut form = SearchForm::keywords(opts.positional.join(" "));
    if let (Some(attr), Some(value)) = (opts.get("attribute"), opts.get("value")) {
        let op = match opts.get_or("op", "eq").as_str() {
            "contains" => CondOp::Contains,
            "gt" => CondOp::Gt,
            "lt" => CondOp::Lt,
            "between" => CondOp::Between,
            _ => CondOp::Eq,
        };
        form.conditions.push(Condition::new(attr, op, value));
    }
    form.limit = opts.usize_or("limit", 10);
    let out = engine.search(&form, opts.get("user"))?;
    println!("{} results", out.total_matched);
    for item in &out.items {
        println!(
            "  {:<40} score={:.3} pr={:.3}  {}",
            item.title, item.score, item.pagerank, item.snippet
        );
    }
    if let Some(dym) = &out.did_you_mean {
        println!("did you mean: {dym}");
    }
    if !out.recommendations.is_empty() {
        println!("related:");
        for r in &out.recommendations {
            println!("  {}", r.title);
        }
    }
    Ok(())
}

fn sql(opts: &Opts) -> CliResult {
    let smr = open_smr(opts)?;
    let q = opts.positional.join(" ");
    let rs = smr.sql(&q)?;
    print!("{}", rs.to_ascii_table());
    Ok(())
}

fn sparql(opts: &Opts) -> CliResult {
    let smr = open_smr(opts)?;
    let q = opts.positional.join(" ");
    let sols = smr.sparql(&q)?;
    println!("{}", sols.vars.join("\t"));
    for row in &sols.rows {
        let cells: Vec<String> = row
            .iter()
            .map(|t| {
                t.as_ref()
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "—".into())
            })
            .collect();
        println!("{}", cells.join("\t"));
    }
    Ok(())
}

fn pagerank(opts: &Opts) -> CliResult {
    let smr = open_smr(opts)?;
    let engine = QueryEngine::open(smr)?;
    let mut titles = engine.smr().page_titles()?;
    titles.sort_by(|a, b| {
        engine
            .pagerank_of(b)
            .partial_cmp(&engine.pagerank_of(a))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for t in titles.iter().take(opts.usize_or("top", 20)) {
        println!("{:.5}  {t}", engine.pagerank_of(t).unwrap_or(0.0));
    }
    Ok(())
}

fn tagcloud(opts: &Opts) -> CliResult {
    let smr = open_smr(opts)?;
    let mut store = TagStore::new();
    let pairs = smr.all_tags()?;
    store.ingest(pairs.iter().map(|(p, t)| (p.as_str(), t.as_str())));
    let cloud = compute_cloud(&store, &CloudParams::default());
    println!(
        "{} tags, {} cliques",
        cloud.entries.len(),
        cloud.cliques.len()
    );
    for entry in cloud.by_prominence().iter().take(opts.usize_or("top", 20)) {
        println!(
            "  {:<20} count={:<4} size={:<3} cliques={:?}",
            entry.tag, entry.count, entry.font_size, entry.cliques
        );
    }
    if let Some(svg_path) = opts.get("svg") {
        std::fs::write(
            svg_path,
            sensormeta::viz::render_tag_cloud("Metadata trends", &cloud),
        )?;
        println!("wrote {svg_path}");
    }
    Ok(())
}

fn serve(opts: &Opts) -> CliResult {
    match sensormeta::resil::chaos::install_from_env() {
        Ok(0) => {}
        Ok(n) => println!("chaos: armed {n} fault(s) from SENSORMETA_CHAOS"),
        Err(e) => return Err(format!("SENSORMETA_CHAOS: {e}").into()),
    }
    let topology = sensormeta::cluster::Topology::from_env();
    // Replicas tail the primary's write-ahead log, so a replicated server
    // must own the store durably; otherwise the plain recovering open keeps
    // the snapshot read-only.
    let smr = if topology.replicas > 0 {
        Smr::open_durable(Path::new(opts.snapshot()?))?.0
    } else {
        open_smr(opts)?
    };
    println!("indexing {} pages…", smr.page_count());
    let engine = QueryEngine::open(smr)?;
    let mut app = sensormeta::server::App::new(engine);
    if topology.shards > 1 {
        println!("scatter-gather serving over {} shards", topology.shards);
    }
    if topology.replicas > 0 {
        let n = app.attach_replicas(Path::new(opts.snapshot()?))?;
        println!(
            "attached {n} WAL-shipped read replica(s), staleness bound {} epoch(s)",
            topology.staleness_epochs
        );
    }
    let addr = opts.get_or("addr", "127.0.0.1:8080");
    let server = sensormeta::server::serve(app, &addr, opts.usize_or("workers", 8))?;
    println!("serving on http://{}", server.addr);
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Scans the write-ahead log that rides alongside `snapshot` (if any) and
/// verifies every frame's length and CRC32. The bytes are read raw off disk
/// *before* the snapshot is opened, so the verdict reflects exactly what a
/// recovery would see — a durable open would checkpoint the log away.
fn wal_fsck(snapshot: &Path) -> Result<(), Vec<String>> {
    let wal_path = sensormeta::relstore::wal_path_for(snapshot);
    if !wal_path.exists() {
        println!("fsck: write-ahead log: absent (nothing to verify)");
        return Ok(());
    }
    let bytes = match std::fs::read(&wal_path) {
        Ok(b) => b,
        Err(e) => return Err(vec![format!("unreadable: {e}")]),
    };
    let scan = sensormeta::relstore::scan_wal(&bytes);
    println!(
        "fsck: write-ahead log: {} frame(s), {} committed transaction(s), \
         {} uncommitted, {} byte(s) discarded",
        scan.frames,
        scan.committed.len(),
        scan.uncommitted_txs,
        scan.discarded_bytes
    );
    if scan.problems.is_empty() {
        Ok(())
    } else {
        Err(scan.problems)
    }
}

/// Runs every deep structural validator over a snapshot: the write-ahead
/// log (frame lengths and checksums), the relational mirror (heaps, slotted
/// pages, B-tree indexes), the RDF triple store, the hyperlink CSR graphs,
/// and the tag-similarity graph. Exits nonzero if any invariant is violated.
fn fsck(opts: &Opts) -> CliResult {
    let wal_outcome = wal_fsck(Path::new(opts.snapshot()?));
    let smr = open_smr(opts)?;
    let mut failures = 0usize;
    let mut section = |name: &str, outcome: Result<(), Vec<String>>| match outcome {
        Ok(()) => println!("fsck: {name}: ok"),
        Err(problems) => {
            failures += problems.len();
            for p in &problems {
                println!("fsck: {name}: {p}");
            }
        }
    };

    section("write-ahead log", wal_outcome);
    section("relational store", smr.database().check_invariants());
    section("rdf triple store", smr.rdf().check_invariants());

    let (hyperlink, semantic, _titles) = smr.link_graphs()?;
    section("hyperlink graph", hyperlink.check_invariants());
    section("semantic graph", semantic.check_invariants());

    let mut tags = TagStore::new();
    let pairs = smr.all_tags()?;
    tags.ingest(pairs.iter().map(|(p, t)| (p.as_str(), t.as_str())));
    let (_names, sets) = tags.incidence();
    let threshold = sensormeta::tagging::DEFAULT_THRESHOLD;
    let graph = sensormeta::tagging::similarity_graph(&sets, threshold);
    section(
        "tag similarity graph",
        sensormeta::tagging::check_similarity_graph(&sets, threshold, &graph),
    );

    if failures == 0 {
        println!("fsck: all invariants hold");
        Ok(())
    } else {
        Err(format!("fsck: {failures} invariant violation(s)").into())
    }
}

/// Wrapper command: runs any other subcommand, then dumps the global
/// metrics registry (Prometheus text format; set SENSORMETA_STATS=json for
/// the JSON rendering) to stdout.
fn stats(rest: &[String]) -> CliResult {
    if !rest.is_empty() {
        run(rest)?;
    }
    let reg = sensormeta::obs::global();
    let dump = if std::env::var("SENSORMETA_STATS").as_deref() == Ok("json") {
        reg.render_json()
    } else {
        reg.render_prometheus()
    };
    print!("{dump}");
    Ok(())
}

fn fig3(opts: &Opts) -> CliResult {
    let n = opts.usize_or("size", 10_000);
    let tol: f64 = opts.get("tol").and_then(|t| t.parse().ok()).unwrap_or(1e-9);
    let g = barabasi_albert(n, 3, 0.15, 2011);
    let p = PageRankProblem::new(TransitionMatrix::from_graph(&g));
    println!("n={n}, tol={tol:.0e}");
    println!(
        "{:<14} {:>10} {:>9} {:>9}",
        "method", "iterations", "matvecs", "ms"
    );
    for solver in all_solvers() {
        let t0 = std::time::Instant::now();
        let r = solver.solve(&p, tol, 10_000);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        println!(
            "{:<14} {:>10} {:>9} {:>9.2}{}",
            solver.name(),
            r.iterations,
            r.matvecs,
            ms,
            if r.converged {
                ""
            } else {
                "  (no convergence)"
            }
        );
    }
    Ok(())
}
