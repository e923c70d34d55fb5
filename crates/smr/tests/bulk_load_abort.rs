//! A bulk load is one transaction: when its commit fails — here its
//! fsync — none of the load stays. The tables, `get_page` and the RDF
//! mirror read exactly as before it, and a reopen finds the same state.

use sensormeta_relstore::vfs::{FaultPlan, FaultVfs, MemVfs, INJECTED_FAULT};
use sensormeta_relstore::wal::MAX_FRAME;
use sensormeta_relstore::DurabilityOptions;
use sensormeta_smr::{PageDraft, Smr};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

const PATH: &str = "repo.snap";

fn first_load() -> Vec<PageDraft> {
    vec![
        PageDraft::new("Site:a", "Site")
            .body("the first site")
            .annotate("hasElevation", "1500")
            .tag("snow"),
        PageDraft::new("Deployment:b", "Deployment")
            .annotate("deployedAt", "Site:a")
            .annotate("nearby", "Site:x")
            .link("Site:a"),
    ]
}

/// Updates both pages, creates new ones, and creates `Site:x`, which the
/// mirror then types as a page wherever a value names it.
fn second_load() -> Vec<PageDraft> {
    let mut drafts = vec![
        PageDraft::new("Site:a", "Site")
            .body("rewritten")
            .annotate("hasElevation", "1600"),
        PageDraft::new("Deployment:b", "Deployment").annotate("deployedAt", "Site:c"),
        PageDraft::new("Site:x", "Site").body("now a page"),
        PageDraft::new("Site:c", "Site").link("Site:x"),
    ];
    drafts.extend((0..6).map(|i| {
        PageDraft::new(format!("Deployment:d{i}"), "Deployment")
            .annotate("deployedAt", "Site:c")
            .tag("wind")
    }));
    drafts
}

fn open(vfs: &FaultVfs) -> Smr {
    let (smr, _) = Smr::open_durable_with(
        Arc::new(vfs.clone()),
        Path::new(PATH),
        DurabilityOptions::default(),
    )
    .expect("open durable");
    smr
}

/// Everything a reader can see: the tables, every page the loads name,
/// and every triple of the mirror.
fn observe(smr: &Smr) -> (String, Vec<String>, Vec<String>) {
    let dump = format!("{:?}", smr.database().logical_dump());
    let pages = first_load()
        .into_iter()
        .chain(second_load())
        .map(|d| format!("{:?}", smr.get_page(&d.title).expect("get_page")))
        .collect();
    let mut triples: Vec<String> = smr
        .sparql("SELECT ?s ?p ?o WHERE { ?s ?p ?o }")
        .expect("sparql")
        .rows
        .iter()
        .map(|row| format!("{row:?}"))
        .collect();
    triples.sort();
    (dump, pages, triples)
}

#[test]
fn an_aborted_bulk_load_leaves_tables_pages_and_mirror_as_they_were() {
    // The I/O operations of both loads, counted on a run without faults.
    let probe = FaultVfs::new(MemVfs::new(), FaultPlan::default());
    let mut smr = open(&probe);
    let report = smr.bulk_load(first_load());
    assert_eq!((report.created, report.errors.len()), (2, 0));
    assert!(smr.bulk_load(second_load()).errors.is_empty());

    // The same run, failing the second load's last operation: the fsync
    // of its commit, after every record of it reached the file. (Were
    // each statement logged on its own, all the others would stay.)
    let vfs = FaultVfs::new(
        MemVfs::new(),
        FaultPlan {
            fail_at_op: Some(probe.ops()),
            ..FaultPlan::default()
        },
    );
    let mut smr = open(&vfs);
    smr.bulk_load(first_load());
    let before = observe(&smr);

    let report = smr.bulk_load(second_load());
    assert_eq!(observe(&smr), before, "a failed load left writes behind");
    assert!(report.aborted, "{report:?}");
    assert_eq!((report.created, report.updated), (0, 0));
    assert_eq!(report.errors.len(), second_load().len());
    for (_, why) in &report.errors {
        assert!(why.contains(INJECTED_FAULT), "{why}");
    }

    // The log was poisoned by the failed commit; a reopen recovers the
    // first load, and nothing of the second.
    let (reopened, _) = Smr::open_durable_with(
        Arc::new(vfs.durable_state()),
        Path::new(PATH),
        DurabilityOptions::default(),
    )
    .expect("reopen");
    assert_eq!(observe(&reopened), before);
}

#[test]
fn a_bulk_load_that_unwinds_keeps_nothing_and_the_next_one_is_logged() {
    let vfs = FaultVfs::new(MemVfs::new(), FaultPlan::default());
    let mut smr = open(&vfs);
    let before = observe(&smr);

    // The input panics after two drafts, inside the load's transaction.
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        let failing = std::iter::from_fn(|| -> Option<PageDraft> { panic!("input failed") });
        smr.bulk_load(first_load().into_iter().chain(failing))
    }));
    assert!(unwound.is_err());
    assert!(
        !smr.database().in_transaction(),
        "a transaction stayed open"
    );
    assert_eq!(observe(&smr), before, "an unwound load left writes behind");

    // The next load commits on its own, and a reopen finds it in the log.
    let commits = smr.database().committed_seq();
    let report = smr.bulk_load(first_load());
    assert_eq!((report.created, report.aborted), (2, false));
    assert!(smr.database().committed_seq() > commits);
    let (reopened, _) = Smr::open_durable_with(
        Arc::new(vfs.durable_state()),
        Path::new(PATH),
        DurabilityOptions::default(),
    )
    .expect("reopen");
    assert_eq!(observe(&reopened), observe(&smr));
}

#[test]
fn drafts_that_fail_their_content_checks_are_skipped_not_fatal() {
    let mut smr = open(&FaultVfs::new(MemVfs::new(), FaultPlan::default()));
    let mut drafts = first_load();
    drafts.insert(1, PageDraft::new("", "Site"));
    // Half a frame of quotes: escaping doubles them in the UPDATE that
    // writes the body, which then does not fit one WAL frame.
    let quotes = "'".repeat(MAX_FRAME as usize / 2);
    drafts.push(PageDraft::new("Site:huge", "Site").body(quotes));
    let report = smr.bulk_load(drafts);
    assert!(!report.aborted);
    assert_eq!(report.created, 2);
    assert_eq!(report.errors.len(), 2, "{:?}", report.errors);
    assert!(report.errors[0].1.contains("empty title"));
    assert_eq!(report.errors[1].0, "Site:huge");
    assert!(report.errors[1].1.contains("log record"));
    assert_eq!(smr.page_count(), 2);
}
