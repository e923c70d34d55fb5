//! A bulk load on a durable repository costs one WAL commit and one fsync,
//! however many pages and rows it writes. Its own test binary, so no other
//! test moves the process-wide counters while it reads them.

use sensormeta_obs as obs;
use sensormeta_smr::{PageDraft, Smr};

#[test]
fn a_ten_page_bulk_load_is_one_commit_and_one_fsync() {
    let dir = std::env::temp_dir().join(format!("smr-fsyncs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (mut smr, _) = Smr::open_durable(&dir.join("repo.snap")).expect("open durable");

    let drafts = (0..10).map(|i| {
        PageDraft::new(format!("Deployment:d{i}"), "Deployment")
            .body("a deployment")
            .annotate("deployedAt", "Site:wfj")
            .annotate("measuresQuantity", "temperature")
            .link("Site:wfj")
            .tag("snow")
    });
    let (fsyncs, commits) = (
        obs::counter("relstore_wal_fsyncs_total"),
        obs::counter("relstore_wal_commits_total"),
    );
    let (fsyncs0, commits0) = (fsyncs.get(), commits.get());
    let report = smr.bulk_load(drafts);
    let (fsyncs1, commits1) = (fsyncs.get(), commits.get());
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!((report.created, report.errors.len()), (10, 0));
    assert_eq!(fsyncs1 - fsyncs0, 1, "fsyncs for a 10-page load");
    assert_eq!(commits1 - commits0, 1, "WAL commits for a 10-page load");
}
