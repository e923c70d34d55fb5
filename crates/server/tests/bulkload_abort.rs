//! A `/bulkload` whose commit fails keeps nothing: the server answers 500
//! with every page of the load reported, and publishes no new version, so
//! no page of it is served or found.

use sensormeta_query::QueryEngine;
use sensormeta_relstore::vfs::{FaultPlan, FaultVfs, MemVfs, INJECTED_FAULT};
use sensormeta_relstore::DurabilityOptions;
use sensormeta_server::http::{read_request, Response};
use sensormeta_server::App;
use sensormeta_smr::{PageDraft, Smr};
use std::path::Path;
use std::sync::Arc;

const PATH: &str = "repo.snap";

/// A durable repository over `vfs` holding one page.
fn open(vfs: &FaultVfs) -> Smr {
    let (mut smr, _) = Smr::open_durable_with(
        Arc::new(vfs.clone()),
        Path::new(PATH),
        DurabilityOptions::default(),
    )
    .expect("open durable");
    smr.create_page(PageDraft::new("Fieldsite:Weissfluhjoch", "Fieldsite").body("alpine site"))
        .expect("first page");
    smr
}

fn handle(app: &App, raw: &str) -> Response {
    app.handle(&read_request(&mut raw.as_bytes()).expect("request parses"))
}

#[test]
fn a_bulkload_whose_commit_fails_answers_500_and_publishes_nothing() {
    // Fail the first I/O operation after the open: the load's commit write.
    let probe = FaultVfs::new(MemVfs::new(), FaultPlan::default());
    drop(open(&probe));
    let vfs = FaultVfs::new(
        MemVfs::new(),
        FaultPlan {
            fail_at_op: Some(probe.ops() + 1),
            ..FaultPlan::default()
        },
    );
    let app = App::new(QueryEngine::open(open(&vfs)).expect("engine"));

    let load = "{\"title\":\"Deployment:zqxabort_1\",\"body\":\"zqxabort probe\"}\n\
                {\"title\":\"Deployment:zqxabort_2\",\"body\":\"zqxabort probe\"}\n";
    let resp = handle(
        &app,
        &format!(
            "POST /bulkload HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{load}",
            load.len()
        ),
    );
    let body = String::from_utf8_lossy(&resp.body).into_owned();
    assert_eq!(resp.status, 500, "{body}");
    assert!(body.contains("\"aborted\":true"), "{body}");
    assert!(body.contains("\"created\":0"), "{body}");
    assert!(
        body.contains("zqxabort_1") && body.contains("zqxabort_2"),
        "{body}"
    );
    assert!(body.contains(INJECTED_FAULT), "{body}");

    let page = handle(
        &app,
        "GET /page/Deployment:zqxabort_1 HTTP/1.1\r\nHost: t\r\n\r\n",
    );
    assert_eq!(page.status, 404, "an aborted page is served");
    let search = handle(&app, "GET /search?q=zqxabort HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(search.status, 200);
    let hits = String::from_utf8_lossy(&search.body).into_owned();
    assert!(
        !hits.contains("zqxabort_1"),
        "an aborted page is found: {hits}"
    );
    let kept = handle(
        &app,
        "GET /page/Fieldsite:Weissfluhjoch HTTP/1.1\r\nHost: t\r\n\r\n",
    );
    assert_eq!(kept.status, 200, "the page before the load is still served");
}
