//! `QueryEngine::apply` ≡ `QueryEngine::rebuild`: random sequences of loads
//! over the default corpus — upserts that change bodies, annotations,
//! links and tags; new titles sorting before, between and after the
//! existing ones, some of them already named by earlier annotations and
//! links; deletions — each followed by `apply` of the titles it touched.
//! After every load, every derived structure of the applied engine must
//! equal a fresh rebuild's (PageRank bit for bit), and `search_uncached`
//! over the golden forms must give byte-identical output.

mod support;

use proptest::prelude::*;
use sensormeta_query::{QueryEngine, RankBlend};
use sensormeta_smr::{PageDraft, Smr};
use sensormeta_workload::{generate_corpus, CorpusConfig};
use std::path::PathBuf;
use support::golden_forms::{forms, restricted_acl};

/// Titles no page has at the start: existing pages come to name them,
/// later loads create them. They sort between the existing `Fieldsite:`
/// pages.
const FUTURE: [&str; 4] = [
    "Fieldsite:future_0",
    "Fieldsite:future_1",
    "Fieldsite:future_2",
    "Fieldsite:zz_future_3",
];

/// Words the rewritten bodies draw from: some the corpus has, some new.
const WORDS: [&str; 6] = [
    "snow",
    "glacier",
    "permafrost",
    "temperature",
    "zephyr",
    "sensor",
];

fn corpus_smr() -> Smr {
    let mut smr = Smr::new();
    let report = smr.bulk_load(
        generate_corpus(&CorpusConfig::default())
            .into_iter()
            .map(PageDraft::from),
    );
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    smr
}

/// One write of a load, drawn as `(kind, a, b, c)`.
type Op = (u8, u16, u16, u16);

/// The drafts and deletions of one load over the repository `smr`, and
/// every title they touch.
fn plan(smr: &Smr, ops: &[Op]) -> (Vec<PageDraft>, Vec<String>, Vec<String>) {
    let titles = smr.page_titles().expect("titles");
    let existing = |i: u16| titles[usize::from(i) % titles.len()].clone();
    let word = |i: u16| WORDS[usize::from(i) % WORDS.len()];
    let future = |i: u16| FUTURE[usize::from(i) % FUTURE.len()];
    let (mut drafts, mut deletes) = (Vec::new(), Vec::new());
    for &(kind, a, b, c) in ops {
        match kind {
            // Upsert an existing title with a changed body and some of its
            // annotations, links and tags changed.
            0..=2 => {
                let page = smr.get_page(&existing(a)).expect("read").expect("page");
                let mut d = PageDraft::from(page);
                d.body.push_str(&format!(" revised {}", word(b)));
                if c & 1 != 0 {
                    d.annotations.push(("relatedTo".into(), future(b).into()));
                }
                if c & 2 != 0 {
                    d.annotations
                        .push(("measuresQuantity".into(), word(b >> 3).into()));
                }
                if c & 4 != 0 {
                    d.annotations.truncate(usize::from(b) % 3);
                }
                if c & 8 != 0 {
                    d.links.push(future(b >> 2).into());
                }
                if c & 16 != 0 {
                    d.links.push(existing(b));
                }
                if c & 32 != 0 {
                    d.links.clear();
                }
                if c & 64 != 0 {
                    d.tags = vec![format!("tag{}", b % 5)];
                }
                if c & 128 != 0 {
                    d.annotations.push(("locatedAt".into(), existing(b >> 1)));
                }
                drafts.push(d);
            }
            // Create a title sorting before, between or after the others.
            3 | 4 => {
                let title = match c % 3 {
                    0 => format!("Aardvark:new_{}", b % 4),
                    1 => future(b).to_owned(),
                    _ => format!("Zeta:new_{}", b % 4),
                };
                let ns = title.split(':').next().unwrap_or_default().to_owned();
                drafts.push(
                    PageDraft::new(title, ns)
                        .body(format!("a new {} page", word(b)))
                        .annotate("locatedAt", existing(a))
                        .annotate("relatedTo", future(c))
                        .link(existing(a >> 1))
                        .link(future(a))
                        .tag(word(c)),
                );
            }
            // Delete an existing title.
            _ => deletes.push(existing(a)),
        }
    }
    let mut touched: Vec<String> = drafts.iter().map(|d| d.title.clone()).collect();
    touched.extend(deletes.iter().cloned());
    // A title no page has: `apply` must take it as deleted and move on.
    touched.push("Nowhere:at_all".into());
    (drafts, deletes, touched)
}

/// Writes one load to `engine`'s repository and applies it.
fn load(engine: &mut QueryEngine, drafts: &[PageDraft], deletes: &[String], touched: &[String]) {
    let report = engine.smr_mut().bulk_load(drafts.iter().cloned());
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    for title in deletes {
        engine.smr_mut().delete_page(title).expect("delete");
    }
    engine.apply(touched).expect("apply");
}

/// `applied` against a fresh rebuild of its own repository.
fn assert_same_as_rebuild(applied: &QueryEngine, fresh: &QueryEngine, after: usize) {
    assert_eq!(
        applied.derived_differences(fresh),
        Vec::<&str>::new(),
        "derived structures differ from a rebuild after load {after}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn apply_derives_what_rebuild_derives(
        loads in prop::collection::vec(
            prop::collection::vec((0u8..6, any::<u16>(), any::<u16>(), any::<u16>()), 1..8),
            1..5,
        ),
    ) {
        let smr = corpus_smr();
        let mut open = QueryEngine::open(smr.clone_reader()).expect("open engine");
        let mut restricted =
            QueryEngine::build(smr, restricted_acl(), RankBlend::default()).expect("restricted");
        for (n, ops) in loads.iter().enumerate() {
            let (drafts, deletes, touched) = plan(open.smr(), ops);
            load(&mut open, &drafts, &deletes, &touched);
            load(&mut restricted, &drafts, &deletes, &touched);
            let fresh_open = QueryEngine::open(open.smr().clone_reader()).expect("rebuild");
            let fresh_restricted = QueryEngine::build(
                restricted.smr().clone_reader(),
                restricted_acl(),
                RankBlend::default(),
            )
            .expect("rebuild");
            assert_same_as_rebuild(&open, &fresh_open, n);
            assert_same_as_rebuild(&restricted, &fresh_restricted, n);
            for (name, acl, user, form) in forms() {
                let (applied, fresh) = if acl {
                    (&restricted, &fresh_restricted)
                } else {
                    (&open, &fresh_open)
                };
                let render = |engine: &QueryEngine| {
                    engine
                        .search_uncached(&form, user)
                        .map(|out| serde_json::to_string(&out).expect("serialize"))
                        .map_err(|e| e.to_string())
                };
                prop_assert_eq!(render(applied), render(fresh), "{} after load {}", name, n);
            }
        }
    }
}

/// The copied forms are the golden suite's: over the default corpus they
/// reproduce its fixture line for line.
#[test]
fn golden_forms_reproduce_the_golden_fixture() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_search.txt");
    let expected = std::fs::read_to_string(path).expect("read golden fixture");
    let smr = corpus_smr();
    let open = QueryEngine::open(smr.clone_reader()).expect("open engine");
    let restricted =
        QueryEngine::build(smr, restricted_acl(), RankBlend::default()).expect("restricted");
    let actual: Vec<String> = forms()
        .into_iter()
        .map(|(name, acl, user, form)| {
            let engine = if acl { &restricted } else { &open };
            let out = engine.search_uncached(&form, user).expect("search");
            format!(
                "{name}\t{}",
                serde_json::to_string(&out).expect("serialize")
            )
        })
        .collect();
    assert_eq!(actual, expected.lines().collect::<Vec<_>>());
}
