//! Whole-corpus reads against their per-page oracles, after random create,
//! update and delete sequences whose annotation values and links sometimes
//! name pages:
//!
//! * `Smr::pages()` equals `get_page` for every title, in title order, with
//!   annotations, links and tags in the same order;
//! * the RDF mirror the writes keep incrementally equals the one
//!   `rebuild_mirror()` derives from all pages at once, so a value naming a
//!   page is an IRI however the pages were written.

use proptest::prelude::*;
use sensormeta_smr::{PageDraft, Smr};

const TITLES: [&str; 6] = [
    "Site:a",
    "Site:b",
    "Deployment:c",
    "Deployment:d",
    "Person:e",
    "Site:f",
];
/// `title` and `linksTo` also name the mirror's built-in predicates.
const ATTRIBUTES: [&str; 5] = ["deployedAt", "hasValue", "seeAlso", "title", "linksTo"];
/// Annotation values and link targets: every title, a case variant of one,
/// a title that is never written, and plain values.
const VALUES: [&str; 11] = [
    "Site:a",
    "Site:b",
    "Deployment:c",
    "Deployment:d",
    "Person:e",
    "Site:f",
    "site:a",
    "Site:never",
    "5",
    "snow",
    "",
];

/// One write: `(kind, page, annotations, links, tags)`. Kind 0 creates,
/// 1 updates, 2 deletes; writes that do not apply are no-ops.
type Write = (u8, usize, Vec<(usize, usize)>, Vec<usize>, Vec<usize>);

fn writes() -> impl Strategy<Value = Vec<Write>> {
    prop::collection::vec(
        (
            0u8..3,
            0usize..TITLES.len(),
            prop::collection::vec((0usize..ATTRIBUTES.len(), 0usize..VALUES.len()), 0..5),
            prop::collection::vec(0usize..VALUES.len(), 0..3),
            prop::collection::vec(0usize..VALUES.len(), 0..3),
        ),
        1..24,
    )
}

fn apply(smr: &mut Smr, writes: &[Write]) {
    for (kind, page, annotations, links, tags) in writes {
        let title = TITLES[*page];
        let mut draft = PageDraft::new(title, "Main").body(format!("{title} body"));
        draft.annotations = annotations
            .iter()
            .map(|&(a, v)| (ATTRIBUTES[a].to_owned(), VALUES[v].to_owned()))
            .collect();
        draft.links = links.iter().map(|&v| VALUES[v].to_owned()).collect();
        draft.tags = tags.iter().map(|&v| VALUES[v].to_owned()).collect();
        // A create of an existing title or an update of a missing one fails
        // and changes nothing, which is all this sequence needs.
        let _ = match kind {
            0 => smr.create_page(draft).map(|_| ()),
            1 => smr.update_page(draft).map(|_| ()),
            _ => smr.delete_page(title).map(|_| ()),
        };
    }
}

/// The mirror as sorted N-Triples-style lines (term ids differ between two
/// mirrors, the terms do not).
fn triples(smr: &Smr) -> Vec<String> {
    let mut out: Vec<String> = smr
        .rdf()
        .match_terms(None, None, None)
        .into_iter()
        .map(|(s, p, o)| format!("{s} {p} {o}"))
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pages_equal_get_page_for_every_title(writes in writes()) {
        let mut smr = Smr::new();
        apply(&mut smr, &writes);
        let oracle: Vec<_> = smr
            .page_titles()
            .expect("titles")
            .iter()
            .map(|t| smr.get_page(t).expect("get_page").expect("listed page exists"))
            .collect();
        prop_assert_eq!(smr.pages().expect("pages"), oracle);
    }

    #[test]
    fn live_mirror_equals_the_rebuilt_mirror(writes in writes()) {
        let mut smr = Smr::new();
        apply(&mut smr, &writes);
        let live = triples(&smr);
        smr.rebuild_mirror().expect("rebuild mirror");
        prop_assert_eq!(live, triples(&smr));
    }
}
