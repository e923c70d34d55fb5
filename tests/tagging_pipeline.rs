//! E5 — the Fig. 4 Dynamic Tagging System pipeline, driven end to end from
//! SMR-stored tags through cache, matrix transformation, clique enumeration
//! and font-size calculation, to a rendered cloud.

use sensormeta::smr::{PageDraft, Smr};
use sensormeta::tagging::{
    compute_cloud, maximal_cliques, similarity_graph, similarity_matrix, BkVariant, CloudCache,
    CloudParams, FontScale, TagStore,
};
use sensormeta::viz::render_tag_cloud;
use sensormeta_tx::Mvcc;
use std::convert::Infallible;

/// SMR populated so tags form two co-occurrence groups plus a bridge tag.
fn tagged_smr() -> Smr {
    let mut smr = Smr::new();
    for (i, (tags, ns)) in [
        (vec!["snow", "avalanche", "winter"], "Deployment"),
        (vec!["snow", "avalanche", "winter"], "Deployment"),
        (vec!["snow", "avalanche"], "Deployment"),
        (vec!["hydrology", "discharge", "snow"], "Fieldsite"),
        (vec!["hydrology", "discharge"], "Fieldsite"),
        (vec!["hydrology", "discharge"], "Fieldsite"),
    ]
    .into_iter()
    .enumerate()
    {
        let mut draft = PageDraft::new(format!("{ns}:page{i}"), ns);
        for t in tags {
            draft = draft.tag(t);
        }
        smr.create_page(draft).unwrap();
    }
    smr
}

#[test]
fn smr_to_cloud_pipeline() {
    let smr = tagged_smr();
    // Parser module: fetch tags from the SMR.
    let mut store = TagStore::new();
    let pairs = smr.all_tags().unwrap();
    store.ingest(pairs.iter().map(|(p, t)| (p.as_str(), t.as_str())));
    assert_eq!(store.tag_count(), 5);

    // Matrix Transformation: cosine similarities.
    let (tags, sets) = store.incidence();
    let matrix = similarity_matrix(&sets);
    let ix = |name: &str| tags.iter().position(|t| t == name).unwrap();
    // snow and avalanche co-occur on 3 of snow's 4 pages.
    assert!(matrix.get(ix("snow"), ix("avalanche")) > 0.8);
    // snow also touches one hydrology page.
    assert!(matrix.get(ix("snow"), ix("hydrology")) > 0.0);
    assert!(matrix.get(ix("snow"), ix("hydrology")) < 0.5);

    // Graph + Max Clique modules.
    let graph = similarity_graph(&sets, 0.5);
    let (cliques, stats) = maximal_cliques(&graph, BkVariant::Pivot);
    assert!(stats.calls > 0);
    let multi: Vec<&Vec<usize>> = cliques.iter().filter(|c| c.len() > 1).collect();
    assert_eq!(multi.len(), 2, "two co-occurrence groups: {cliques:?}");

    // Font Size Calculation (Eq. 6) through the assembled cloud.
    let cloud = compute_cloud(&store, &CloudParams::default());
    let snow = cloud.entries.iter().find(|e| e.tag == "snow").unwrap();
    let winter = cloud.entries.iter().find(|e| e.tag == "winter").unwrap();
    assert!(snow.count > winter.count);
    assert!(snow.font_size >= winter.font_size);
    assert!(cloud.entries.iter().all(|e| e.font_size >= 1));

    // Eq. 6 extrema directly: the most frequent tag carries f_max plus its
    // clique bonus.
    let counts: Vec<usize> = cloud.entries.iter().map(|e| e.count).collect();
    let scale = FontScale::from_counts(&counts, cloud.cliques.len(), 10);
    assert_eq!(scale.t_max, snow.count);

    // Renderable output.
    let svg = render_tag_cloud("pipeline", &cloud);
    assert!(svg.contains("snow"));
}

#[test]
fn cache_module_cuts_recomputation() {
    let smr = tagged_smr();
    let mut store = TagStore::new();
    let pairs = smr.all_tags().unwrap();
    store.ingest(pairs.iter().map(|(p, t)| (p.as_str(), t.as_str())));
    let tags = Mvcc::new(store);

    let cache = CloudCache::new();
    let params = CloudParams::default();
    for _ in 0..10 {
        let snap = tags.snapshot();
        let _ = cache.get(&snap, snap.seq(), &params).unwrap();
    }
    assert_eq!(cache.stats().misses, 1);
    assert_eq!(cache.stats().hits, 9);

    // A new user tag, committed as a new version, invalidates exactly once.
    tags.commit(|s: &mut TagStore| {
        s.add("Deployment:page0", "freshly-tagged");
        Ok::<(), Infallible>(())
    })
    .unwrap();
    let snap = tags.snapshot();
    let (cloud, _) = cache.get(&snap, snap.seq(), &params).unwrap();
    let _ = cache.get(&snap, snap.seq(), &params).unwrap();
    assert_eq!(cache.stats().misses, 2);
    assert_eq!(cache.stats().hits, 10);
    assert!(cloud.entries.iter().any(|e| e.tag == "freshly-tagged"));
}

#[test]
fn modularity_swapping_the_clique_module() {
    // The paper: "by replacing the Max Clique Algorithm module we can focus
    // on other graph properties". All three BK variants must be drop-in
    // equivalent for the cloud's content.
    let smr = tagged_smr();
    let mut store = TagStore::new();
    let pairs = smr.all_tags().unwrap();
    store.ingest(pairs.iter().map(|(p, t)| (p.as_str(), t.as_str())));
    let reference = compute_cloud(&store, &CloudParams::default());
    for variant in [BkVariant::Naive, BkVariant::Degeneracy] {
        let other = compute_cloud(
            &store,
            &CloudParams {
                variant,
                ..CloudParams::default()
            },
        );
        assert_eq!(reference.entries, other.entries, "{variant:?}");
    }
}
