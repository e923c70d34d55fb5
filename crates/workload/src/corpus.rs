//! Swiss-Experiment-style synthetic metadata corpus.
//!
//! The paper's system runs over the Swiss Experiment Platform, "where various
//! research institutes share metadata as well as real-time environmental
//! observation data". That corpus is not available, so this module generates
//! a structurally faithful substitute: institutions running projects, projects
//! operating field sites, deployments of sensors at sites, each entity a
//! metadata page with (attribute, value) annotations, inter-page links and
//! free-text descriptions. Everything is deterministic from a seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sensormeta_smr::PageDraft;

/// One generated metadata page.
#[derive(Debug, Clone, PartialEq)]
pub struct PageSpec {
    /// Unique page title, e.g. `Deployment:wannengrat_wind_03`.
    pub title: String,
    /// Namespace (entity kind).
    pub namespace: &'static str,
    /// Free-text body for full-text search.
    pub body: String,
    /// Semantic (attribute, value) annotations.
    pub annotations: Vec<(String, String)>,
    /// Titles of pages this page links to (wiki links).
    pub links: Vec<String>,
    /// User tags attached to the page.
    pub tags: Vec<String>,
    /// Optional WGS84 position for map visualization.
    pub coords: Option<(f64, f64)>,
}

/// A generated page as the draft that loads it into a repository (the
/// coordinates are not carried: pages state them as annotations).
impl From<PageSpec> for PageDraft {
    fn from(p: PageSpec) -> PageDraft {
        PageDraft {
            title: p.title,
            namespace: p.namespace.to_owned(),
            body: p.body,
            annotations: p.annotations,
            links: p.links,
            tags: p.tags,
        }
    }
}

/// Scale knobs for the corpus generator.
#[derive(Debug, Clone, Copy)]
pub struct CorpusConfig {
    /// Number of research institutions.
    pub institutions: usize,
    /// Projects per institution (upper bound).
    pub projects_per_institution: usize,
    /// Field sites per project (upper bound).
    pub sites_per_project: usize,
    /// Sensor deployments per site (upper bound).
    pub deployments_per_site: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            institutions: 6,
            projects_per_institution: 3,
            sites_per_project: 4,
            deployments_per_site: 5,
            seed: 2011, // the paper's year
        }
    }
}

const INSTITUTIONS: &[&str] = &[
    "EPFL",
    "ETHZ",
    "WSL",
    "SLF",
    "EAWAG",
    "PSI",
    "UNIBE",
    "UNIL",
    "EMPA",
    "MeteoSwiss",
];
const SITE_NAMES: &[&str] = &[
    "Weissfluhjoch",
    "Wannengrat",
    "Davos",
    "Jungfraujoch",
    "Payerne",
    "Rietholzbach",
    "Grimsel",
    "Valais",
    "Engadin",
    "Lagrev",
    "Piora",
    "Claree",
];
const SENSOR_KINDS: &[(&str, &str)] = &[
    ("temperature", "C"),
    ("wind_speed", "m/s"),
    ("wind_direction", "deg"),
    ("snow_height", "cm"),
    ("humidity", "%"),
    ("radiation", "W/m2"),
    ("pressure", "hPa"),
    ("precipitation", "mm"),
    ("soil_moisture", "%"),
    ("discharge", "m3/s"),
];
const VENDORS: &[&str] = &[
    "Campbell",
    "Vaisala",
    "Sensirion",
    "Davis",
    "Lufft",
    "Kipp&Zonen",
];
const TOPICS: &[&str] = &[
    "snow",
    "avalanche",
    "hydrology",
    "climate",
    "permafrost",
    "alpine",
    "wind",
    "radiation",
    "forecast",
    "catchment",
];

/// Thematic tag groups: a project draws its tags from one group, so tags
/// within a group co-occur heavily across that project's pages (the
/// folksonomy structure the clique analysis of Section IV exploits). The
/// tag "alpine" bridges several groups, mirroring the paper's Fig. 5
/// multi-clique example.
const TAG_GROUPS: &[&[&str]] = &[
    &["snow", "avalanche", "winter", "alpine"],
    &["hydrology", "discharge", "catchment", "runoff"],
    &["wind", "storm", "foehn", "alpine"],
    &["radiation", "energy-balance", "albedo"],
    &["permafrost", "rockfall", "alpine"],
    &["climate", "forecast", "reanalysis"],
];

/// Generates the full corpus: a list of metadata pages covering institutions,
/// projects, field sites, and sensor deployments, cross-linked like wiki
/// pages.
pub fn generate_corpus(cfg: &CorpusConfig) -> Vec<PageSpec> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut pages = Vec::new();

    let institutions: Vec<String> = (0..cfg.institutions)
        .map(|i| INSTITUTIONS[i % INSTITUTIONS.len()].to_string())
        .collect();

    for inst in &institutions {
        let inst_title = format!("Institution:{inst}");
        let mut inst_links = Vec::new();
        let nproj = rng.gen_range(1..=cfg.projects_per_institution);
        let mut inst_tags = pick_tags(&mut rng, &mut Vec::new(), 2);
        inst_tags.push("institution".into());

        for pj in 0..nproj {
            let topic = TOPICS[rng.gen_range(0..TOPICS.len())];
            let mut group: Vec<&str> = TAG_GROUPS[rng.gen_range(0..TAG_GROUPS.len())].to_vec();
            let proj_name = format!("{}_{topic}_{pj}", inst.to_lowercase());
            let proj_title = format!("Project:{proj_name}");
            inst_links.push(proj_title.clone());
            let mut proj_links = vec![inst_title.clone()];
            let nsites = rng.gen_range(1..=cfg.sites_per_project);
            let mut site_titles = Vec::new();

            for _ in 0..nsites {
                let site = SITE_NAMES[rng.gen_range(0..SITE_NAMES.len())];
                let site_title = format!("Fieldsite:{site}");
                site_titles.push((site.to_string(), site_title.clone()));
                proj_links.push(site_title.clone());
                // Field sites may be generated repeatedly; the SMR loader
                // dedupes by title, so emitting duplicates is fine.
                let lat = 45.8 + rng.gen::<f64>() * 1.8;
                let lon = 6.8 + rng.gen::<f64>() * 3.4;
                let elevation = rng.gen_range(400..3600);
                pages.push(PageSpec {
                    title: site_title.clone(),
                    namespace: "Fieldsite",
                    body: format!(
                        "{site} field site in the Swiss Alps at {elevation} m elevation. \
                         Environmental monitoring station for {topic} research."
                    ),
                    annotations: vec![
                        ("hasElevation".into(), elevation.to_string()),
                        ("locatedInCountry".into(), "Switzerland".into()),
                        ("hasLatitude".into(), format!("{lat:.4}")),
                        ("hasLongitude".into(), format!("{lon:.4}")),
                    ],
                    links: vec![proj_title.clone()],
                    tags: {
                        let mut t = pick_tags(&mut rng, &mut group, 3);
                        t.push(site.to_lowercase());
                        t
                    },
                    coords: Some((lat, lon)),
                });

                let ndep = rng.gen_range(1..=cfg.deployments_per_site);
                for d in 0..ndep {
                    let (kind, unit) = SENSOR_KINDS[rng.gen_range(0..SENSOR_KINDS.len())];
                    let vendor = VENDORS[rng.gen_range(0..VENDORS.len())];
                    let dep_title = format!("Deployment:{}_{kind}_{d:02}", site.to_lowercase());
                    let interval = [1, 5, 10, 30, 60][rng.gen_range(0..5)];
                    pages.push(PageSpec {
                        title: dep_title.clone(),
                        namespace: "Deployment",
                        body: format!(
                            "A {vendor} {kind} sensor deployed at {site} for project \
                             {proj_name}. Sampling every {interval} minutes, reporting in {unit}. \
                             Maintained by {inst}."
                        ),
                        annotations: vec![
                            ("measuresQuantity".into(), kind.into()),
                            ("hasUnit".into(), unit.into()),
                            ("hasVendor".into(), vendor.into()),
                            ("hasSamplingIntervalMinutes".into(), interval.to_string()),
                            ("deployedAt".into(), site.into()),
                            ("partOfProject".into(), proj_name.clone()),
                        ],
                        links: vec![site_title.clone(), proj_title.clone()],
                        tags: {
                            let mut t = pick_tags(&mut rng, &mut group, 3);
                            t.push(kind.to_string());
                            t.push(vendor.to_lowercase());
                            t
                        },
                        coords: None,
                    });
                }
            }

            pages.push(PageSpec {
                title: proj_title.clone(),
                namespace: "Project",
                body: format!(
                    "Research project {proj_name} led by {inst}, studying {topic} \
                     processes across {} field sites in Switzerland.",
                    site_titles.len()
                ),
                annotations: vec![
                    ("ledBy".into(), inst.clone()),
                    ("hasTopic".into(), topic.into()),
                    ("hasSiteCount".into(), site_titles.len().to_string()),
                ],
                links: proj_links,
                tags: {
                    let mut t = pick_tags(&mut rng, &mut group, 3);
                    t.push(topic.to_string());
                    t
                },
                coords: None,
            });
        }

        pages.push(PageSpec {
            title: inst_title,
            namespace: "Institution",
            body: format!(
                "{inst} is a Swiss research institution participating in the Swiss \
                 Experiment platform with {nproj} environmental monitoring projects."
            ),
            annotations: vec![
                ("hasProjectCount".into(), nproj.to_string()),
                ("memberOfPlatform".into(), "SwissExperiment".into()),
            ],
            links: inst_links,
            tags: inst_tags,
            coords: None,
        });
    }

    // Dedupe by title, keeping the first occurrence (sites can repeat).
    let mut seen = std::collections::HashSet::new();
    pages.retain(|p| seen.insert(p.title.clone()));
    pages
}

/// Draws `n` *distinct* tags from the project's thematic `group` (a light
/// shuffle-take), occasionally appending one off-topic tag — the correlated
/// folksonomy structure real tagging produces.
fn pick_tags(rng: &mut StdRng, group: &mut Vec<&str>, n: usize) -> Vec<String> {
    let mut out: Vec<String> = if group.is_empty() {
        (0..n)
            .map(|_| TOPICS[rng.gen_range(0..TOPICS.len())].to_string())
            .collect()
    } else {
        // Partial Fisher–Yates: the first `n` slots become a random sample.
        for i in 0..n.min(group.len()) {
            let j = rng.gen_range(i..group.len());
            group.swap(i, j);
        }
        group.iter().take(n).map(|t| t.to_string()).collect()
    };
    if rng.gen_bool(0.15) {
        out.push(TOPICS[rng.gen_range(0..TOPICS.len())].to_string());
    }
    out
}

/// A keyword-query workload sampled from corpus vocabulary: returns `n`
/// queries of 1–3 terms with a power-law skew toward common topics.
pub fn query_workload(n: usize, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let vocab: Vec<&str> = TOPICS
        .iter()
        .chain(SENSOR_KINDS.iter().map(|(k, _)| k))
        .chain(SITE_NAMES.iter())
        .copied()
        .collect();
    (0..n)
        .map(|_| {
            let terms = rng.gen_range(1..=3);
            (0..terms)
                .map(|_| {
                    // Zipf-ish skew: square the uniform to favor the head.
                    let u: f64 = rng.gen();
                    let ix = ((u * u) * vocab.len() as f64) as usize;
                    vocab[ix.min(vocab.len() - 1)]
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic() {
        let cfg = CorpusConfig::default();
        let a = generate_corpus(&cfg);
        let b = generate_corpus(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn corpus_has_all_namespaces_and_unique_titles() {
        let pages = generate_corpus(&CorpusConfig::default());
        let mut titles = std::collections::HashSet::new();
        for p in &pages {
            assert!(titles.insert(&p.title), "duplicate title {}", p.title);
        }
        for ns in ["Institution", "Project", "Fieldsite", "Deployment"] {
            assert!(
                pages.iter().any(|p| p.namespace == ns),
                "missing namespace {ns}"
            );
        }
        assert!(
            pages.len() > 50,
            "default corpus too small: {}",
            pages.len()
        );
    }

    #[test]
    fn links_point_to_existing_pages() {
        let pages = generate_corpus(&CorpusConfig::default());
        let titles: std::collections::HashSet<&str> =
            pages.iter().map(|p| p.title.as_str()).collect();
        for p in &pages {
            for l in &p.links {
                assert!(
                    titles.contains(l.as_str()),
                    "{} links to missing {l}",
                    p.title
                );
            }
        }
    }

    #[test]
    fn deployments_are_annotated_and_tagged() {
        let pages = generate_corpus(&CorpusConfig::default());
        for p in pages.iter().filter(|p| p.namespace == "Deployment") {
            let attrs: Vec<&str> = p.annotations.iter().map(|(a, _)| a.as_str()).collect();
            assert!(attrs.contains(&"measuresQuantity"));
            assert!(attrs.contains(&"hasUnit"));
            assert!(!p.tags.is_empty());
            assert!(!p.links.is_empty());
        }
    }

    #[test]
    fn fieldsites_have_coordinates_in_switzerland() {
        let pages = generate_corpus(&CorpusConfig::default());
        for p in pages.iter().filter(|p| p.namespace == "Fieldsite") {
            let (lat, lon) = p.coords.expect("fieldsites carry coordinates");
            assert!((45.0..48.5).contains(&lat));
            assert!((5.5..11.0).contains(&lon));
        }
    }

    #[test]
    fn scaling_produces_more_pages() {
        let small = generate_corpus(&CorpusConfig {
            institutions: 2,
            ..CorpusConfig::default()
        });
        let large = generate_corpus(&CorpusConfig {
            institutions: 10,
            projects_per_institution: 5,
            ..CorpusConfig::default()
        });
        assert!(large.len() > small.len() * 2);
    }

    #[test]
    fn query_workload_deterministic_and_nonempty() {
        let a = query_workload(50, 3);
        let b = query_workload(50, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        assert!(a.iter().all(|q| !q.is_empty()));
    }
}
