//! The facts table: what ranking, filtering and faceting read of a page.
//!
//! A search weighs hundreds of candidate pages but shows a few dozen. Of a
//! candidate it needs the namespace (ACL and namespace filters), the
//! coordinates (region filter) and the annotation pairs (facets, attribute
//! sort); the body only matters for the snippets of the results shown.
//! [`Facts`] holds the former for every page, dense and dictionary-encoded,
//! built by [`QueryEngine::rebuild`](crate::QueryEngine::rebuild) from the
//! page rows it reads anyway, so a search ranks and facets without reading
//! the relational store.

use crate::error::{QueryError, Result};
use sensormeta_smr::Page;
use std::collections::HashMap;

/// One page's facts, at its dense page id.
#[derive(Debug)]
pub(crate) struct PageFacts {
    /// Namespace id (see [`Facts::namespace`]).
    pub namespace: u32,
    /// Parsed `hasLatitude`/`hasLongitude`, when both are present.
    pub coords: Option<(f64, f64)>,
    /// `(attribute id, value id)` per annotation, in the order
    /// [`Smr::get_page`](sensormeta_smr::Smr::get_page) returns them,
    /// duplicates kept.
    pub pairs: Box<[(u32, u32)]>,
}

/// Per-page facts for every page of one generation, plus the string
/// dictionaries their ids point into.
#[derive(Debug, Default)]
pub(crate) struct Facts {
    pages: Vec<PageFacts>,
    namespaces: Vec<String>,
    attributes: Vec<String>,
    values: Vec<String>,
}

impl Facts {
    /// The facts of a dense page id.
    pub fn page(&self, id: usize) -> &PageFacts {
        &self.pages[id]
    }

    /// Every namespace name, indexed by namespace id.
    pub fn namespaces(&self) -> &[String] {
        &self.namespaces
    }

    /// Namespace name of an id.
    pub fn namespace(&self, id: u32) -> &str {
        &self.namespaces[id as usize]
    }

    /// Attribute name of an id.
    pub fn attribute(&self, id: u32) -> &str {
        &self.attributes[id as usize]
    }

    /// Annotation value of an id.
    pub fn value(&self, id: u32) -> &str {
        &self.values[id as usize]
    }

    /// The value of a page's first annotation whose attribute equals `attr`
    /// ignoring ASCII case.
    pub fn annotation_value(&self, page: usize, attr: &str) -> Option<&str> {
        self.pages[page]
            .pairs
            .iter()
            .find(|&&(a, _)| self.attribute(a).eq_ignore_ascii_case(attr))
            .map(|&(_, v)| self.value(v))
    }

    /// Attribute ids per page, duplicates kept: the recommender's
    /// page-property incidence.
    pub fn page_attributes(&self) -> Vec<Vec<u32>> {
        self.pages
            .iter()
            .map(|p| p.pairs.iter().map(|&(a, _)| a).collect())
            .collect()
    }
}

/// Builds [`Facts`] one page at a time, in dense id order. Ids are handed
/// out in first-seen order.
#[derive(Default)]
pub(crate) struct FactsBuilder {
    facts: Facts,
    namespace_ids: HashMap<String, u32>,
    attribute_ids: HashMap<String, u32>,
    value_ids: HashMap<String, u32>,
}

impl FactsBuilder {
    /// Appends the facts of the page at the next dense id.
    pub fn push(&mut self, page: &Page) -> Result<()> {
        let f = &mut self.facts;
        let namespace = intern(&mut self.namespace_ids, &mut f.namespaces, &page.namespace)?;
        let pairs = page
            .annotations
            .iter()
            .map(|(a, v)| {
                Ok((
                    intern(&mut self.attribute_ids, &mut f.attributes, a)?,
                    intern(&mut self.value_ids, &mut f.values, v)?,
                ))
            })
            .collect::<Result<_>>()?;
        f.pages.push(PageFacts {
            namespace,
            coords: extract_coords(&page.annotations),
            pairs,
        });
        Ok(())
    }

    /// The finished table; the string → id maps are dropped.
    pub fn finish(self) -> Facts {
        self.facts
    }
}

fn intern(ids: &mut HashMap<String, u32>, names: &mut Vec<String>, s: &str) -> Result<u32> {
    if let Some(&id) = ids.get(s) {
        return Ok(id);
    }
    let id = u32::try_from(names.len())
        .map_err(|_| QueryError::Internal("facts dictionary exceeds u32 ids".into()))?;
    ids.insert(s.to_owned(), id);
    names.push(s.to_owned());
    Ok(id)
}

fn extract_coords(annotations: &[(String, String)]) -> Option<(f64, f64)> {
    let value = |attr: &str| {
        annotations
            .iter()
            .find(|(a, _)| a.eq_ignore_ascii_case(attr))
            .map(|(_, v)| v.as_str())
    };
    let lat = value("hasLatitude")?.parse().ok()?;
    let lon = value("hasLongitude")?.parse().ok()?;
    Some((lat, lon))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(namespace: &str, annotations: &[(&str, &str)]) -> Page {
        Page {
            id: 0,
            title: String::new(),
            namespace: namespace.into(),
            body: String::new(),
            revision: 1,
            annotations: annotations
                .iter()
                .map(|&(a, v)| (a.to_owned(), v.to_owned()))
                .collect(),
            links: Vec::new(),
            tags: Vec::new(),
        }
    }

    #[test]
    fn coords_extraction() {
        let ann = vec![
            ("hasLatitude".to_string(), "46.8".to_string()),
            ("hasLongitude".to_string(), "9.8".to_string()),
        ];
        assert_eq!(extract_coords(&ann), Some((46.8, 9.8)));
        assert_eq!(extract_coords(&ann[..1]), None);
        let bad = vec![
            ("hasLatitude".to_string(), "north".to_string()),
            ("hasLongitude".to_string(), "9.8".to_string()),
        ];
        assert_eq!(extract_coords(&bad), None);
    }

    #[test]
    fn dictionaries_intern_in_first_seen_order() {
        let mut b = FactsBuilder::default();
        b.push(&page(
            "Fieldsite",
            &[("hasElevation", "2693"), ("kind", "site")],
        ))
        .unwrap();
        b.push(&page("Deployment", &[("kind", "site"), ("kind", "site")]))
            .unwrap();
        let facts = b.finish();
        assert_eq!(facts.namespaces(), ["Fieldsite", "Deployment"]);
        assert_eq!(&*facts.page(0).pairs, [(0, 0), (1, 1)]);
        assert_eq!(&*facts.page(1).pairs, [(1, 1), (1, 1)], "duplicates kept");
        assert_eq!(facts.page_attributes(), vec![vec![0, 1], vec![1, 1]]);
        assert_eq!(facts.namespace(facts.page(1).namespace), "Deployment");
    }

    #[test]
    fn annotation_value_takes_first_case_insensitive_match() {
        let mut b = FactsBuilder::default();
        b.push(&page(
            "Fieldsite",
            &[("Elevation", "10"), ("elevation", "20")],
        ))
        .unwrap();
        let facts = b.finish();
        assert_eq!(facts.annotation_value(0, "ELEVATION"), Some("10"));
        assert_eq!(facts.annotation_value(0, "missing"), None);
    }
}
