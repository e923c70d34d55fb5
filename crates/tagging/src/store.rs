//! Tag storage and the Parser-module interface.
//!
//! In Fig. 4 the Parser module "connects to the SMR, exchanging data,
//! fetching and storing tags". Here the store ingests (page, tag) pairs from
//! any source (the SMR's tag table, user input, annotation values — the
//! paper notes "as tags can also be considered the values of metadata
//! properties") and maintains per-tag frequencies and per-page incidence.

use std::collections::{BTreeMap, BTreeSet};

/// In-memory tag store.
#[derive(Debug, Default, Clone)]
pub struct TagStore {
    /// tag → set of pages carrying it.
    tag_pages: BTreeMap<String, BTreeSet<String>>,
    /// page → set of tags.
    page_tags: BTreeMap<String, BTreeSet<String>>,
}

impl TagStore {
    /// Creates an empty store.
    pub fn new() -> TagStore {
        TagStore::default()
    }

    /// Adds one (page, tag) assignment. Tags are normalized to lowercase.
    /// Returns true if it was new.
    pub fn add(&mut self, page: &str, tag: &str) -> bool {
        let tag = tag.trim().to_lowercase();
        if tag.is_empty() || page.is_empty() {
            return false;
        }
        let fresh = self
            .tag_pages
            .entry(tag.clone())
            .or_default()
            .insert(page.to_owned());
        if fresh {
            self.page_tags
                .entry(page.to_owned())
                .or_default()
                .insert(tag);
        }
        fresh
    }

    /// Bulk ingestion from (page, tag) pairs — the Parser module's SMR fetch.
    pub fn ingest<'a>(&mut self, pairs: impl IntoIterator<Item = (&'a str, &'a str)>) -> usize {
        pairs.into_iter().filter(|(p, t)| self.add(p, t)).count()
    }

    /// Removes one assignment. Returns true if it existed.
    pub fn remove(&mut self, page: &str, tag: &str) -> bool {
        let tag = tag.trim().to_lowercase();
        let removed = self.tag_pages.get_mut(&tag).is_some_and(|s| s.remove(page));
        if removed {
            if self.tag_pages[&tag].is_empty() {
                self.tag_pages.remove(&tag);
            }
            if let Some(s) = self.page_tags.get_mut(page) {
                s.remove(&tag);
                if s.is_empty() {
                    self.page_tags.remove(page);
                }
            }
        }
        removed
    }

    /// Distinct tags, sorted.
    pub fn tags(&self) -> Vec<&str> {
        self.tag_pages.keys().map(String::as_str).collect()
    }

    /// Frequency of a tag: "the number of entries that are assigned to each
    /// page" — i.e., how many pages carry it.
    pub fn frequency(&self, tag: &str) -> usize {
        self.tag_pages.get(tag).map(BTreeSet::len).unwrap_or(0)
    }

    /// Pages carrying a tag.
    pub fn pages_of(&self, tag: &str) -> Vec<&str> {
        self.tag_pages
            .get(tag)
            .map(|s| s.iter().map(String::as_str).collect())
            .unwrap_or_default()
    }

    /// Tags of a page.
    pub fn tags_of(&self, page: &str) -> Vec<&str> {
        self.page_tags
            .get(page)
            .map(|s| s.iter().map(String::as_str).collect())
            .unwrap_or_default()
    }

    /// Number of distinct tags.
    pub fn tag_count(&self) -> usize {
        self.tag_pages.len()
    }

    /// The tag-page incidence as (tags, sorted page-id lists over a dense
    /// page index) — input to the Matrix Transformation module. Page ids in
    /// each list are strictly ascending (the `BTreeSet` of page names maps
    /// through a monotone index), which the sorted-merge cosine kernel in
    /// [`crate::similarity::cosine`] relies on.
    pub fn incidence(&self) -> (Vec<String>, Vec<Vec<usize>>) {
        let page_index: BTreeMap<&str, usize> = self
            .page_tags
            .keys()
            .enumerate()
            .map(|(i, p)| (p.as_str(), i))
            .collect();
        let tags: Vec<String> = self.tag_pages.keys().cloned().collect();
        let sets = tags
            .iter()
            .map(|t| {
                self.tag_pages[t]
                    .iter()
                    .map(|p| page_index[p.as_str()])
                    .collect()
            })
            .collect();
        (tags, sets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_frequency() {
        let mut s = TagStore::new();
        assert!(s.add("PageA", "Snow"));
        assert!(!s.add("PageA", "snow"), "case-insensitive dedupe");
        assert!(s.add("PageB", "snow"));
        assert_eq!(s.frequency("snow"), 2);
        assert_eq!(s.tags_of("PageA"), vec!["snow"]);
    }

    #[test]
    fn remove_cleans_up() {
        let mut s = TagStore::new();
        s.add("P", "x");
        assert!(s.remove("P", "x"));
        assert!(!s.remove("P", "x"));
        assert_eq!(s.tag_count(), 0);
        assert!(s.tags_of("P").is_empty());
    }

    #[test]
    fn blank_inputs_rejected() {
        let mut s = TagStore::new();
        assert!(!s.add("P", "  "));
        assert!(!s.add("", "tag"));
        assert_eq!(s.tag_count(), 0);
    }

    #[test]
    fn incidence_is_consistent() {
        let mut s = TagStore::new();
        s.ingest([("A", "snow"), ("B", "snow"), ("B", "wind"), ("C", "wind")]);
        let (tags, sets) = s.incidence();
        assert_eq!(tags, vec!["snow", "wind"]);
        assert_eq!(sets[0].len(), 2);
        assert_eq!(sets[1].len(), 2);
        // Page lists are sorted ascending, as the cosine kernel requires.
        assert!(sets.iter().all(|s| s.windows(2).all(|w| w[0] < w[1])));
        // snow ∩ wind = {B}: exactly one shared page.
        let shared = sets[0].iter().filter(|p| sets[1].contains(p)).count();
        assert_eq!(shared, 1);
    }
}
