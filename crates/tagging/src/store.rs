//! Tag storage and the Parser-module interface.
//!
//! In Fig. 4 the Parser module "connects to the SMR, exchanging data,
//! fetching and storing tags". Here the store ingests (page, tag) pairs from
//! any source (the SMR's tag table, user input, annotation values — the
//! paper notes "as tags can also be considered the values of metadata
//! properties") and maintains per-tag frequencies and per-page incidence.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A set of names, shared between store versions until one of them
/// changes it.
type Names = Arc<HashSet<Arc<str>>>;

/// In-memory tag store.
///
/// Every per-tag and per-page set sits behind an `Arc`, and every name is
/// an `Arc<str>` interned once: cloning the store — what an MVCC commit
/// does before each change — copies two hash tables of pointers, and a
/// change then copies only the sets it touches. The sorted views
/// ([`TagStore::tags`], [`TagStore::incidence`], …) sort when read.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TagStore {
    /// tag → the pages carrying it.
    tag_pages: HashMap<Arc<str>, Names>,
    /// page → its tags.
    page_tags: HashMap<Arc<str>, Names>,
}

/// `set`'s names, sorted.
fn sorted(set: Option<&Names>) -> Vec<&str> {
    let mut names: Vec<&str> = set.map_or_else(Vec::new, |s| s.iter().map(|n| &**n).collect());
    names.sort_unstable();
    names
}

/// The shared key of `name` in `map`, or a new one.
fn key_of(map: &HashMap<Arc<str>, Names>, name: &str) -> Arc<str> {
    map.get_key_value(name)
        .map_or_else(|| Arc::from(name), |(key, _)| Arc::clone(key))
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
        if self
            .tag_pages
            .get(tag.as_str())
            .is_some_and(|pages| pages.contains(page))
        {
            return false;
        }
        let page = key_of(&self.page_tags, page);
        let tag = key_of(&self.tag_pages, &tag);
        Arc::make_mut(self.tag_pages.entry(Arc::clone(&tag)).or_default())
            .insert(Arc::clone(&page));
        Arc::make_mut(self.page_tags.entry(page).or_default()).insert(tag);
        true
    }

    /// Bulk ingestion from (page, tag) pairs — the Parser module's SMR fetch.
    pub fn ingest<'a>(&mut self, pairs: impl IntoIterator<Item = (&'a str, &'a str)>) -> usize {
        pairs.into_iter().filter(|(p, t)| self.add(p, t)).count()
    }

    /// Removes one assignment. Returns true if it existed.
    pub fn remove(&mut self, page: &str, tag: &str) -> bool {
        let tag = tag.trim().to_lowercase();
        let Some(pages) = self.tag_pages.get_mut(tag.as_str()) else {
            return false;
        };
        if !pages.contains(page) {
            return false;
        }
        Arc::make_mut(pages).remove(page);
        if pages.is_empty() {
            self.tag_pages.remove(tag.as_str());
        }
        if let Some(tags) = self.page_tags.get_mut(page) {
            Arc::make_mut(tags).remove(tag.as_str());
            if tags.is_empty() {
                self.page_tags.remove(page);
            }
        }
        true
    }

    /// Distinct tags, sorted.
    pub fn tags(&self) -> Vec<&str> {
        let mut tags: Vec<&str> = self.tag_pages.keys().map(|t| &**t).collect();
        tags.sort_unstable();
        tags
    }

    /// Frequency of a tag: "the number of entries that are assigned to each
    /// page" — i.e., how many pages carry it.
    pub fn frequency(&self, tag: &str) -> usize {
        self.tag_pages.get(tag).map_or(0, |pages| pages.len())
    }

    /// Pages carrying a tag, sorted.
    pub fn pages_of(&self, tag: &str) -> Vec<&str> {
        sorted(self.tag_pages.get(tag))
    }

    /// Tags of a page, sorted.
    pub fn tags_of(&self, page: &str) -> Vec<&str> {
        sorted(self.page_tags.get(page))
    }

    /// Number of distinct tags.
    pub fn tag_count(&self) -> usize {
        self.tag_pages.len()
    }

    /// The tag-page incidence as (tags, sorted page-id lists over a dense
    /// page index) — input to the Matrix Transformation module. Tags are
    /// sorted, pages are numbered in name order, and the ids in each list
    /// are strictly ascending, which the sorted-merge cosine kernel in
    /// [`crate::similarity::cosine`] relies on.
    pub fn incidence(&self) -> (Vec<String>, Vec<Vec<usize>>) {
        let mut pages: Vec<&str> = self.page_tags.keys().map(|p| &**p).collect();
        pages.sort_unstable();
        let page_index: HashMap<&str, usize> =
            pages.into_iter().enumerate().map(|(i, p)| (p, i)).collect();
        let tags = self.tags();
        let sets = tags
            .iter()
            .map(|&t| {
                let mut ids: Vec<usize> =
                    self.tag_pages[t].iter().map(|p| page_index[&**p]).collect();
                ids.sort_unstable();
                ids
            })
            .collect();
        (tags.into_iter().map(str::to_owned).collect(), sets)
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
    fn a_clone_shares_until_changed() {
        let mut s = TagStore::new();
        s.ingest([("A", "snow"), ("B", "snow"), ("B", "wind")]);
        let before = s.clone();
        assert!(s.add("C", "snow"));
        assert!(s.remove("B", "wind"));
        assert_eq!(before.pages_of("snow"), vec!["A", "B"]);
        assert_eq!(before.tags_of("B"), vec!["snow", "wind"]);
        assert_eq!(s.pages_of("snow"), vec!["A", "B", "C"]);
        assert_eq!(s.tags(), vec!["snow"]);
        assert_ne!(s, before);
        assert!(!s.add("C", "Snow"));
        assert!(s.add("B", "wind") && s.remove("C", "snow"));
        assert_eq!(s, before, "equal by content, not by sharing");
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
