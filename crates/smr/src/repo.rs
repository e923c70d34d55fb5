//! The Sensor Metadata Repository: a semantic-wiki layer whose system of
//! record is the relational engine, with every annotation and link mirrored
//! into the RDF store — so queries can run "using a combination of SQL and
//! SPARQL", as the paper describes.

use crate::error::{Result, SmrError};
use crate::page::{BulkReport, Page, PageDraft};
use sensormeta_graph::CsrGraph;
use sensormeta_rdf::{evaluate, parse_sparql, Solutions, Term, TripleStore};
use sensormeta_relstore::wal::MAX_SQL_OP;
use sensormeta_relstore::{
    Database, DurabilityOptions, RecoveryReport, ResultSet, StdVfs, TxHost, Value, Vfs,
};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Base IRI for page resources in the RDF mirror.
pub const PAGE_IRI_BASE: &str = "http://swiss-experiment.ch/page/";
/// Base IRI for annotation properties.
pub const PROP_IRI_BASE: &str = "http://swiss-experiment.ch/property/";
/// IRI of the page-title predicate.
pub const TITLE: &str = "http://swiss-experiment.ch/property/title";
/// IRI of the wiki-link predicate.
pub const LINKS_TO: &str = "http://swiss-experiment.ch/property/linksTo";
/// IRI of rdf:type.
pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
/// Base IRI for namespaces (page classes).
pub const NS_IRI_BASE: &str = "http://swiss-experiment.ch/namespace/";

/// The repository.
pub struct Smr {
    db: Database,
    rdf: TripleStore,
}

impl Default for Smr {
    fn default() -> Self {
        Self::new()
    }
}

/// `annotations` and its indexes, as [`SCHEMA_SQL`] installs them and
/// [`Smr::migrate`] rebuilds them.
///
/// `annotations.value_num` is the value read as a number with the parse a
/// numeric search condition applies (`str::parse::<f64>`; NULL when it does
/// not parse or is NaN), so `gt`, `lt` and `between` become range seeks on
/// `annotations_attr_num`, whose `attribute` prefix also serves plain
/// attribute lookups. The values' trigram index serves `contains`.
macro_rules! annotations_ddl {
    () => {
        "CREATE TABLE annotations (page_id INTEGER NOT NULL, attribute TEXT NOT NULL, \
         value TEXT NOT NULL, value_num FLOAT);
         CREATE INDEX annotations_page ON annotations (page_id);
         CREATE INDEX annotations_attr_num ON annotations (attribute, value_num);
         CREATE TRIGRAM INDEX annotations_value_trgm ON annotations (value);"
    };
}

/// The index that lets [`Smr::delete_page`] and [`Smr::revisions`] seek a
/// page's archived revisions, as [`SCHEMA_SQL`] installs it and
/// [`Smr::migrate`] adds it.
macro_rules! revisions_index_ddl {
    () => {
        "CREATE INDEX revisions_page ON revisions (page_id);\n"
    };
}

/// The repository's relational schema, installed on first open.
const SCHEMA_SQL: &str = concat!(
    "CREATE TABLE pages (id INTEGER PRIMARY KEY, title TEXT NOT NULL UNIQUE, \
     namespace TEXT NOT NULL, body TEXT, revision INTEGER NOT NULL);
     CREATE TRIGRAM INDEX pages_title_trgm ON pages (title);
     CREATE TABLE links (from_id INTEGER NOT NULL, to_title TEXT NOT NULL);
     CREATE INDEX links_from ON links (from_id);
     CREATE INDEX links_to ON links (to_title);
     CREATE TABLE tags (page_id INTEGER NOT NULL, tag TEXT NOT NULL);
     CREATE INDEX tags_page ON tags (page_id);
     CREATE INDEX tags_tag ON tags (tag);
     CREATE TABLE revisions (page_id INTEGER NOT NULL, revision INTEGER NOT NULL, \
     body TEXT);
     ",
    revisions_index_ddl!(),
    annotations_ddl!()
);

impl Smr {
    /// Creates an empty in-memory repository with its relational schema
    /// installed.
    pub fn new() -> Smr {
        let mut db = Database::new();
        #[expect(
            clippy::expect_used,
            reason = "SCHEMA_SQL is a constant every test in this crate runs; it cannot fail against a fresh database"
        )]
        db.execute_script(SCHEMA_SQL)
            .expect("static schema is valid");
        Smr {
            db,
            rdf: TripleStore::new(),
        }
    }

    /// Opens (or creates) a durable repository at `path`: every mutation is
    /// write-ahead logged before it is applied, and opening replays the log
    /// so a crash recovers to the last committed state. Returns what
    /// recovery found alongside the repository.
    pub fn open_durable(path: &std::path::Path) -> Result<(Smr, RecoveryReport)> {
        Smr::open_durable_with(Arc::new(StdVfs), path, DurabilityOptions::default())
    }

    /// [`Smr::open_durable`] with an explicit VFS and options — the
    /// fault-injection entry point.
    pub fn open_durable_with(
        vfs: Arc<dyn Vfs>,
        path: &std::path::Path,
        opts: DurabilityOptions,
    ) -> Result<(Smr, RecoveryReport)> {
        let (mut db, report) = Database::open_durable_with(vfs, path, opts)?;
        if !db.has_table("pages") {
            db.execute_script(SCHEMA_SQL)?;
        }
        Ok((Smr::opened(db)?, report))
    }

    /// Wraps a database opened from disk: migrates it to the current schema
    /// and rebuilds the RDF mirror from its tables.
    fn opened(db: Database) -> Result<Smr> {
        let mut smr = Smr {
            db,
            rdf: TripleStore::new(),
        };
        smr.migrate()?;
        smr.rebuild_mirror()?;
        Ok(smr)
    }

    /// A cheap read-only clone for MVCC snapshot publication: shares every
    /// page, index and triple ordering with `self` (copy-on-write `Arc`s all
    /// the way down) but carries no durability handle, so it never logs and
    /// can be handed to concurrent readers while `self` keeps writing.
    pub fn clone_reader(&self) -> Smr {
        Smr {
            db: self.db.clone_reader(),
            rdf: self.rdf.clone(),
        }
    }

    /// Folds the write-ahead log into a fresh snapshot (no-op for
    /// repositories that are not durable).
    pub fn checkpoint(&mut self) -> Result<()> {
        Ok(self.db.checkpoint()?)
    }

    /// The page IRI for a title.
    pub fn page_iri(title: &str) -> String {
        format!("{PAGE_IRI_BASE}{}", encode_iri_component(title))
    }

    /// The title whose page IRI is `iri` — the inverse of
    /// [`Smr::page_iri`] — or `None` when no title encodes to `iri`.
    /// Borrows from `iri` unless the title holds an encoded character.
    pub fn page_title(iri: &str) -> Option<Cow<'_, str>> {
        let encoded = iri.strip_prefix(PAGE_IRI_BASE)?;
        if !encoded.contains(IRI_ESCAPED) {
            return Some(Cow::Borrowed(encoded));
        }
        let mut bytes = Vec::with_capacity(encoded.len());
        let mut rest = encoded.as_bytes();
        while let Some((&b, tail)) = rest.split_first() {
            if b == b'%' {
                let hex = std::str::from_utf8(tail.get(..2)?).ok()?;
                bytes.push(u8::from_str_radix(hex, 16).ok()?);
                rest = &tail[2..];
            } else {
                bytes.push(b);
                rest = tail;
            }
        }
        let title = String::from_utf8(bytes).ok()?;
        // Only what `page_iri` writes: no bare character it escapes, and
        // no escape it does not write.
        (encode_iri_component(&title) == encoded).then_some(Cow::Owned(title))
    }

    /// The property IRI for an annotation attribute. An attribute named
    /// `title` or `linksTo` gets its first character percent-encoded
    /// (`%74itle`), a form no other name encodes to, so it never shares the
    /// IRI of the built-in [`TITLE`] or [`LINKS_TO`] predicate.
    pub fn property_iri(attr: &str) -> String {
        match attr {
            "title" => format!("{PROP_IRI_BASE}%74itle"),
            "linksTo" => format!("{PROP_IRI_BASE}%6CinksTo"),
            _ => format!("{PROP_IRI_BASE}{}", encode_iri_component(attr)),
        }
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.db
            .query_scalar("SELECT COUNT(*) FROM pages")
            .ok()
            .flatten()
            .and_then(|v| v.as_int())
            .unwrap_or(0) as usize
    }

    /// Creates a page. Fails if the title exists.
    pub fn create_page(&mut self, draft: PageDraft) -> Result<i64> {
        check_draft(&draft, self.record_limit())?;
        self.transaction(|smr| {
            if smr.page_id(&draft.title)?.is_some() {
                return Err(SmrError::PageExists(draft.title.clone()));
            }
            smr.write_new(&draft)
        })
    }

    /// Updates an existing page in place, bumping its revision and archiving
    /// the previous body.
    pub fn update_page(&mut self, draft: PageDraft) -> Result<i64> {
        check_draft(&draft, self.record_limit())?;
        self.transaction(|smr| smr.rewrite(&draft))
    }

    /// Creates or updates, whichever applies.
    pub fn upsert_page(&mut self, draft: PageDraft) -> Result<(i64, bool)> {
        check_draft(&draft, self.record_limit())?;
        self.transaction(|smr| smr.upsert(&draft))
    }

    /// Deletes a page (its revisions, annotations, links, tags, and RDF
    /// mirror). Returns true if it existed.
    pub fn delete_page(&mut self, title: &str) -> Result<bool> {
        self.transaction(|smr| {
            let Some(id) = smr.page_id(title)? else {
                return Ok(false);
            };
            for sql in [
                format!("DELETE FROM annotations WHERE page_id = {id}"),
                format!("DELETE FROM links WHERE from_id = {id}"),
                format!("DELETE FROM tags WHERE page_id = {id}"),
                format!("DELETE FROM revisions WHERE page_id = {id}"),
                format!("DELETE FROM pages WHERE id = {id}"),
            ] {
                smr.db.execute(&sql)?;
            }
            smr.rdf.remove_subject(&Term::iri(Self::page_iri(title)));
            retype_mentions(&mut smr.rdf, title, false);
            Ok(true)
        })
    }

    /// Bulk-loads drafts (the paper's Bulk-loading Interface): existing
    /// titles are updated, new ones created. A draft that fails the content
    /// checks (an empty title, a text too long for one log record) is
    /// reported and skipped before it writes anything. The others are
    /// written as one transaction, so a durable repository logs the whole
    /// load with one fsync; if any write fails, none of the load stays —
    /// tables and RDF mirror are as before — and every other draft is
    /// reported with that error ([`BulkReport::aborted`]).
    ///
    /// Drafts are taken from `drafts` one at a time and dropped once
    /// written, so a load never holds its whole input beside the tables.
    pub fn bulk_load(&mut self, drafts: impl IntoIterator<Item = PageDraft>) -> BulkReport {
        let mut report = BulkReport::default();
        let mut drafts = drafts.into_iter();
        // Titles of the drafts the transaction wrote, or was writing when
        // it failed.
        let mut entered = Vec::new();
        let limit = self.record_limit();
        let written = self.transaction(|smr| {
            for draft in drafts.by_ref() {
                if let Err(e) = check_draft(&draft, limit) {
                    report.errors.push((draft.title, e.to_string()));
                    continue;
                }
                let upserted = smr.upsert(&draft);
                entered.push(draft.title);
                match upserted? {
                    (_, true) => report.created += 1,
                    (_, false) => report.updated += 1,
                }
            }
            Ok(())
        });
        if let Err(e) = written {
            let why = e.to_string();
            let rest = drafts.map(|d| match check_draft(&d, limit) {
                Err(own) => (d.title, own.to_string()),
                Ok(()) => (d.title, why.clone()),
            });
            let aborted = entered.into_iter().map(|t| (t, why.clone()));
            report.errors.extend(aborted.chain(rest));
            (report.created, report.updated, report.aborted) = (0, 0, true);
        }
        report
    }

    /// Reads a page back, with annotations, links and tags.
    pub fn get_page(&self, title: &str) -> Result<Option<Page>> {
        let esc = sql_escape(title);
        let rs = self.db.query(&format!(
            "SELECT id, title, namespace, body, revision FROM pages WHERE title = '{esc}'"
        ))?;
        let Some(row) = rs.rows.into_iter().next() else {
            return Ok(None);
        };
        let mut page = page_of_row(row)?;
        let id = page.id;
        page.annotations = self
            .db
            .query(&format!(
                "SELECT attribute, value FROM annotations WHERE page_id = {id}"
            ))?
            .rows
            .into_iter()
            .map(|mut r| (take_text(&mut r, 0), take_text(&mut r, 1)))
            .collect();
        page.links = self
            .db
            .query(&format!(
                "SELECT to_title FROM links WHERE from_id = {id} ORDER BY to_title"
            ))?
            .rows
            .into_iter()
            .map(|mut r| take_text(&mut r, 0))
            .collect();
        page.tags = self
            .db
            .query(&format!(
                "SELECT tag FROM tags WHERE page_id = {id} ORDER BY tag"
            ))?
            .rows
            .into_iter()
            .map(|mut r| take_text(&mut r, 0))
            .collect();
        Ok(Some(page))
    }

    /// Every page, in title order, each with its annotations, links and
    /// tags in the order [`Smr::get_page`] returns them — the one way to
    /// read the whole corpus. Reads each of `pages`, `annotations`, `links`
    /// and `tags` once, so its statement count does not grow with the
    /// corpus.
    pub fn pages(&self) -> Result<Vec<Page>> {
        let mut pages = self
            .db
            .query("SELECT id, title, namespace, body, revision FROM pages ORDER BY title")?
            .rows
            .into_iter()
            .map(page_of_row)
            .collect::<Result<Vec<Page>>>()?;
        let slots: HashMap<i64, usize> = pages.iter().enumerate().map(|(i, p)| (p.id, i)).collect();
        // Satellite rows arrive in storage order, which is also the order
        // of the index postings `get_page` seeks; rows of no page are
        // skipped, as `get_page` never reaches them.
        let slot = |row: &[Value]| row[0].as_int().and_then(|id| slots.get(&id).copied());
        for mut r in self
            .db
            .query("SELECT page_id, attribute, value FROM annotations")?
            .rows
        {
            if let Some(i) = slot(&r) {
                let annotation = (take_text(&mut r, 1), take_text(&mut r, 2));
                pages[i].annotations.push(annotation);
            }
        }
        for mut r in self.db.query("SELECT from_id, to_title FROM links")?.rows {
            if let Some(i) = slot(&r) {
                pages[i].links.push(take_text(&mut r, 1));
            }
        }
        for mut r in self.db.query("SELECT page_id, tag FROM tags")?.rows {
            if let Some(i) = slot(&r) {
                pages[i].tags.push(take_text(&mut r, 1));
            }
        }
        for page in &mut pages {
            page.links.sort_unstable();
            page.tags.sort_unstable();
        }
        Ok(pages)
    }

    /// The bodies of `titles` (the `body` of [`Smr::get_page`]; `None` for
    /// a title no page has), in the order given, without their annotations,
    /// links or tags, read with one statement: an `IN` list the planner
    /// seeks key by key on the title index.
    pub fn page_bodies(&self, titles: &[&str]) -> Result<Vec<Option<String>>> {
        if titles.is_empty() {
            return Ok(Vec::new());
        }
        let list: Vec<String> = titles
            .iter()
            .map(|t| format!("'{}'", sql_escape(t)))
            .collect();
        let rs = self.db.query(&format!(
            "SELECT title, body FROM pages WHERE title IN ({})",
            list.join(", ")
        ))?;
        let bodies: HashMap<String, String> = rs
            .rows
            .into_iter()
            .map(|mut row| (take_text(&mut row, 0), take_text(&mut row, 1)))
            .collect();
        Ok(titles.iter().map(|t| bodies.get(*t).cloned()).collect())
    }

    /// All page titles, sorted.
    pub fn page_titles(&self) -> Result<Vec<String>> {
        Ok(self
            .db
            .query("SELECT title FROM pages ORDER BY title")?
            .rows
            .into_iter()
            .map(|mut r| take_text(&mut r, 0))
            .collect())
    }

    /// Titles in a namespace.
    pub fn pages_in_namespace(&self, ns: &str) -> Result<Vec<String>> {
        Ok(self
            .db
            .query(&format!(
                "SELECT title FROM pages WHERE namespace = '{}' ORDER BY title",
                sql_escape(ns)
            ))?
            .rows
            .into_iter()
            .map(|mut r| take_text(&mut r, 0))
            .collect())
    }

    /// Pages linking *to* the given title.
    pub fn backlinks(&self, title: &str) -> Result<Vec<String>> {
        Ok(self
            .db
            .query(&format!(
                "SELECT p.title FROM links l JOIN pages p ON l.from_id = p.id \
                 WHERE l.to_title = '{}' ORDER BY p.title",
                sql_escape(title)
            ))?
            .rows
            .into_iter()
            .map(|mut r| take_text(&mut r, 0))
            .collect())
    }

    /// Archived revision bodies of a page, oldest first.
    pub fn revisions(&self, title: &str) -> Result<Vec<(i64, String)>> {
        let Some(id) = self.page_id(title)? else {
            return Ok(Vec::new());
        };
        Ok(self
            .db
            .query(&format!(
                "SELECT revision, body FROM revisions WHERE page_id = {id} ORDER BY revision"
            ))?
            .rows
            .into_iter()
            .map(|mut r| (r[0].as_int().unwrap_or(0), take_text(&mut r, 1)))
            .collect())
    }

    /// Runs a raw SQL SELECT against the relational store.
    pub fn sql(&self, query: &str) -> Result<ResultSet> {
        Ok(self.db.query(query)?)
    }

    /// Runs a SPARQL SELECT against the RDF mirror.
    pub fn sparql(&self, query: &str) -> Result<Solutions> {
        let q = parse_sparql(query)?;
        Ok(evaluate(&self.rdf, &q)?)
    }

    /// Direct read access to the RDF mirror.
    pub fn rdf(&self) -> &TripleStore {
        &self.rdf
    }

    /// Direct read access to the relational store.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Distinct annotation attributes with usage counts (drives the dynamic
    /// drop-down menus of the advanced search form).
    pub fn attributes(&self) -> Result<Vec<(String, usize)>> {
        Ok(self
            .db
            .query(
                "SELECT attribute, COUNT(*) AS n FROM annotations GROUP BY attribute \
                 ORDER BY n DESC, attribute",
            )?
            .rows
            .into_iter()
            .map(|mut r| (take_text(&mut r, 0), r[1].as_int().unwrap_or(0) as usize))
            .collect())
    }

    /// Distinct values of one attribute (for autocomplete / drop-downs).
    pub fn attribute_values(&self, attr: &str) -> Result<Vec<String>> {
        Ok(self
            .db
            .query(&format!(
                "SELECT DISTINCT value FROM annotations WHERE attribute = '{}' ORDER BY value",
                sql_escape(attr)
            ))?
            .rows
            .into_iter()
            .map(|mut r| take_text(&mut r, 0))
            .collect())
    }

    /// Builds the paper's double linking structure over all pages:
    /// `(semantic, hyperlink, titles)` where `titles[i]` labels node `i`.
    /// Semantic edges come from annotations whose value is another page's
    /// title; hyperlink edges from the wiki-link table (dangling link targets
    /// — red links — are skipped, they are not pages).
    pub fn link_graphs(&self) -> Result<(CsrGraph, CsrGraph, Vec<String>)> {
        let pages = self.pages()?;
        let (semantic, hyperlink) = link_graphs_of(&pages);
        let titles = pages.into_iter().map(|p| p.title).collect();
        Ok((semantic, hyperlink, titles))
    }

    /// All (page title, tag) pairs — input for the tagging pipeline.
    pub fn all_tags(&self) -> Result<Vec<(String, String)>> {
        Ok(self
            .db
            .query(
                "SELECT p.title, t.tag FROM tags t JOIN pages p ON t.page_id = p.id \
                 ORDER BY p.title, t.tag",
            )?
            .rows
            .into_iter()
            .map(|mut r| (take_text(&mut r, 0), take_text(&mut r, 1)))
            .collect())
    }

    /// Aggregate repository statistics (pages per namespace, satellite
    /// counts, mirror size) — the home page's health panel.
    pub fn statistics(&self) -> Result<RepoStats> {
        let per_ns = self
            .db
            .query("SELECT namespace, COUNT(*) FROM pages GROUP BY namespace ORDER BY namespace")?
            .rows
            .into_iter()
            .map(|mut r| (take_text(&mut r, 0), r[1].as_int().unwrap_or(0) as usize))
            .collect();
        let count = |t: &str| -> Result<usize> {
            Ok(self
                .db
                .query_scalar(&format!("SELECT COUNT(*) FROM {t}"))?
                .and_then(|v| v.as_int())
                .unwrap_or(0) as usize)
        };
        Ok(RepoStats {
            pages: count("pages")?,
            pages_per_namespace: per_ns,
            annotations: count("annotations")?,
            links: count("links")?,
            tags: count("tags")?,
            revisions: count("revisions")?,
            triples: self.rdf.len(),
        })
    }

    // ----- persistence -----

    /// Saves the repository to a snapshot file (relational state only; the
    /// RDF mirror is derived data and is rebuilt on load).
    pub fn save(&self, path: &std::path::Path) -> Result<()> {
        Ok(self.db.save(path)?)
    }

    /// Loads a repository from a snapshot file in recovering mode: any
    /// committed write-ahead-log records beside the snapshot are replayed
    /// in memory (nothing on disk is modified), and the RDF mirror is
    /// rebuilt from the relational tables.
    pub fn load(path: &std::path::Path) -> Result<Smr> {
        let (db, _) = Database::open_recovering(Arc::new(StdVfs), path)?;
        Smr::opened(db)
    }

    /// Rebuilds the whole RDF mirror from the relational state. Used after
    /// loading a snapshot; also useful after direct SQL surgery.
    ///
    /// The mirror's rule, which the writes keep incrementally: an annotation
    /// value is the IRI of the page it names when a page with exactly that
    /// title exists, and a literal otherwise.
    pub fn rebuild_mirror(&mut self) -> Result<()> {
        let pages = self.pages()?;
        let titles: HashSet<String> = pages.iter().map(|p| p.title.clone()).collect();
        self.rdf = TripleStore::new();
        for page in pages {
            self.mirror_page(&PageDraft::from(page), Some(&titles));
        }
        Ok(())
    }

    /// Makes the mirror treat every one of `titles` as an existing page, as
    /// a store holding one shard of a corpus must: an annotation value
    /// naming a page of the corpus becomes that page's IRI on every shard,
    /// not only on the shard that holds the page. Values naming this
    /// store's own pages are IRIs already.
    pub fn mirror_titles<'a>(&mut self, titles: impl IntoIterator<Item = &'a str>) {
        for title in titles {
            retype_mentions(&mut self.rdf, title, true);
        }
    }

    // ----- internals -----

    /// Brings a repository written before `revisions_page` existed, or
    /// before `annotations` carried `value_num`, up to [`SCHEMA_SQL`]. The
    /// missing index is created. relstore has no `ALTER TABLE`, so the
    /// script drops `annotations` (and with it the old `annotations_attr`
    /// index), recreates it with its indexes, and re-inserts every row in
    /// storage order with its parsed value. A script is one
    /// write-ahead-log record, so a durable repository is migrated whole or
    /// not at all. No-op on a current repository.
    fn migrate(&mut self) -> Result<()> {
        let mut script = String::new();
        if self
            .db
            .table("revisions")?
            .btree("revisions_page")
            .is_none()
        {
            script.push_str(revisions_index_ddl!());
        }
        let annotations = &self.db.table("annotations")?.schema;
        if annotations.column_index("value_num").is_none() {
            let rows = self
                .db
                .query("SELECT page_id, attribute, value FROM annotations")?
                .rows;
            script.push_str(concat!("DROP TABLE annotations; ", annotations_ddl!()));
            for (i, r) in rows.iter().enumerate() {
                let value = r[2].to_text();
                let num = match value.parse::<f64>() {
                    Ok(v) if !v.is_nan() => sql_float(v),
                    _ => "NULL".to_owned(),
                };
                script.push_str(if i == 0 {
                    "\nINSERT INTO annotations VALUES "
                } else {
                    ", "
                });
                script.push_str(&format!(
                    "({}, '{}', '{}', {num})",
                    r[0].to_text(),
                    sql_escape(&r[1].to_text()),
                    sql_escape(&value),
                ));
            }
        }
        if !script.is_empty() {
            self.db.execute_script(&script)?;
        }
        Ok(())
    }

    /// Runs `f` as one transaction of the database (one WAL commit with
    /// one fsync when durable). On an error or an unwind nothing `f` wrote
    /// stays: the database rolls its tables back, and the RDF mirror is
    /// restored from a copy taken at begin. A call inside an open
    /// transaction joins it.
    fn transaction<T>(&mut self, f: impl FnOnce(&mut Smr) -> Result<T>) -> Result<T> {
        Database::transaction_over(&mut Mirrored(self), |m| f(m.0))
    }

    /// The longest record a draft may log: none in memory, the SQL text of
    /// one WAL frame when durable.
    fn record_limit(&self) -> Option<usize> {
        self.db.is_durable().then_some(MAX_SQL_OP)
    }

    fn upsert(&mut self, draft: &PageDraft) -> Result<(i64, bool)> {
        if self.page_id(&draft.title)?.is_some() {
            Ok((self.rewrite(draft)?, false))
        } else {
            Ok((self.write_new(draft)?, true))
        }
    }

    /// Writes a page whose title the repository does not hold.
    fn write_new(&mut self, draft: &PageDraft) -> Result<i64> {
        let id = self.next_page_id()?;
        self.db.insert_row(
            "pages",
            vec![
                Value::Int(id),
                Value::text(draft.title.clone()),
                Value::text(draft.namespace.clone()),
                Value::text(draft.body.clone()),
                Value::Int(1),
            ],
        )?;
        self.write_satellites(id, draft)?;
        self.mirror_page(draft, None);
        retype_mentions(&mut self.rdf, &draft.title, true);
        Ok(id)
    }

    /// Rewrites a page in place, archiving its previous body.
    fn rewrite(&mut self, draft: &PageDraft) -> Result<i64> {
        let Some(old) = self.get_page(&draft.title)? else {
            return Err(SmrError::NoSuchPage(draft.title.clone()));
        };
        let id = old.id;
        // Archive the old body.
        self.db.insert_row(
            "revisions",
            vec![
                Value::Int(id),
                Value::Int(old.revision),
                Value::text(old.body),
            ],
        )?;
        // Rewrite the page row.
        self.db.execute(&update_page_sql(draft))?;
        // Replace satellites.
        self.db
            .execute(&format!("DELETE FROM annotations WHERE page_id = {id}"))?;
        self.db
            .execute(&format!("DELETE FROM links WHERE from_id = {id}"))?;
        self.db
            .execute(&format!("DELETE FROM tags WHERE page_id = {id}"))?;
        self.write_satellites(id, draft)?;
        // Re-mirror in RDF.
        self.rdf
            .remove_subject(&Term::iri(Self::page_iri(&draft.title)));
        self.mirror_page(draft, None);
        Ok(id)
    }

    fn page_id(&self, title: &str) -> Result<Option<i64>> {
        let rs = self.db.query(&format!(
            "SELECT id FROM pages WHERE title = '{}'",
            sql_escape(title)
        ))?;
        Ok(rs.rows.first().and_then(|r| r[0].as_int()))
    }

    fn next_page_id(&self) -> Result<i64> {
        Ok(self
            .db
            .query_scalar("SELECT MAX(id) FROM pages")?
            .and_then(|v| v.as_int())
            .unwrap_or(0)
            + 1)
    }

    fn write_satellites(&mut self, id: i64, draft: &PageDraft) -> Result<()> {
        for (a, v) in &draft.annotations {
            let num = v.parse::<f64>().map_or(Value::Null, Value::float);
            self.db.insert_row(
                "annotations",
                vec![
                    Value::Int(id),
                    Value::text(a.clone()),
                    Value::text(v.clone()),
                    num,
                ],
            )?;
        }
        for l in &draft.links {
            self.db
                .insert_row("links", vec![Value::Int(id), Value::text(l.clone())])?;
        }
        for t in &draft.tags {
            self.db
                .insert_row("tags", vec![Value::Int(id), Value::text(t.clone())])?;
        }
        Ok(())
    }

    /// Mirrors one page: its namespace, its title, each annotation (the IRI
    /// of the page its value names, else a literal keeping the value's
    /// lexical form) and each wiki link. A value names a page when it is in
    /// `titles`, or, without them, when the store holds a page of that title.
    fn mirror_page(&mut self, draft: &PageDraft, titles: Option<&HashSet<String>>) {
        let subject = Term::iri(Self::page_iri(&draft.title));
        self.rdf.insert(
            subject.clone(),
            Term::iri(RDF_TYPE),
            Term::iri(format!(
                "{NS_IRI_BASE}{}",
                encode_iri_component(&draft.namespace)
            )),
        );
        self.rdf.insert(
            subject.clone(),
            Term::iri(TITLE),
            Term::lit(draft.title.clone()),
        );
        for (attr, value) in &draft.annotations {
            let names_page = match titles {
                Some(titles) => titles.contains(value.as_str()),
                None => matches!(self.page_id(value), Ok(Some(_))),
            };
            let object = if names_page {
                Term::iri(Self::page_iri(value))
            } else {
                Term::lit(value.clone())
            };
            self.rdf
                .insert(subject.clone(), Term::iri(Self::property_iri(attr)), object);
        }
        for target in &draft.links {
            self.rdf.insert(
                subject.clone(),
                Term::iri(LINKS_TO),
                Term::iri(Self::page_iri(target)),
            );
        }
    }
}

/// A repository in a transaction: its RDF mirror rolls back with the
/// tables. Private, so the database stays reachable only through `Smr`.
struct Mirrored<'a>(&'a mut Smr);

impl TxHost for Mirrored<'_> {
    type Saved = TripleStore;

    fn database(&mut self) -> &mut Database {
        &mut self.0.db
    }

    /// Four `Arc` bumps: the store's indexes are shared until written.
    fn save(&mut self) -> TripleStore {
        self.0.rdf.clone()
    }

    fn restore(&mut self, saved: TripleStore) {
        self.0.rdf = saved;
    }
}

/// The statement that rewrites a page row in place — the longest record a
/// draft can write.
fn update_page_sql(draft: &PageDraft) -> String {
    format!(
        "UPDATE pages SET namespace = '{}', body = '{}', revision = revision + 1 \
         WHERE title = '{}'",
        sql_escape(&draft.namespace),
        sql_escape(&draft.body),
        sql_escape(&draft.title),
    )
}

/// Bytes of [`update_page_sql`] beside its three escaped texts.
const UPDATE_PAGE_FIXED: usize = 84;

/// Bytes an annotation, link or tag row's insert record adds to its texts
/// at most: the table name and the row's tags, ids and lengths.
const ROW_OVERHEAD: usize = 64;

/// The checks a draft passes or fails by its content alone, whatever the
/// repository holds: a title, and, given a `limit` on one logged record,
/// no record longer than it. The longest record is the UPDATE of the page
/// row ([`update_page_sql`]), measured as written: each text plus the
/// quotes escaping doubles. Each annotation, link and tag is a row of its
/// own. Run before a draft writes anything, so a draft that cannot be
/// written is skipped and never aborts the batch it came in.
fn check_draft(draft: &PageDraft, limit: Option<usize>) -> Result<()> {
    if draft.title.is_empty() {
        return Err(SmrError::InvalidDraft("empty title".into()));
    }
    let Some(limit) = limit else {
        return Ok(());
    };
    let escaped = |s: &str| s.len() + s.matches('\'').count();
    let page = UPDATE_PAGE_FIXED
        + escaped(&draft.title)
        + escaped(&draft.namespace)
        + escaped(&draft.body);
    let longest = draft
        .annotations
        .iter()
        .map(|(a, v)| a.len() + v.len())
        .chain(draft.links.iter().chain(&draft.tags).map(String::len))
        .map(|texts| texts + ROW_OVERHEAD)
        .fold(page, usize::max);
    if longest > limit {
        return Err(SmrError::InvalidDraft(format!(
            "a record of {longest} bytes does not fit one log record of {limit} bytes"
        )));
    }
    Ok(())
}

/// The paper's double linking structure over `pages`, node `i` being
/// `pages[i]`: `(semantic, hyperlink)`. Semantic edges come from annotation
/// values that are another page's title, hyperlink edges from wiki links;
/// targets outside `pages` (red links) and self-references add no edge.
pub fn link_graphs_of(pages: &[Page]) -> (CsrGraph, CsrGraph) {
    let index: HashMap<&str, usize> = pages
        .iter()
        .enumerate()
        .map(|(i, p)| (p.title.as_str(), i))
        .collect();
    let mut semantic = Vec::new();
    let mut hyperlink = Vec::new();
    for (u, page) in pages.iter().enumerate() {
        let edge = |edges: &mut Vec<(usize, usize)>, target: &str| {
            if let Some(&v) = index.get(target).filter(|&&v| v != u) {
                edges.push((u, v));
            }
        };
        for (_, value) in &page.annotations {
            edge(&mut semantic, value);
        }
        for target in &page.links {
            edge(&mut hyperlink, target);
        }
    }
    (
        CsrGraph::from_edges(pages.len(), &semantic, true),
        CsrGraph::from_edges(pages.len(), &hyperlink, true),
    )
}

/// A `pages` row (`id, title, namespace, body, revision`) as a page with
/// no annotations, links or tags yet.
fn page_of_row(mut row: Vec<Value>) -> Result<Page> {
    let title = take_text(&mut row, 1);
    let Some(id) = row[0].as_int() else {
        return Err(SmrError::Corrupt(format!(
            "pages.id for `{title}` is not an integer"
        )));
    };
    Ok(Page {
        id,
        title,
        namespace: take_text(&mut row, 2),
        body: take_text(&mut row, 3),
        revision: row[4].as_int().unwrap_or(1),
        annotations: Vec::new(),
        links: Vec::new(),
        tags: Vec::new(),
    })
}

/// Re-types the annotation values naming `title` after the page of that
/// title was created (`exists`: literal to IRI) or deleted (IRI to
/// literal), so the live mirror keeps the rule [`Smr::rebuild_mirror`]
/// applies to all pages at once, whatever order they were written in. The
/// page's own title triple and wiki links never change type.
fn retype_mentions(rdf: &mut TripleStore, title: &str, exists: bool) {
    let iri = Term::iri(Smr::page_iri(title));
    let lit = Term::lit(title);
    let (from, to) = if exists { (&lit, &iri) } else { (&iri, &lit) };
    let (title_pred, links) = (Term::iri(TITLE), Term::iri(LINKS_TO));
    let mentions: Vec<_> = rdf
        .match_terms(None, None, Some(from))
        .into_iter()
        .filter(|(s, p, _)| *p != links && !(*s == iri && *p == title_pred))
        .collect();
    for (s, p, o) in mentions {
        rdf.remove(&s, &p, &o);
        rdf.insert(s, p, to.clone());
    }
}

/// Moves column `ix` of a result row out as text (`Display` for a
/// non-text value).
fn take_text(row: &mut [Value], ix: usize) -> String {
    std::mem::take(&mut row[ix]).into_text()
}

/// Aggregate counts over a repository.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepoStats {
    /// Total pages.
    pub pages: usize,
    /// (namespace, page count), sorted by namespace.
    pub pages_per_namespace: Vec<(String, usize)>,
    /// Total (attribute, value) annotations.
    pub annotations: usize,
    /// Total wiki links.
    pub links: usize,
    /// Total tag assignments.
    pub tags: usize,
    /// Archived revisions.
    pub revisions: usize,
    /// Triples in the RDF mirror.
    pub triples: usize,
}

/// Escapes a string for inclusion in a single-quoted SQL literal.
pub fn sql_escape(s: &str) -> String {
    s.replace('\'', "''")
}

/// A float as an SQL literal that reads back as exactly `v`: `{:?}`
/// round-trips every finite float, `-0.0` included, and `1e400`, which
/// overflows to infinity, stands in for the `inf` the lexer lacks.
pub fn sql_float(v: f64) -> String {
    if v.is_infinite() {
        if v > 0.0 { "1e400" } else { "-1e400" }.to_owned()
    } else {
        format!("{v:?}")
    }
}

/// The characters [`encode_iri_component`] percent-encodes.
const IRI_ESCAPED: [char; 11] = [' ', '%', '<', '>', '"', '{', '}', '|', '^', '`', '\\'];

/// Percent-encodes the characters that would break IRIs, `%` itself
/// included, so the encoding is injective: distinct names (`A B`, `A_B`,
/// `A%20B`) never share an IRI.
fn encode_iri_component(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            c if IRI_ESCAPED.contains(&c) => {
                for b in c.to_string().as_bytes() {
                    out.push_str(&format!("%{b:02X}"));
                }
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_title_inverts_page_iri() {
        for title in [
            "Site:A",
            "A B",
            "A_B",
            "A%20B",
            "100%",
            "q\"<x>{|}^`\\ end",
            "Weißfluhjoch 雪 🏔",
            "",
        ] {
            let iri = Smr::page_iri(title);
            assert_eq!(Smr::page_title(&iri).as_deref(), Some(title), "{iri}");
        }
        for iri in [
            format!("{PROP_IRI_BASE}Site:A"),
            format!("{PAGE_IRI_BASE}A B"),
            format!("{PAGE_IRI_BASE}%41"),
            format!("{PAGE_IRI_BASE}%2"),
            format!("{PAGE_IRI_BASE}%zz"),
            format!("{PAGE_IRI_BASE}%20%FF"),
            format!("{PAGE_IRI_BASE}%20%c3%a9"),
        ] {
            assert_eq!(Smr::page_title(&iri), None, "{iri}");
        }
    }

    #[test]
    fn float_literals_reach_sql_exactly() {
        let db = Database::new();
        for v in [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            -1e-300,
            5e-324,
            0.1,
            -2.5,
            9007199254740993.0,
            f64::MAX,
            f64::MIN_POSITIVE,
        ] {
            let got = db
                .query_scalar(&format!("SELECT {}", sql_float(v)))
                .expect("select")
                .and_then(|x| x.as_float())
                .expect("a float");
            assert_eq!(got.to_bits(), v.to_bits(), "{v:?} as {}", sql_float(v));
        }
    }

    fn draft(title: &str) -> PageDraft {
        PageDraft::new(title, "Deployment")
            .body("a sensor")
            .annotate("measuresQuantity", "temperature")
            .tag("snow")
    }

    #[test]
    fn create_and_read_back() {
        let mut smr = Smr::new();
        let id = smr.create_page(draft("Deployment:wfj_temp")).unwrap();
        assert_eq!(id, 1);
        let p = smr.get_page("Deployment:wfj_temp").unwrap().unwrap();
        assert_eq!(p.revision, 1);
        assert_eq!(p.annotations[0].1, "temperature");
        assert_eq!(p.tags, vec!["snow"]);
        assert!(smr.get_page("missing").unwrap().is_none());
    }

    #[test]
    fn page_bodies_match_get_page() {
        let mut smr = Smr::new();
        smr.create_page(draft("Deployment:o'brien")).unwrap();
        smr.create_page(draft("Site:b").body("site b")).unwrap();
        let bodies = smr
            .page_bodies(&["Site:b", "missing", "Deployment:o'brien"])
            .unwrap();
        let body = |t: &str| Some(smr.get_page(t).unwrap().unwrap().body);
        assert_eq!(bodies, [body("Site:b"), None, body("Deployment:o'brien")]);
        assert!(smr.page_bodies(&[]).unwrap().is_empty());
    }

    #[test]
    fn duplicate_title_rejected() {
        let mut smr = Smr::new();
        smr.create_page(draft("X")).unwrap();
        assert!(matches!(
            smr.create_page(draft("X")).unwrap_err(),
            SmrError::PageExists(_)
        ));
    }

    #[test]
    fn update_bumps_revision_and_archives() {
        let mut smr = Smr::new();
        smr.create_page(draft("X")).unwrap();
        smr.update_page(PageDraft::new("X", "Deployment").body("v2"))
            .unwrap();
        let p = smr.get_page("X").unwrap().unwrap();
        assert_eq!(p.revision, 2);
        assert_eq!(p.body, "v2");
        assert!(p.annotations.is_empty(), "satellites replaced");
        let revs = smr.revisions("X").unwrap();
        assert_eq!(revs.len(), 1);
        assert_eq!(revs[0], (1, "a sensor".to_string()));
    }

    #[test]
    fn rdf_mirror_tracks_pages() {
        let mut smr = Smr::new();
        smr.create_page(draft("Deployment:wfj_temp").annotate("deployedAt", "Fieldsite:WFJ"))
            .unwrap();
        smr.create_page(PageDraft::new("Fieldsite:WFJ", "Fieldsite"))
            .unwrap();
        // Literal annotation mirrored.
        let sols = smr
            .sparql(
                "PREFIX prop: <http://swiss-experiment.ch/property/> \
                 SELECT ?s WHERE { ?s prop:measuresQuantity \"temperature\" }",
            )
            .unwrap();
        assert_eq!(sols.len(), 1);
        // Deleting removes the mirror.
        smr.delete_page("Deployment:wfj_temp").unwrap();
        let sols = smr
            .sparql(
                "PREFIX prop: <http://swiss-experiment.ch/property/> \
                 SELECT ?s WHERE { ?s prop:measuresQuantity \"temperature\" }",
            )
            .unwrap();
        assert!(sols.is_empty());
    }

    #[test]
    fn object_annotations_become_iri_links() {
        let mut smr = Smr::new();
        smr.create_page(PageDraft::new("Fieldsite:WFJ", "Fieldsite"))
            .unwrap();
        smr.create_page(draft("Deployment:d1").annotate("deployedAt", "Fieldsite:WFJ"))
            .unwrap();
        let sols = smr
            .sparql(
                "PREFIX prop: <http://swiss-experiment.ch/property/> \
                 SELECT ?site WHERE { ?d prop:deployedAt ?site . FILTER(isIRI(?site)) }",
            )
            .unwrap();
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn bulk_load_reports() {
        let mut smr = Smr::new();
        smr.create_page(draft("A")).unwrap();
        let report = smr.bulk_load(vec![
            draft("A"),                       // update
            draft("B"),                       // create
            PageDraft::new("", "Deployment"), // error
        ]);
        assert_eq!(report.created, 1);
        assert_eq!(report.updated, 1);
        assert_eq!(report.errors.len(), 1);
        assert_eq!(smr.page_count(), 2);
    }

    #[test]
    fn record_check_measures_the_update_as_written() {
        let d = PageDraft::new("O'Brien", "Site").body("it's a 'quoted' body");
        let record = update_page_sql(&d).len();
        let texts = ["O''Brien", "Site", "it''s a ''quoted'' body"];
        assert_eq!(record, UPDATE_PAGE_FIXED + texts.concat().len());
        assert!(check_draft(&d, Some(record)).is_ok());
        let err = check_draft(&d, Some(record - 1)).unwrap_err();
        assert!(err.to_string().contains("log record"), "{err}");
        // In memory no record is logged, so no length is refused.
        assert!(check_draft(&d, None).is_ok());
        assert!(check_draft(&PageDraft::new("", "Site"), None).is_err());
        // An annotation row is measured by its texts.
        let a = PageDraft::new("A", "Site").annotate("k", "v".repeat(200));
        assert!(check_draft(&a, Some(201 + ROW_OVERHEAD)).is_ok());
        assert!(check_draft(&a, Some(200 + ROW_OVERHEAD)).is_err());
    }

    #[test]
    fn backlinks_and_namespaces() {
        let mut smr = Smr::new();
        smr.create_page(PageDraft::new("Fieldsite:WFJ", "Fieldsite"))
            .unwrap();
        smr.create_page(draft("Deployment:d1").link("Fieldsite:WFJ"))
            .unwrap();
        smr.create_page(draft("Deployment:d2").link("Fieldsite:WFJ"))
            .unwrap();
        assert_eq!(
            smr.backlinks("Fieldsite:WFJ").unwrap(),
            vec!["Deployment:d1", "Deployment:d2"]
        );
        assert_eq!(smr.pages_in_namespace("Fieldsite").unwrap().len(), 1);
        assert_eq!(smr.pages_in_namespace("Deployment").unwrap().len(), 2);
    }

    #[test]
    fn link_graphs_built_from_both_structures() {
        let mut smr = Smr::new();
        smr.create_page(PageDraft::new("A", "Main").link("B"))
            .unwrap();
        smr.create_page(PageDraft::new("B", "Main").annotate("rel", "A"))
            .unwrap();
        smr.create_page(PageDraft::new("C", "Main").link("Missing"))
            .unwrap();
        let (sem, hyp, titles) = smr.link_graphs().unwrap();
        assert_eq!(titles, vec!["A", "B", "C"]);
        let a = 0;
        let b = 1;
        assert_eq!(hyp.neighbors(a), &[b]);
        assert_eq!(sem.neighbors(b), &[a]);
        // Red link (to a missing page) produces no edge.
        assert_eq!(hyp.out_degree(2), 0);
    }

    #[test]
    fn attributes_and_values_for_dropdowns() {
        let mut smr = Smr::new();
        smr.create_page(draft("D1")).unwrap();
        smr.create_page(draft("D2").annotate("hasUnit", "C"))
            .unwrap();
        let attrs = smr.attributes().unwrap();
        assert_eq!(attrs[0].0, "measuresQuantity");
        assert_eq!(attrs[0].1, 2);
        assert_eq!(
            smr.attribute_values("measuresQuantity").unwrap(),
            vec!["temperature"]
        );
    }

    #[test]
    fn sql_escape_quotes() {
        let mut smr = Smr::new();
        smr.create_page(PageDraft::new("O'Brien's page", "Main"))
            .unwrap();
        let p = smr.get_page("O'Brien's page").unwrap().unwrap();
        assert_eq!(p.title, "O'Brien's page");
    }

    #[test]
    fn all_tags_lists_pairs() {
        let mut smr = Smr::new();
        smr.create_page(draft("A").tag("alpine")).unwrap();
        let tags = smr.all_tags().unwrap();
        assert_eq!(
            tags,
            vec![
                ("A".to_string(), "alpine".to_string()),
                ("A".to_string(), "snow".to_string())
            ]
        );
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;

    #[test]
    fn save_load_roundtrip_with_mirror() {
        let dir = std::env::temp_dir().join("smr_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repo.snap");

        let mut smr = Smr::new();
        smr.create_page(PageDraft::new("Fieldsite:WFJ", "Fieldsite"))
            .unwrap();
        smr.create_page(
            PageDraft::new("Deployment:d1", "Deployment")
                .body("a body with ünïcode")
                .annotate("deployedAt", "Fieldsite:WFJ")
                .annotate("measuresQuantity", "temperature")
                .link("Fieldsite:WFJ")
                .tag("snow"),
        )
        .unwrap();
        smr.save(&path).unwrap();

        let restored = Smr::load(&path).unwrap();
        assert_eq!(restored.page_count(), 2);
        let page = restored.get_page("Deployment:d1").unwrap().unwrap();
        assert_eq!(page.body, "a body with ünïcode");
        assert_eq!(page.tags, vec!["snow"]);
        // The RDF mirror was rebuilt: SPARQL still answers, and the
        // object-valued annotation is an IRI again.
        let sols = restored
            .sparql(
                "PREFIX prop: <http://swiss-experiment.ch/property/> \
                 SELECT ?site WHERE { ?d prop:deployedAt ?site . FILTER(isIRI(?site)) }",
            )
            .unwrap();
        assert_eq!(sols.len(), 1);
        // Mutations work after load (ids continue correctly).
        let mut restored = restored;
        let id = restored
            .create_page(PageDraft::new("Deployment:d2", "Deployment"))
            .unwrap();
        assert!(id > 2);
        std::fs::remove_file(&path).ok();
    }

    /// The schema a repository had before `annotations` carried
    /// `value_num`.
    const SCHEMA_WITHOUT_VALUE_NUM: &str = "CREATE TABLE pages (id INTEGER PRIMARY KEY, \
         title TEXT NOT NULL UNIQUE, namespace TEXT NOT NULL, body TEXT, revision INTEGER NOT NULL);
         CREATE TABLE annotations (page_id INTEGER NOT NULL, attribute TEXT NOT NULL, \
         value TEXT NOT NULL);
         CREATE TABLE links (from_id INTEGER NOT NULL, to_title TEXT NOT NULL);
         CREATE TABLE tags (page_id INTEGER NOT NULL, tag TEXT NOT NULL);
         CREATE TABLE revisions (page_id INTEGER NOT NULL, revision INTEGER NOT NULL, \
         body TEXT);
         CREATE INDEX annotations_page ON annotations (page_id);
         CREATE INDEX annotations_attr ON annotations (attribute);
         CREATE TRIGRAM INDEX pages_title_trgm ON pages (title);
         CREATE INDEX links_from ON links (from_id);
         CREATE INDEX links_to ON links (to_title);
         CREATE INDEX tags_page ON tags (page_id);
         CREATE INDEX tags_tag ON tags (tag);";

    fn legacy_drafts() -> Vec<PageDraft> {
        vec![
            PageDraft::new("Fieldsite:a", "Fieldsite")
                .body("O'Brien's site")
                .annotate("hasElevation", "2693")
                .annotate("note", "it's 5%_"),
            PageDraft::new("Deployment:d1", "Deployment")
                .annotate("hasElevation", "-0")
                .annotate("hasElevation", "1e400")
                .annotate("hasElevation", "NaN")
                .annotate("hasElevation", " 7")
                .annotate("hasElevation", "9007199254740993")
                .annotate("deployedAt", "Fieldsite:a")
                .link("Fieldsite:a")
                .tag("snow"),
            PageDraft::new("Deployment:d2", "Deployment")
                .annotate("hasElevation", "1500")
                .annotate("hasElevation", "+5"),
        ]
    }

    /// Writes `drafts` into `db` as a repository without `value_num` did:
    /// the same rows `create_page` writes, less the fourth column.
    fn write_legacy(db: &mut Database, drafts: &[PageDraft]) {
        db.execute_script(SCHEMA_WITHOUT_VALUE_NUM).unwrap();
        for (id, d) in (1..).zip(drafts) {
            db.insert_row(
                "pages",
                vec![
                    Value::Int(id),
                    Value::text(d.title.clone()),
                    Value::text(d.namespace.clone()),
                    Value::text(d.body.clone()),
                    Value::Int(1),
                ],
            )
            .unwrap();
            for (a, v) in &d.annotations {
                db.insert_row(
                    "annotations",
                    vec![
                        Value::Int(id),
                        Value::text(a.clone()),
                        Value::text(v.clone()),
                    ],
                )
                .unwrap();
            }
            for l in &d.links {
                db.insert_row("links", vec![Value::Int(id), Value::text(l.clone())])
                    .unwrap();
            }
            for t in &d.tags {
                db.insert_row("tags", vec![Value::Int(id), Value::text(t.clone())])
                    .unwrap();
            }
        }
    }

    /// Every annotation row, `-0.0` told apart from `0.0`.
    fn annotation_rows(smr: &Smr) -> String {
        let rs = smr
            .sql("SELECT page_id, attribute, value, value_num FROM annotations")
            .unwrap();
        format!("{:?}", rs.rows)
    }

    fn fresh(drafts: &[PageDraft]) -> Smr {
        let mut smr = Smr::new();
        for d in drafts {
            smr.create_page(d.clone()).unwrap();
        }
        smr
    }

    fn rewrite(smr: &mut Smr) {
        smr.update_page(
            PageDraft::new("Deployment:d2", "Deployment")
                .annotate("hasElevation", "3000")
                .tag("wind"),
        )
        .unwrap();
    }

    fn above_2000(smr: &Smr) -> Vec<Vec<Value>> {
        smr.sql(
            "SELECT p.title FROM annotations a JOIN pages p ON a.page_id = p.id \
             WHERE a.attribute = 'hasElevation' AND a.value_num > 2000.0 ORDER BY p.title",
        )
        .unwrap()
        .rows
    }

    /// `Smr::revisions` and the `DELETE FROM revisions` of `delete_page`
    /// seek the page's rows. A DELETE's WHERE is planned as the same
    /// single-table SELECT's, so EXPLAIN SELECT shows both paths.
    #[test]
    fn revision_statements_seek_their_page() {
        let mut smr = fresh(&legacy_drafts());
        rewrite(&mut smr);
        rewrite(&mut smr);
        smr.update_page(PageDraft::new("Fieldsite:a", "Fieldsite").body("moved"))
            .unwrap();
        let id = smr.page_id("Deployment:d2").unwrap().unwrap();
        for sql in [
            format!("EXPLAIN SELECT revision, body FROM revisions WHERE page_id = {id} ORDER BY revision"),
            format!("EXPLAIN SELECT * FROM revisions WHERE page_id = {id}"),
        ] {
            let plan = format!("{:?}", smr.sql(&sql).unwrap().rows);
            assert!(plan.contains("IndexSeek revisions via revisions_page"), "{plan}");
        }
        assert_eq!(smr.revisions("Deployment:d2").unwrap().len(), 2);
        assert!(smr.delete_page("Deployment:d2").unwrap());
        assert_eq!(smr.sql("SELECT * FROM revisions").unwrap().rows.len(), 1);
    }

    #[test]
    fn snapshot_without_value_num_migrates_on_load() {
        let dir = std::env::temp_dir().join(format!("smr_migrate_snap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repo.snap");
        let drafts = legacy_drafts();
        let mut db = Database::new();
        write_legacy(&mut db, &drafts);
        db.save(&path).unwrap();

        let mut loaded = Smr::load(&path).unwrap();
        let mut want = fresh(&drafts);
        assert_eq!(annotation_rows(&loaded), annotation_rows(&want));
        assert_eq!(loaded.pages().unwrap(), want.pages().unwrap());
        for (sql, path) in [
            (
                "EXPLAIN SELECT page_id FROM annotations \
                 WHERE attribute = 'x' AND value_num > 1.0",
                "RangeScan annotations via annotations_attr_num",
            ),
            (
                "EXPLAIN SELECT page_id FROM annotations WHERE value ILIKE '%bri%'",
                "TrigramSeek annotations via annotations_value_trgm",
            ),
        ] {
            let plan = format!("{:?}", loaded.sql(sql).unwrap().rows);
            assert!(plan.contains(path), "{plan}");
        }
        let revisions = loaded.db.table("revisions").unwrap();
        assert!(revisions.btree("revisions_page").is_some());
        // A rewrite keeps `value_num` as on a repository that never lacked it.
        rewrite(&mut loaded);
        rewrite(&mut want);
        assert_eq!(annotation_rows(&loaded), annotation_rows(&want));
        assert_eq!(
            loaded.get_page("Deployment:d2").unwrap(),
            want.get_page("Deployment:d2").unwrap()
        );
        assert_eq!(above_2000(&loaded), above_2000(&want));
        assert_eq!(above_2000(&loaded).len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_repository_without_value_num_migrates_in_its_log() {
        let dir = std::env::temp_dir().join(format!("smr_migrate_wal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repo.snap");
        let drafts = legacy_drafts();
        let (mut db, _) = Database::open_durable(&path).unwrap();
        write_legacy(&mut db, &drafts);
        drop(db);

        let (mut smr, _) = Smr::open_durable(&path).unwrap();
        rewrite(&mut smr);
        drop(smr);
        // The migration and the rewrite after it were both logged.
        let (reopened, _) = Smr::open_durable(&path).unwrap();
        let mut want = fresh(&drafts);
        rewrite(&mut want);
        assert_eq!(annotation_rows(&reopened), annotation_rows(&want));
        assert_eq!(reopened.pages().unwrap(), want.pages().unwrap());
        assert_eq!(above_2000(&reopened), above_2000(&want));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(Smr::load(std::path::Path::new("/nonexistent/x.snap")).is_err());
    }

    #[test]
    fn durable_open_survives_drop_without_save() {
        let dir = std::env::temp_dir().join("smr_durable_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repo.snap");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(sensormeta_relstore::wal_path_for(&path)).ok();

        let (mut smr, report) = Smr::open_durable(&path).unwrap();
        assert_eq!(report.replayed_ops, 0);
        smr.create_page(
            PageDraft::new("Deployment:d1", "Deployment")
                .annotate("measuresQuantity", "temperature")
                .tag("snow"),
        )
        .unwrap();
        // Drop without calling save(): the WAL alone must carry the state.
        drop(smr);

        let (restored, report) = Smr::open_durable(&path).unwrap();
        assert!(
            report.replayed_ops > 0,
            "page creation must be replayed from the log"
        );
        let p = restored.get_page("Deployment:d1").unwrap().unwrap();
        assert_eq!(p.tags, vec!["snow"]);
        // The mirror was rebuilt from replayed state too.
        let sols = restored
            .sparql(
                "PREFIX prop: <http://swiss-experiment.ch/property/> \
                 SELECT ?s WHERE { ?s prop:measuresQuantity \"temperature\" }",
            )
            .unwrap();
        assert_eq!(sols.len(), 1);
        // Read-only load sees the same recovered state.
        let ro = Smr::load(&path).unwrap();
        assert_eq!(ro.page_count(), 1);

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(sensormeta_relstore::wal_path_for(&path)).ok();
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;

    #[test]
    fn statistics_count_everything() {
        let mut smr = Smr::new();
        smr.create_page(
            PageDraft::new("Fieldsite:A", "Fieldsite")
                .annotate("x", "1")
                .annotate("y", "2")
                .tag("t1"),
        )
        .unwrap();
        smr.create_page(PageDraft::new("Deployment:B", "Deployment").link("Fieldsite:A"))
            .unwrap();
        smr.update_page(PageDraft::new("Deployment:B", "Deployment").body("v2"))
            .unwrap();
        let stats = smr.statistics().unwrap();
        assert_eq!(stats.pages, 2);
        assert_eq!(
            stats.pages_per_namespace,
            vec![("Deployment".to_string(), 1), ("Fieldsite".to_string(), 1)]
        );
        assert_eq!(stats.annotations, 2);
        assert_eq!(stats.links, 0, "update replaced satellites");
        assert_eq!(stats.tags, 1);
        assert_eq!(stats.revisions, 1);
        assert!(stats.triples >= 4, "type + title triples per page");
    }
}
