//! Page types and the bulk-load input formats.

use serde::{Deserialize, Serialize};

/// Input for creating or updating a metadata page.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PageDraft {
    /// Unique title, conventionally `Namespace:name`.
    pub title: String,
    /// Namespace / entity kind (e.g. `Deployment`).
    #[serde(default = "default_namespace")]
    pub namespace: String,
    /// Free-text body (wiki markup treated as plain text).
    #[serde(default)]
    pub body: String,
    /// Semantic (attribute, value) annotations.
    #[serde(default)]
    pub annotations: Vec<(String, String)>,
    /// Titles of pages this page links to.
    #[serde(default)]
    pub links: Vec<String>,
    /// User tags.
    #[serde(default)]
    pub tags: Vec<String>,
}

fn default_namespace() -> String {
    "Main".to_owned()
}

impl PageDraft {
    /// Creates a minimal draft.
    pub fn new(title: impl Into<String>, namespace: impl Into<String>) -> PageDraft {
        PageDraft {
            title: title.into(),
            namespace: namespace.into(),
            body: String::new(),
            annotations: Vec::new(),
            links: Vec::new(),
            tags: Vec::new(),
        }
    }

    /// Adds body text.
    pub fn body(mut self, body: impl Into<String>) -> PageDraft {
        self.body = body.into();
        self
    }

    /// Adds one annotation.
    pub fn annotate(mut self, attr: impl Into<String>, value: impl Into<String>) -> PageDraft {
        self.annotations.push((attr.into(), value.into()));
        self
    }

    /// Adds one wiki link.
    pub fn link(mut self, target: impl Into<String>) -> PageDraft {
        self.links.push(target.into());
        self
    }

    /// Adds one tag.
    pub fn tag(mut self, tag: impl Into<String>) -> PageDraft {
        self.tags.push(tag.into());
        self
    }
}

/// A stored metadata page as read back from the repository.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Page {
    /// Stable numeric id.
    pub id: i64,
    /// Unique title.
    pub title: String,
    /// Namespace.
    pub namespace: String,
    /// Current body text.
    pub body: String,
    /// Current revision number (1-based).
    pub revision: i64,
    /// Annotations.
    pub annotations: Vec<(String, String)>,
    /// Outgoing wiki links.
    pub links: Vec<String>,
    /// Tags.
    pub tags: Vec<String>,
}

/// A stored page as the draft that would write it again: the id and
/// revision go, everything else moves over.
impl From<Page> for PageDraft {
    fn from(p: Page) -> PageDraft {
        PageDraft {
            title: p.title,
            namespace: p.namespace,
            body: p.body,
            annotations: p.annotations,
            links: p.links,
            tags: p.tags,
        }
    }
}

/// Outcome of a bulk load (the paper's Bulk-loading Interface reports this
/// back to the uploader).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BulkReport {
    /// Pages newly created.
    pub created: usize,
    /// Pages that already existed and were updated in place.
    pub updated: usize,
    /// Inputs rejected, with the reason.
    pub errors: Vec<(String, String)>,
    /// True when a write failed and the whole load was rolled back:
    /// `created` and `updated` are 0, and every draft that passed the
    /// content checks is in `errors` with that failure.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub aborted: bool,
}

/// Parses a JSON-lines bulk file: one [`PageDraft`] object per line.
/// Malformed lines are reported, not fatal — a bulk upload of thousands of
/// rows must not die on row 17.
pub fn parse_jsonl(input: &str) -> (Vec<PageDraft>, Vec<(String, String)>) {
    let mut drafts = Vec::new();
    let mut errors = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match serde_json::from_str::<PageDraft>(line) {
            Ok(d) => drafts.push(d),
            Err(e) => errors.push((format!("line {}", lineno + 1), e.to_string())),
        }
    }
    (drafts, errors)
}

/// Parses a CSV bulk file with header
/// `title,namespace,body,annotations,links,tags`; `annotations` is
/// `attr=value|attr=value`, `links`/`tags` are `|`-separated. Quoted fields
/// with embedded commas are supported.
pub fn parse_csv(input: &str) -> (Vec<PageDraft>, Vec<(String, String)>) {
    let mut drafts = Vec::new();
    let mut errors = Vec::new();
    let mut lines = input.lines().enumerate();
    let Some((_, header)) = lines.next() else {
        return (drafts, errors);
    };
    let cols: Vec<String> = split_csv_line(header)
        .into_iter()
        .map(|s| s.trim().to_owned())
        .collect();
    let col_ix = |name: &str| cols.iter().position(|c| c.eq_ignore_ascii_case(name));
    let (Some(t_ix), ns_ix, b_ix, a_ix, l_ix, g_ix) = (
        col_ix("title"),
        col_ix("namespace"),
        col_ix("body"),
        col_ix("annotations"),
        col_ix("links"),
        col_ix("tags"),
    ) else {
        errors.push(("header".into(), "missing required `title` column".into()));
        return (drafts, errors);
    };
    for (lineno, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let fields = split_csv_line(line);
        let get = |ix: Option<usize>| ix.and_then(|i| fields.get(i)).cloned().unwrap_or_default();
        let title = get(Some(t_ix));
        if title.is_empty() {
            errors.push((format!("line {}", lineno + 1), "empty title".into()));
            continue;
        }
        let annotations = get(a_ix)
            .split('|')
            .filter(|s| !s.is_empty())
            .filter_map(|kv| {
                kv.split_once('=')
                    .map(|(a, v)| (a.trim().to_owned(), v.trim().to_owned()))
            })
            .collect();
        let split_list = |s: String| -> Vec<String> {
            s.split('|')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_owned)
                .collect()
        };
        drafts.push(PageDraft {
            title,
            namespace: {
                let ns = get(ns_ix);
                if ns.is_empty() {
                    default_namespace()
                } else {
                    ns
                }
            },
            body: get(b_ix),
            annotations,
            links: split_list(get(l_ix)),
            tags: split_list(get(g_ix)),
        });
    }
    (drafts, errors)
}

/// Splits one CSV line honoring double-quoted fields with `""` escapes.
fn split_csv_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    cur.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            }
            '"' => in_quotes = true,
            ',' if !in_quotes => {
                fields.push(std::mem::take(&mut cur));
            }
            c => cur.push(c),
        }
    }
    fields.push(cur);
    fields
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_parses_and_reports_bad_lines() {
        let input = r#"
{"title": "Fieldsite:Davos", "namespace": "Fieldsite", "annotations": [["hasElevation", "1594"]]}
# a comment
{"title": "broken"
{"title": "Project:x", "links": ["Fieldsite:Davos"], "tags": ["snow"]}
"#;
        let (drafts, errors) = parse_jsonl(input);
        assert_eq!(drafts.len(), 2);
        assert_eq!(errors.len(), 1);
        assert_eq!(drafts[0].annotations[0].0, "hasElevation");
        assert_eq!(drafts[1].namespace, "Main", "namespace defaults");
    }

    #[test]
    fn csv_roundtrip() {
        let input = "title,namespace,body,annotations,links,tags\n\
            Fieldsite:Davos,Fieldsite,\"Station at Davos, GR\",hasElevation=1594|canton=GR,Project:p1,snow|alpine\n\
            ,Fieldsite,missing title,,,\n";
        let (drafts, errors) = parse_csv(input);
        assert_eq!(drafts.len(), 1);
        assert_eq!(errors.len(), 1);
        let d = &drafts[0];
        assert_eq!(d.body, "Station at Davos, GR");
        assert_eq!(d.annotations.len(), 2);
        assert_eq!(d.links, vec!["Project:p1"]);
        assert_eq!(d.tags, vec!["snow", "alpine"]);
    }

    #[test]
    fn csv_quote_escapes() {
        let fields = split_csv_line("a,\"b\"\"c\",d");
        assert_eq!(fields, vec!["a", "b\"c", "d"]);
    }

    #[test]
    fn csv_missing_title_column() {
        let (drafts, errors) = parse_csv("name,body\nx,y\n");
        assert!(drafts.is_empty());
        assert_eq!(errors.len(), 1);
    }

    #[test]
    fn draft_builder() {
        let d = PageDraft::new("Deployment:x", "Deployment")
            .body("text")
            .annotate("hasUnit", "C")
            .link("Fieldsite:Davos")
            .tag("snow");
        assert_eq!(d.annotations.len(), 1);
        assert_eq!(d.links.len(), 1);
        assert_eq!(d.tags.len(), 1);
    }
}
