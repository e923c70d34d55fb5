//! The advanced-search form model.
//!
//! Mirrors the paper's query interface: free keyword search plus structured
//! conditions over semantic attributes, namespace scoping, sort controls
//! ("basic search options (e.g., keyword, sort by, order by)"), and paging.

use serde::{Deserialize, Serialize};

/// Comparison operator of one attribute condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum CondOp {
    /// Exact (case-insensitive) value equality.
    Eq,
    /// Value contains the given substring.
    Contains,
    /// Numeric greater-than.
    Gt,
    /// Numeric less-than.
    Lt,
    /// Numeric inclusive range; `value` holds `"lo..hi"`.
    Between,
}

/// One structured condition over a semantic attribute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Condition {
    /// Attribute name (e.g. `hasElevation`).
    pub attribute: String,
    /// Operator.
    pub op: CondOp,
    /// Comparison value (numeric ops parse it as f64).
    pub value: String,
}

impl Condition {
    /// Convenience constructor.
    pub fn new(attribute: impl Into<String>, op: CondOp, value: impl Into<String>) -> Condition {
        Condition {
            attribute: attribute.into(),
            op,
            value: value.into(),
        }
    }

    /// Evaluates the condition against one annotation value.
    pub fn matches(&self, value: &str) -> bool {
        self.matcher().matches(value)
    }

    /// The condition prepared for testing many values: its operand is
    /// parsed (numeric ops) or lowercased (`contains`) once.
    pub fn matcher(&self) -> Matcher<'_> {
        Matcher(match self.numeric() {
            Some(range) => Prepared::Numeric(range),
            None if self.op == CondOp::Contains => Prepared::Contains(self.value.to_lowercase()),
            None => Prepared::Eq(&self.value),
        })
    }

    /// What a numeric op (`gt`, `lt`, `between`) accepts, with its operand
    /// read by `str::parse::<f64>` — the parse the repository's
    /// `annotations.value_num` also applies, so `" 7"` is not a number and
    /// `"inf"`, `"1e400"` are infinite; `None` for `eq` and `contains`. A
    /// NaN operand accepts nothing, as no comparison with NaN holds.
    pub(crate) fn numeric(&self) -> Option<Numeric> {
        let num = |s: &str| s.parse::<f64>().ok().filter(|v| !v.is_nan());
        let range = match self.op {
            CondOp::Eq | CondOp::Contains => return None,
            CondOp::Gt => num(&self.value).map(Numeric::Above),
            CondOp::Lt => num(&self.value).map(Numeric::Below),
            CondOp::Between => self
                .value
                .split_once("..")
                .and_then(|(lo, hi)| Some(Numeric::Within(num(lo.trim())?, num(hi.trim())?))),
        };
        Some(range.unwrap_or(Numeric::Nothing))
    }
}

/// The values a numeric condition accepts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Numeric {
    /// Greater than the bound.
    Above(f64),
    /// Less than the bound.
    Below(f64),
    /// Within `lo..=hi` (nothing when `lo > hi`).
    Within(f64, f64),
    /// None: the operand does not parse or is NaN.
    Nothing,
}

impl Numeric {
    /// Whether the number `v` is accepted.
    fn accepts(self, v: f64) -> bool {
        match self {
            Numeric::Above(b) => v > b,
            Numeric::Below(b) => v < b,
            Numeric::Within(lo, hi) => v >= lo && v <= hi,
            Numeric::Nothing => false,
        }
    }
}

/// A [`Condition`] prepared by [`Condition::matcher`].
#[derive(Debug, Clone)]
pub struct Matcher<'c>(Prepared<'c>);

/// The operand of each op in the form its test needs.
#[derive(Debug, Clone)]
enum Prepared<'c> {
    Eq(&'c str),
    Contains(String),
    Numeric(Numeric),
}

impl Matcher<'_> {
    /// Evaluates the condition against one annotation value.
    pub fn matches(&self, value: &str) -> bool {
        match &self.0 {
            Prepared::Eq(want) => value.eq_ignore_ascii_case(want),
            Prepared::Contains(needle) => value.to_lowercase().contains(needle.as_str()),
            Prepared::Numeric(range) => value.parse::<f64>().is_ok_and(|v| range.accepts(v)),
        }
    }
}

/// Result ordering.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum SortBy {
    /// Blended relevance (BM25 × PageRank) — the system's ranking metric.
    #[default]
    Relevance,
    /// Pure PageRank authority.
    PageRank,
    /// Page title.
    Title,
    /// A semantic attribute's value (numeric when parseable).
    Attribute(String),
}

/// The full advanced-search request.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SearchForm {
    /// Free-text keywords (empty = structured-only query).
    #[serde(default)]
    pub keywords: String,
    /// Structured attribute conditions (AND semantics).
    #[serde(default)]
    pub conditions: Vec<Condition>,
    /// Restrict to one namespace (None = all readable).
    #[serde(default)]
    pub namespace: Option<String>,
    /// Sort key.
    #[serde(default)]
    pub sort_by: SortBy,
    /// Descending order?
    #[serde(default)]
    pub descending: bool,
    /// Maximum results (0 = default 50).
    #[serde(default)]
    pub limit: usize,
    /// Require all keywords (conjunctive) instead of any.
    #[serde(default)]
    pub match_all: bool,
    /// Geographic bounding box `(lat_min, lat_max, lon_min, lon_max)`:
    /// map-based browsing restricts results to geolocated pages inside it.
    #[serde(default)]
    pub region: Option<(f64, f64, f64, f64)>,
    /// When true, conditions are soft join predicates: pages matching at
    /// least one are kept and their *degree of matching* (fraction of
    /// conditions satisfied) is reported — the quantity the map view colors
    /// by. When false (default), conditions are a hard AND filter.
    #[serde(default)]
    pub soft_conditions: bool,
}

impl SearchForm {
    /// A keyword-only form.
    pub fn keywords(q: impl Into<String>) -> SearchForm {
        SearchForm {
            keywords: q.into(),
            ..SearchForm::default()
        }
    }

    /// Adds a condition (builder style).
    pub fn condition(mut self, c: Condition) -> SearchForm {
        self.conditions.push(c);
        self
    }

    /// Effective limit.
    pub fn effective_limit(&self) -> usize {
        if self.limit == 0 {
            50
        } else {
            self.limit
        }
    }

    /// True when the form expresses no constraint at all.
    pub fn is_empty(&self) -> bool {
        self.keywords.trim().is_empty()
            && self.conditions.is_empty()
            && self.namespace.is_none()
            && self.region.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn condition_ops() {
        assert!(Condition::new("a", CondOp::Eq, "Temperature").matches("temperature"));
        assert!(Condition::new("a", CondOp::Contains, "emp").matches("Temperature"));
        assert!(Condition::new("a", CondOp::Gt, "2000").matches("2693"));
        assert!(!Condition::new("a", CondOp::Gt, "3000").matches("2693"));
        assert!(Condition::new("a", CondOp::Lt, "3000").matches("2693"));
        assert!(Condition::new("a", CondOp::Between, "1000..3000").matches("2693"));
        assert!(!Condition::new("a", CondOp::Between, "1000..2000").matches("2693"));
    }

    /// `Condition::matches` as it was before operands were prepared once.
    fn reference_matches(c: &Condition, value: &str) -> bool {
        match c.op {
            CondOp::Eq => value.eq_ignore_ascii_case(&c.value),
            CondOp::Contains => value.to_lowercase().contains(&c.value.to_lowercase()),
            CondOp::Gt => match (value.parse::<f64>(), c.value.parse::<f64>()) {
                (Ok(a), Ok(b)) => a > b,
                _ => false,
            },
            CondOp::Lt => match (value.parse::<f64>(), c.value.parse::<f64>()) {
                (Ok(a), Ok(b)) => a < b,
                _ => false,
            },
            CondOp::Between => {
                let Some((lo, hi)) = c.value.split_once("..") else {
                    return false;
                };
                match (
                    value.parse::<f64>(),
                    lo.trim().parse::<f64>(),
                    hi.trim().parse::<f64>(),
                ) {
                    (Ok(v), Ok(lo), Ok(hi)) => v >= lo && v <= hi,
                    _ => false,
                }
            }
        }
    }

    #[test]
    fn prepared_matcher_agrees_with_the_reference() {
        let values = [
            "5", "-3", "2.5", "1e3", " 7", "NaN", "inf", "-inf", "abc", "Temp", "TEMP", "Zürich",
            "ZÜRICH", "50%", "", "1..5", "0", "-0",
        ];
        let operands = [
            "5",
            "-3",
            "2.5",
            " 7",
            "NaN",
            "inf",
            "abc",
            "temp",
            "zürich",
            "%",
            "",
            "1..5",
            "-5..5",
            " 0 .. 100 ",
            "-inf..inf",
            "NaN..5",
            "junk",
            "5..1",
        ];
        let ops = [
            CondOp::Eq,
            CondOp::Contains,
            CondOp::Gt,
            CondOp::Lt,
            CondOp::Between,
        ];
        for op in ops {
            for operand in operands {
                let c = Condition::new("a", op, operand);
                let m = c.matcher();
                for v in values {
                    assert_eq!(
                        m.matches(v),
                        reference_matches(&c, v),
                        "{op:?} {operand:?} on {v:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn non_numeric_comparisons_fail_closed() {
        assert!(!Condition::new("a", CondOp::Gt, "10").matches("abc"));
        assert!(!Condition::new("a", CondOp::Between, "junk").matches("5"));
        assert!(!Condition::new("a", CondOp::Between, "1..x").matches("5"));
    }

    #[test]
    fn form_defaults() {
        let f = SearchForm::keywords("snow");
        assert_eq!(f.effective_limit(), 50);
        assert!(!f.is_empty());
        assert!(SearchForm::default().is_empty());
        assert_eq!(f.sort_by, SortBy::Relevance);
    }

    #[test]
    fn form_serde_roundtrip() {
        let f = SearchForm::keywords("snow").condition(Condition::new(
            "hasElevation",
            CondOp::Gt,
            "2000",
        ));
        let json = serde_json::to_string(&f).unwrap();
        let back: SearchForm = serde_json::from_str(&json).unwrap();
        assert_eq!(f, back);
    }

    #[test]
    fn form_deserializes_with_missing_fields() {
        let f: SearchForm = serde_json::from_str(r#"{"keywords": "wind"}"#).unwrap();
        assert_eq!(f.keywords, "wind");
        assert!(f.conditions.is_empty());
    }
}
