//! RDF terms and the interning dictionary.
//!
//! Terms are interned into dense `TermId`s so triples are stored as integer
//! triples — the standard dictionary-encoding design of RDF stores, which
//! makes index entries small and comparisons cheap.

use std::collections::HashMap;
use std::fmt;

/// Dense identifier of an interned term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(pub u64);

/// An RDF term.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// An IRI, stored in full (prefix expansion happens at parse time).
    Iri(String),
    /// A literal with optional language tag or datatype IRI.
    Literal {
        /// Lexical form.
        value: String,
        /// Language tag (`@en`), mutually exclusive with `datatype` in
        /// serialization.
        lang: Option<String>,
        /// Datatype IRI (`^^xsd:integer`).
        datatype: Option<String>,
    },
    /// A blank node with a local label.
    Blank(String),
}

impl Term {
    /// IRI constructor.
    pub fn iri(s: impl Into<String>) -> Term {
        Term::Iri(s.into())
    }

    /// Plain string literal.
    pub fn lit(s: impl Into<String>) -> Term {
        Term::Literal {
            value: s.into(),
            lang: None,
            datatype: None,
        }
    }

    /// Typed literal.
    pub fn typed(s: impl Into<String>, datatype: impl Into<String>) -> Term {
        Term::Literal {
            value: s.into(),
            lang: None,
            datatype: Some(datatype.into()),
        }
    }

    /// Integer literal with xsd:integer datatype.
    pub fn int(v: i64) -> Term {
        Term::typed(v.to_string(), "http://www.w3.org/2001/XMLSchema#integer")
    }

    /// Double literal with xsd:double datatype.
    pub fn double(v: f64) -> Term {
        Term::typed(v.to_string(), "http://www.w3.org/2001/XMLSchema#double")
    }

    /// True if the term is a literal.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal { .. })
    }

    /// True if the term is an IRI.
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// The literal's lexical value, if a literal.
    pub fn literal_value(&self) -> Option<&str> {
        match self {
            Term::Literal { value, .. } => Some(value),
            _ => None,
        }
    }

    /// Numeric interpretation of a literal, when it parses.
    pub fn as_number(&self) -> Option<f64> {
        self.literal_value().and_then(|v| v.parse().ok())
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(i) => write!(f, "<{i}>"),
            Term::Literal {
                value,
                lang,
                datatype,
            } => {
                write!(
                    f,
                    "\"{}\"",
                    value.replace('\\', "\\\\").replace('"', "\\\"")
                )?;
                if let Some(l) = lang {
                    write!(f, "@{l}")?;
                } else if let Some(d) = datatype {
                    write!(f, "^^<{d}>")?;
                }
                Ok(())
            }
            Term::Blank(b) => write!(f, "_:{b}"),
        }
    }
}

/// Bidirectional term ↔ id dictionary.
#[derive(Debug, Default, Clone)]
pub struct TermDict {
    terms: Vec<Term>,
    ids: HashMap<Term, TermId>,
}

impl TermDict {
    /// Creates an empty dictionary.
    pub fn new() -> TermDict {
        TermDict::default()
    }

    /// Interns a term, returning its id (stable across repeat calls).
    pub fn intern(&mut self, term: Term) -> TermId {
        if let Some(id) = self.ids.get(&term) {
            return *id;
        }
        let id = TermId(self.terms.len() as u64);
        self.terms.push(term.clone());
        self.ids.insert(term, id);
        id
    }

    /// Looks up an already-interned term.
    pub fn id_of(&self, term: &Term) -> Option<TermId> {
        self.ids.get(term).copied()
    }

    /// Resolves an id back to its term.
    pub fn term(&self, id: TermId) -> Option<&Term> {
        self.terms.get(usize::try_from(id.0).ok()?)
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when no terms are interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates all `(id, term)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (TermId(i as u64), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = TermDict::new();
        let a = d.intern(Term::iri("http://ex.org/a"));
        let b = d.intern(Term::iri("http://ex.org/b"));
        let a2 = d.intern(Term::iri("http://ex.org/a"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn literals_distinguished_by_lang_and_type() {
        let mut d = TermDict::new();
        let plain = d.intern(Term::lit("chat"));
        let fr = d.intern(Term::Literal {
            value: "chat".into(),
            lang: Some("fr".into()),
            datatype: None,
        });
        let typed = d.intern(Term::typed("chat", "http://ex.org/t"));
        assert_ne!(plain, fr);
        assert_ne!(plain, typed);
        assert_ne!(fr, typed);
    }

    #[test]
    fn roundtrip_id_to_term() {
        let mut d = TermDict::new();
        let t = Term::lit("Weissfluhjoch");
        let id = d.intern(t.clone());
        assert_eq!(d.term(id), Some(&t));
        assert_eq!(d.id_of(&t), Some(id));
        assert_eq!(d.term(TermId(999)), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Term::iri("http://x/a").to_string(), "<http://x/a>");
        assert_eq!(Term::lit("hi \"you\"").to_string(), "\"hi \\\"you\\\"\"");
        assert_eq!(
            Term::int(5).to_string(),
            "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
        assert_eq!(Term::Blank("b0".into()).to_string(), "_:b0");
    }

    #[test]
    fn numeric_interpretation() {
        assert_eq!(Term::int(42).as_number(), Some(42.0));
        assert_eq!(Term::lit("3.5").as_number(), Some(3.5));
        assert_eq!(Term::lit("abc").as_number(), None);
        assert_eq!(Term::iri("x").as_number(), None);
    }
}
