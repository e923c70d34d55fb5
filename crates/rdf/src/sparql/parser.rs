//! SPARQL SELECT parser (subset).
//!
//! Grammar supported:
//!
//! ```text
//! PREFIX ns: <iri> ...
//! SELECT [DISTINCT] (?v ... | *) WHERE {
//!     triple-pattern .
//!     FILTER ( expr ) .
//!     OPTIONAL { triple-pattern . ... } .
//! }
//! [ORDER BY (ASC(?v)|DESC(?v)|?v) ...] [LIMIT n] [OFFSET n]
//! ```

use super::ast::*;
use crate::error::{RdfError, Result};
use crate::term::Term;
use std::collections::HashMap;

/// Parses a SPARQL SELECT query.
pub fn parse_sparql(input: &str) -> Result<SelectQuery> {
    let mut p = Parser {
        chars: input.chars().collect(),
        pos: 0,
        prefixes: HashMap::new(),
    };
    p.query()
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
    prefixes: HashMap<String, String>,
}

impl Parser {
    fn err(&self, msg: impl Into<String>) -> RdfError {
        let ctx: String = self.chars[self.pos.min(self.chars.len())..]
            .iter()
            .take(24)
            .collect();
        RdfError::Sparql(format!("{} near `{}`", msg.into(), ctx))
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek() {
            if c.is_whitespace() {
                self.pos += 1;
            } else if c == '#' {
                while let Some(c) = self.peek() {
                    self.pos += 1;
                    if c == '\n' {
                        break;
                    }
                }
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn eat_char(&mut self, c: char) -> bool {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_char(&mut self, c: char) -> Result<()> {
        if self.eat_char(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{c}`")))
        }
    }

    fn keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let rest = &self.chars[self.pos..];
        if rest.len() < kw.len() {
            return false;
        }
        let matches = rest
            .iter()
            .zip(kw.chars())
            .all(|(a, b)| a.eq_ignore_ascii_case(&b));
        if !matches {
            return false;
        }
        // Must not be a prefix of a longer word.
        if rest
            .get(kw.len())
            .is_some_and(|c| c.is_alphanumeric() || *c == '_')
        {
            return false;
        }
        self.pos += kw.len();
        true
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword {kw}")))
        }
    }

    fn query(&mut self) -> Result<SelectQuery> {
        while self.keyword("PREFIX") {
            self.prefix_decl()?;
        }
        self.expect_keyword("SELECT")?;
        let distinct = self.keyword("DISTINCT");
        let mut vars = Vec::new();
        let mut aggregates = Vec::new();
        self.skip_ws();
        if self.eat_char('*') {
            // SELECT * — vars stay empty.
        } else {
            loop {
                self.skip_ws();
                if self.peek() == Some('(') {
                    aggregates.push(self.aggregate()?);
                    continue;
                }
                match self.try_var()? {
                    Some(v) => vars.push(v),
                    None => break,
                }
            }
            if vars.is_empty() && aggregates.is_empty() {
                return Err(self.err("SELECT needs variables, aggregates or *"));
            }
        }
        self.expect_keyword("WHERE")?;
        self.expect_char('{')?;
        let mut q = SelectQuery {
            distinct,
            vars,
            aggregates,
            group_by: Vec::new(),
            where_patterns: Vec::new(),
            filters: Vec::new(),
            optionals: Vec::new(),
            union_branches: Vec::new(),
            order_by: Vec::new(),
            limit: None,
            offset: None,
        };
        loop {
            self.skip_ws();
            if self.eat_char('}') {
                break;
            }
            if self.keyword("FILTER") {
                self.expect_char('(')?;
                let f = self.filter_expr()?;
                self.expect_char(')')?;
                q.filters.push(f);
                self.eat_char('.');
                continue;
            }
            if self.keyword("OPTIONAL") {
                self.expect_char('{')?;
                let mut block = Vec::new();
                loop {
                    self.skip_ws();
                    if self.eat_char('}') {
                        break;
                    }
                    block.push(self.triple_pattern()?);
                    self.eat_char('.');
                }
                if block.is_empty() {
                    return Err(self.err("empty OPTIONAL block"));
                }
                q.optionals.push(block);
                self.eat_char('.');
                continue;
            }
            if self.peek() == Some('{') {
                if !q.union_branches.is_empty() {
                    return Err(self.err("only one UNION clause is supported"));
                }
                q.union_branches.push(self.brace_block()?);
                loop {
                    if !self.keyword("UNION") {
                        break;
                    }
                    q.union_branches.push(self.brace_block()?);
                }
                if q.union_branches.len() < 2 {
                    return Err(self.err("a brace group must be followed by UNION"));
                }
                self.eat_char('.');
                continue;
            }
            q.where_patterns.push(self.triple_pattern()?);
            self.eat_char('.');
        }
        if self.keyword("GROUP") {
            self.expect_keyword("BY")?;
            while let Some(v) = self.try_var()? {
                q.group_by.push(v);
            }
            if q.group_by.is_empty() {
                return Err(self.err("GROUP BY needs at least one variable"));
            }
        }
        if !q.aggregates.is_empty() {
            // Grouped query: every plain projected var must be a group key.
            for v in &q.vars {
                if !q.group_by.contains(v) {
                    return Err(self.err(format!(
                        "variable ?{v} must appear in GROUP BY when aggregating"
                    )));
                }
            }
        }
        if self.keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                self.skip_ws();
                if self.keyword("DESC") {
                    self.expect_char('(')?;
                    let v = self.var()?;
                    self.expect_char(')')?;
                    q.order_by.push((v, true));
                } else if self.keyword("ASC") {
                    self.expect_char('(')?;
                    let v = self.var()?;
                    self.expect_char(')')?;
                    q.order_by.push((v, false));
                } else if let Some(v) = self.try_var()? {
                    q.order_by.push((v, false));
                } else {
                    break;
                }
            }
            if q.order_by.is_empty() {
                return Err(self.err("ORDER BY needs at least one key"));
            }
        }
        if self.keyword("LIMIT") {
            q.limit = Some(self.count()?);
        }
        if self.keyword("OFFSET") {
            q.offset = Some(self.count()?);
        }
        self.skip_ws();
        if self.pos < self.chars.len() {
            return Err(self.err("trailing input after query"));
        }
        Ok(q)
    }

    /// Parses `(COUNT(?x) AS ?n)` / `(SUM(DISTINCT ?x) AS ?s)` / `(COUNT(*) AS ?n)`.
    fn aggregate(&mut self) -> Result<Aggregate> {
        self.expect_char('(')?;
        let kind = if self.keyword("COUNT") {
            AggKind::Count
        } else if self.keyword("SUM") {
            AggKind::Sum
        } else if self.keyword("AVG") {
            AggKind::Avg
        } else if self.keyword("MIN") {
            AggKind::Min
        } else if self.keyword("MAX") {
            AggKind::Max
        } else {
            return Err(self.err("expected aggregate function"));
        };
        self.expect_char('(')?;
        let distinct = self.keyword("DISTINCT");
        self.skip_ws();
        let var = if self.eat_char('*') {
            if kind != AggKind::Count {
                return Err(self.err("only COUNT accepts *"));
            }
            None
        } else {
            Some(self.var()?)
        };
        self.expect_char(')')?;
        self.expect_keyword("AS")?;
        let alias = self.var()?;
        self.expect_char(')')?;
        Ok(Aggregate {
            kind,
            var,
            alias,
            distinct,
        })
    }

    /// Parses `{ pattern . FILTER(…) . … }` into a UNION branch.
    fn brace_block(&mut self) -> Result<UnionBranch> {
        self.expect_char('{')?;
        let mut patterns = Vec::new();
        let mut filters = Vec::new();
        loop {
            self.skip_ws();
            if self.eat_char('}') {
                break;
            }
            if self.keyword("FILTER") {
                self.expect_char('(')?;
                filters.push(self.filter_expr()?);
                self.expect_char(')')?;
                self.eat_char('.');
                continue;
            }
            patterns.push(self.triple_pattern()?);
            self.eat_char('.');
        }
        if patterns.is_empty() {
            return Err(self.err("empty brace block"));
        }
        Ok(UnionBranch { patterns, filters })
    }

    fn prefix_decl(&mut self) -> Result<()> {
        self.skip_ws();
        let mut name = String::new();
        while let Some(c) = self.peek() {
            if c == ':' {
                break;
            }
            if c.is_whitespace() {
                return Err(self.err("bad prefix name"));
            }
            name.push(c);
            self.pos += 1;
        }
        self.expect_char(':')?;
        self.skip_ws();
        self.expect_char('<')?;
        let mut iri = String::new();
        while let Some(c) = self.peek() {
            self.pos += 1;
            if c == '>' {
                self.prefixes.insert(name, iri);
                return Ok(());
            }
            iri.push(c);
        }
        Err(self.err("unterminated IRI in PREFIX"))
    }

    fn try_var(&mut self) -> Result<Option<String>> {
        self.skip_ws();
        if self.peek() != Some('?') {
            return Ok(None);
        }
        self.var().map(Some)
    }

    fn var(&mut self) -> Result<String> {
        self.skip_ws();
        if self.peek() != Some('?') {
            return Err(self.err("expected variable"));
        }
        self.pos += 1;
        let mut name = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' {
                name.push(c);
                self.pos += 1;
            } else {
                break;
            }
        }
        if name.is_empty() {
            return Err(self.err("empty variable name"));
        }
        Ok(name)
    }

    fn integer(&mut self) -> Result<i64> {
        self.skip_ws();
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || (text.is_empty() && c == '-') {
                text.push(c);
                self.pos += 1;
            } else {
                break;
            }
        }
        text.parse().map_err(|_| self.err("expected integer"))
    }

    /// A LIMIT or OFFSET count, which may not be negative.
    fn count(&mut self) -> Result<usize> {
        let n = self.integer()?;
        usize::try_from(n)
            .map_err(|_| self.err(format!("expected a non-negative count, found {n}")))
    }

    fn triple_pattern(&mut self) -> Result<TriplePattern> {
        let s = self.pattern_term()?;
        let p = self.pattern_term()?;
        let o = self.pattern_term()?;
        Ok(TriplePattern { s, p, o })
    }

    fn pattern_term(&mut self) -> Result<PatternTerm> {
        self.skip_ws();
        match self.peek() {
            Some('?') => Ok(PatternTerm::Var(self.var()?)),
            _ => Ok(PatternTerm::Term(self.term()?)),
        }
    }

    fn term(&mut self) -> Result<Term> {
        self.skip_ws();
        match self.peek() {
            Some('<') => {
                self.pos += 1;
                let mut iri = String::new();
                while let Some(c) = self.peek() {
                    self.pos += 1;
                    if c == '>' {
                        return Ok(Term::Iri(iri));
                    }
                    iri.push(c);
                }
                Err(self.err("unterminated IRI"))
            }
            Some('"') => {
                self.pos += 1;
                let mut value = String::new();
                loop {
                    match self.peek() {
                        Some('"') => {
                            self.pos += 1;
                            break;
                        }
                        Some('\\') => {
                            self.pos += 1;
                            match self.peek() {
                                Some('"') => value.push('"'),
                                Some('\\') => value.push('\\'),
                                Some('n') => value.push('\n'),
                                other => return Err(self.err(format!("bad escape {other:?}"))),
                            }
                            self.pos += 1;
                        }
                        Some(c) => {
                            value.push(c);
                            self.pos += 1;
                        }
                        None => return Err(self.err("unterminated literal")),
                    }
                }
                if self.peek() == Some('^') {
                    self.pos += 1;
                    if self.peek() != Some('^') {
                        return Err(self.err("expected ^^"));
                    }
                    self.pos += 1;
                    let Term::Iri(dt) = self.term()? else {
                        return Err(self.err("datatype must be an IRI"));
                    };
                    return Ok(Term::typed(value, dt));
                }
                if self.peek() == Some('@') {
                    self.pos += 1;
                    let mut lang = String::new();
                    while let Some(c) = self.peek() {
                        if c.is_alphanumeric() || c == '-' {
                            lang.push(c);
                            self.pos += 1;
                        } else {
                            break;
                        }
                    }
                    return Ok(Term::Literal {
                        value,
                        lang: Some(lang),
                        datatype: None,
                    });
                }
                Ok(Term::lit(value))
            }
            Some(c) if c.is_ascii_digit() || c == '-' => {
                let mut text = String::new();
                let mut decimal = false;
                while let Some(c) = self.peek() {
                    if c.is_ascii_digit() || (text.is_empty() && c == '-') {
                        text.push(c);
                        self.pos += 1;
                    } else if c == '.'
                        && !decimal
                        && self
                            .chars
                            .get(self.pos + 1)
                            .is_some_and(|d| d.is_ascii_digit())
                    {
                        decimal = true;
                        text.push(c);
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                Ok(Term::typed(
                    text,
                    if decimal {
                        "http://www.w3.org/2001/XMLSchema#decimal"
                    } else {
                        "http://www.w3.org/2001/XMLSchema#integer"
                    },
                ))
            }
            Some('a')
                if self
                    .chars
                    .get(self.pos + 1)
                    .is_none_or(|c| c.is_whitespace()) =>
            {
                self.pos += 1;
                Ok(Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"))
            }
            Some(c) if c.is_alphabetic() || c == '_' => {
                let mut prefix = String::new();
                while let Some(c) = self.peek() {
                    if c == ':' {
                        break;
                    }
                    if c.is_alphanumeric() || c == '_' || c == '-' {
                        prefix.push(c);
                        self.pos += 1;
                    } else {
                        return Err(self.err(format!("unexpected `{c}` in name")));
                    }
                }
                self.expect_char(':')?;
                let mut local = String::new();
                while let Some(c) = self.peek() {
                    if c.is_alphanumeric() || c == '_' || c == '-' {
                        local.push(c);
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                if prefix == "_" {
                    return Ok(Term::Blank(local));
                }
                let base = self
                    .prefixes
                    .get(&prefix)
                    .ok_or_else(|| self.err(format!("unknown prefix `{prefix}:`")))?;
                Ok(Term::Iri(format!("{base}{local}")))
            }
            other => Err(self.err(format!("unexpected term start {other:?}"))),
        }
    }

    // ----- filters -----

    fn filter_expr(&mut self) -> Result<FilterExpr> {
        let mut lhs = self.filter_and()?;
        loop {
            self.skip_ws();
            if self.peek() == Some('|') && self.chars.get(self.pos + 1) == Some(&'|') {
                self.pos += 2;
                let rhs = self.filter_and()?;
                lhs = FilterExpr::Or(Box::new(lhs), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn filter_and(&mut self) -> Result<FilterExpr> {
        let mut lhs = self.filter_unary()?;
        loop {
            self.skip_ws();
            if self.peek() == Some('&') && self.chars.get(self.pos + 1) == Some(&'&') {
                self.pos += 2;
                let rhs = self.filter_unary()?;
                lhs = FilterExpr::And(Box::new(lhs), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn filter_unary(&mut self) -> Result<FilterExpr> {
        self.skip_ws();
        if self.peek() == Some('!') && self.chars.get(self.pos + 1) != Some(&'=') {
            self.pos += 1;
            return Ok(FilterExpr::Not(Box::new(self.filter_unary()?)));
        }
        if self.eat_char('(') {
            let inner = self.filter_expr()?;
            self.expect_char(')')?;
            return Ok(inner);
        }
        // Function-style filters.
        for (kw, kind) in [
            ("CONTAINS", 0u8),
            ("STRSTARTS", 1),
            ("REGEX", 2),
            ("BOUND", 3),
            ("ISIRI", 4),
            ("ISLITERAL", 5),
        ] {
            if self.keyword(kw) {
                self.expect_char('(')?;
                match kind {
                    0 | 1 => {
                        let a = self.operand()?;
                        self.expect_char(',')?;
                        let b = self.operand()?;
                        self.expect_char(')')?;
                        return Ok(if kind == 0 {
                            FilterExpr::Contains(a, b)
                        } else {
                            FilterExpr::StrStarts(a, b)
                        });
                    }
                    2 => {
                        let a = self.operand()?;
                        self.expect_char(',')?;
                        let Operand::Const(Term::Literal { value, .. }) = self.operand()? else {
                            return Err(self.err("REGEX pattern must be a string literal"));
                        };
                        self.expect_char(')')?;
                        return Ok(FilterExpr::Regex(a, value));
                    }
                    3 => {
                        let v = self.var()?;
                        self.expect_char(')')?;
                        return Ok(FilterExpr::Bound(v));
                    }
                    4 | 5 => {
                        let a = self.operand()?;
                        self.expect_char(')')?;
                        return Ok(if kind == 4 {
                            FilterExpr::IsIri(a)
                        } else {
                            FilterExpr::IsLiteral(a)
                        });
                    }
                    _ => unreachable!(),
                }
            }
        }
        // Comparison.
        let lhs = self.operand()?;
        self.skip_ws();
        let op = if self.peek() == Some('!') && self.chars.get(self.pos + 1) == Some(&'=') {
            self.pos += 2;
            CmpOp::Neq
        } else if self.eat_char('=') {
            CmpOp::Eq
        } else if self.eat_char('<') {
            if self.eat_char('=') {
                CmpOp::Le
            } else {
                CmpOp::Lt
            }
        } else if self.eat_char('>') {
            if self.eat_char('=') {
                CmpOp::Ge
            } else {
                CmpOp::Gt
            }
        } else {
            return Err(self.err("expected comparison operator"));
        };
        let rhs = self.operand()?;
        Ok(FilterExpr::Cmp { op, lhs, rhs })
    }

    fn operand(&mut self) -> Result<Operand> {
        self.skip_ws();
        if self.peek() == Some('?') {
            Ok(Operand::Var(self.var()?))
        } else {
            Ok(Operand::Const(self.term()?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_query() {
        let q = parse_sparql(
            "PREFIX ex: <http://e/>\n\
             SELECT ?station ?kind WHERE {\n\
               ?station ex:hasSensor ?s .\n\
               ?s ex:kind ?kind .\n\
             } ORDER BY ?station LIMIT 10",
        )
        .unwrap();
        assert_eq!(q.vars, vec!["station", "kind"]);
        assert_eq!(q.where_patterns.len(), 2);
        assert_eq!(q.order_by, vec![("station".into(), false)]);
        assert_eq!(q.limit, Some(10));
        assert!(!q.distinct);
    }

    #[test]
    fn select_star_and_distinct() {
        let q = parse_sparql("SELECT DISTINCT * WHERE { ?s ?p ?o }").unwrap();
        assert!(q.distinct);
        assert!(q.vars.is_empty());
        assert_eq!(q.where_patterns.len(), 1);
    }

    #[test]
    fn filters() {
        let q = parse_sparql(
            "PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:elev ?e . \
             FILTER (?e > 2000 && CONTAINS(?s, \"joch\") || !BOUND(?e)) }",
        )
        .unwrap();
        assert_eq!(q.filters.len(), 1);
        assert!(matches!(q.filters[0], FilterExpr::Or(_, _)));
    }

    #[test]
    fn optional_blocks() {
        let q = parse_sparql(
            "PREFIX ex: <http://e/> SELECT ?s ?n WHERE { ?s a ex:Station . \
             OPTIONAL { ?s ex:name ?n } }",
        )
        .unwrap();
        assert_eq!(q.optionals.len(), 1);
        assert_eq!(q.where_patterns.len(), 1);
        // `a` expanded to rdf:type.
        assert_eq!(
            q.where_patterns[0].p,
            PatternTerm::Term(Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"))
        );
    }

    #[test]
    fn desc_order_and_offset() {
        let q = parse_sparql("SELECT ?s WHERE { ?s ?p ?o } ORDER BY DESC(?s) ?o LIMIT 5 OFFSET 2")
            .unwrap();
        assert_eq!(q.order_by, vec![("s".into(), true), ("o".into(), false)]);
        assert_eq!(q.offset, Some(2));
    }

    #[test]
    fn literals_in_patterns() {
        let q = parse_sparql(
            "PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:name \"Davos\" . ?s ex:elev 1594 }",
        )
        .unwrap();
        assert_eq!(q.where_patterns[0].o, PatternTerm::Term(Term::lit("Davos")));
        assert_eq!(q.where_patterns[1].o, PatternTerm::Term(Term::int(1594)));
    }

    #[test]
    fn errors() {
        assert!(parse_sparql("SELECT WHERE { ?s ?p ?o }").is_err());
        assert!(parse_sparql("SELECT ?s { ?s ?p ?o }").is_err());
        assert!(
            parse_sparql("SELECT ?s WHERE { ?s ex:p ?o }").is_err(),
            "unknown prefix"
        );
        assert!(parse_sparql("SELECT ?s WHERE { ?s ?p ?o } garbage").is_err());
    }

    #[test]
    fn negative_limit_and_offset_are_errors() {
        let base = "SELECT ?s WHERE { ?s ?p ?o }";
        for tail in ["LIMIT -1", "OFFSET -1", "LIMIT 5 OFFSET -2"] {
            let err = parse_sparql(&format!("{base} {tail}")).unwrap_err();
            assert!(err.to_string().contains("non-negative"), "{tail}: {err}");
        }
        let q = parse_sparql(&format!("{base} LIMIT 0 OFFSET 0")).unwrap();
        assert_eq!((q.limit, q.offset), (Some(0), Some(0)));
    }
}
