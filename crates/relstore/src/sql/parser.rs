//! Recursive-descent SQL parser.

use super::ast::*;
use super::lexer::{lex, Sym, Token};
use crate::error::{RelError, Result};
use crate::value::{DataType, Value};

/// Parses one SQL statement (a trailing semicolon is allowed).
pub fn parse(sql: &str) -> Result<Statement> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.eat_symbol(Sym::Semicolon);
    if !p.at_end() {
        return Err(RelError::Parse(format!(
            "unexpected trailing tokens starting at {:?}",
            p.peek()
        )));
    }
    Ok(stmt)
}

/// Parses a semicolon-separated script into statements.
pub fn parse_script(sql: &str) -> Result<Vec<Statement>> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut out = Vec::new();
    while !p.at_end() {
        if p.eat_symbol(Sym::Semicolon) {
            continue;
        }
        out.push(p.statement()?);
        if !p.at_end() && !p.eat_symbol(Sym::Semicolon) {
            return Err(RelError::Parse(format!(
                "expected `;` between statements, found {:?}",
                p.peek()
            )));
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(RelError::Parse(format!(
                "expected keyword {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn eat_symbol(&mut self, s: Sym) -> bool {
        if matches!(self.peek(), Some(Token::Symbol(x)) if *x == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: Sym) -> Result<()> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(RelError::Parse(format!(
                "expected {s:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn identifier(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            Some(Token::QuotedIdent(s)) => Ok(s),
            other => Err(RelError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.eat_keyword("CREATE") {
            if self.eat_keyword("TABLE") {
                return self.create_table();
            }
            let unique = self.eat_keyword("UNIQUE");
            let trigram = !unique && self.eat_keyword("TRIGRAM");
            if self.eat_keyword("INDEX") {
                return self.create_index(unique, trigram);
            }
            return Err(RelError::Parse(
                "expected TABLE or [UNIQUE|TRIGRAM] INDEX after CREATE".into(),
            ));
        }
        if self.eat_keyword("DROP") {
            self.expect_keyword("TABLE")?;
            let if_exists = if self.eat_keyword("IF") {
                self.expect_keyword("EXISTS")?;
                true
            } else {
                false
            };
            let name = self.identifier()?;
            return Ok(Statement::DropTable { name, if_exists });
        }
        if self.eat_keyword("INSERT") {
            return self.insert();
        }
        if self.eat_keyword("UPDATE") {
            return self.update();
        }
        if self.eat_keyword("DELETE") {
            return self.delete();
        }
        if self.peek_keyword("SELECT") {
            return Ok(Statement::Select(self.select()?));
        }
        if self.eat_keyword("EXPLAIN") {
            return Ok(Statement::Explain(self.select()?));
        }
        Err(RelError::Parse(format!(
            "expected a statement, found {:?}",
            self.peek()
        )))
    }

    fn create_table(&mut self) -> Result<Statement> {
        let if_not_exists = if self.eat_keyword("IF") {
            self.expect_keyword("NOT")?;
            self.expect_keyword("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.identifier()?;
        self.expect_symbol(Sym::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.identifier()?;
            let ty = self.data_type()?;
            let mut def = ColumnDef {
                name: col_name,
                ty,
                not_null: false,
                unique: false,
                primary_key: false,
            };
            loop {
                if self.eat_keyword("PRIMARY") {
                    self.expect_keyword("KEY")?;
                    def.primary_key = true;
                } else if self.eat_keyword("NOT") {
                    self.expect_keyword("NULL")?;
                    def.not_null = true;
                } else if self.eat_keyword("UNIQUE") {
                    def.unique = true;
                } else {
                    break;
                }
            }
            columns.push(def);
            if !self.eat_symbol(Sym::Comma) {
                break;
            }
        }
        self.expect_symbol(Sym::RParen)?;
        Ok(Statement::CreateTable {
            name,
            columns,
            if_not_exists,
        })
    }

    fn data_type(&mut self) -> Result<DataType> {
        let name = self.identifier()?;
        match name.to_ascii_uppercase().as_str() {
            "INTEGER" | "INT" | "BIGINT" => Ok(DataType::Integer),
            "FLOAT" | "REAL" | "DOUBLE" => Ok(DataType::Float),
            "TEXT" | "VARCHAR" | "STRING" => Ok(DataType::Text),
            "BOOLEAN" | "BOOL" => Ok(DataType::Boolean),
            other => Err(RelError::Parse(format!("unknown type `{other}`"))),
        }
    }

    fn create_index(&mut self, unique: bool, trigram: bool) -> Result<Statement> {
        let name = self.identifier()?;
        self.expect_keyword("ON")?;
        let table = self.identifier()?;
        self.expect_symbol(Sym::LParen)?;
        let mut columns = vec![self.identifier()?];
        while self.eat_symbol(Sym::Comma) {
            columns.push(self.identifier()?);
        }
        self.expect_symbol(Sym::RParen)?;
        if trigram && columns.len() != 1 {
            return Err(RelError::Parse(
                "TRIGRAM INDEX covers exactly one column".into(),
            ));
        }
        Ok(Statement::CreateIndex {
            name,
            table,
            columns,
            unique,
            trigram,
        })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_keyword("INTO")?;
        let table = self.identifier()?;
        let columns = if self.eat_symbol(Sym::LParen) {
            let mut cols = vec![self.identifier()?];
            while self.eat_symbol(Sym::Comma) {
                cols.push(self.identifier()?);
            }
            self.expect_symbol(Sym::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_keyword("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_symbol(Sym::LParen)?;
            let mut row = vec![self.expr()?];
            while self.eat_symbol(Sym::Comma) {
                row.push(self.expr()?);
            }
            self.expect_symbol(Sym::RParen)?;
            rows.push(row);
            if !self.eat_symbol(Sym::Comma) {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    fn update(&mut self) -> Result<Statement> {
        let table = self.identifier()?;
        self.expect_keyword("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.identifier()?;
            self.expect_symbol(Sym::Eq)?;
            sets.push((col, self.expr()?));
            if !self.eat_symbol(Sym::Comma) {
                break;
            }
        }
        let predicate = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            sets,
            predicate,
        })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_keyword("FROM")?;
        let table = self.identifier()?;
        let predicate = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, predicate })
    }

    fn select(&mut self) -> Result<SelectStmt> {
        self.expect_keyword("SELECT")?;
        let distinct = self.eat_keyword("DISTINCT");
        let mut projection = vec![self.select_item()?];
        while self.eat_symbol(Sym::Comma) {
            projection.push(self.select_item()?);
        }
        let from = if self.eat_keyword("FROM") {
            Some(self.table_ref()?)
        } else {
            None
        };
        let mut joins = Vec::new();
        loop {
            let kind = if self.eat_keyword("JOIN") || {
                if self.eat_keyword("INNER") {
                    self.expect_keyword("JOIN")?;
                    true
                } else {
                    false
                }
            } {
                JoinKind::Inner
            } else if self.eat_keyword("LEFT") {
                self.eat_keyword("OUTER");
                self.expect_keyword("JOIN")?;
                JoinKind::Left
            } else {
                break;
            };
            let table = self.table_ref()?;
            self.expect_keyword("ON")?;
            let on = self.expr()?;
            joins.push(Join { kind, table, on });
        }
        let predicate = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            group_by.push(self.expr()?);
            while self.eat_symbol(Sym::Comma) {
                group_by.push(self.expr()?);
            }
        }
        let having = if self.eat_keyword("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_keyword("DESC") {
                    true
                } else {
                    self.eat_keyword("ASC");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.eat_symbol(Sym::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword("LIMIT") {
            Some(self.usize_literal()?)
        } else {
            None
        };
        let offset = if self.eat_keyword("OFFSET") {
            Some(self.usize_literal()?)
        } else {
            None
        };
        Ok(SelectStmt {
            distinct,
            projection,
            from,
            joins,
            predicate,
            group_by,
            having,
            order_by,
            limit,
            offset,
        })
    }

    fn usize_literal(&mut self) -> Result<usize> {
        let next = self.next();
        match next {
            Some(Token::Int(n)) => usize::try_from(n).ok(),
            _ => None,
        }
        .ok_or_else(|| RelError::Parse(format!("expected non-negative integer, found {next:?}")))
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat_symbol(Sym::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `alias.*`
        if let (
            Some(Token::Ident(name)),
            Some(Token::Symbol(Sym::Dot)),
            Some(Token::Symbol(Sym::Star)),
        ) = (
            self.tokens.get(self.pos),
            self.tokens.get(self.pos + 1),
            self.tokens.get(self.pos + 2),
        ) {
            let name = name.clone();
            self.pos += 3;
            return Ok(SelectItem::QualifiedWildcard(name));
        }
        let expr = self.expr()?;
        let alias = if self.eat_keyword("AS") {
            Some(self.identifier()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let table = self.identifier()?;
        let alias = match self.peek() {
            Some(Token::Ident(s)) if !is_clause_keyword(s) => {
                let a = s.clone();
                self.pos += 1;
                Some(a)
            }
            _ => {
                if self.eat_keyword("AS") {
                    Some(self.identifier()?)
                } else {
                    None
                }
            }
        };
        Ok(TableRef { table, alias })
    }

    // ----- expressions (precedence climbing) -----

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat_keyword("OR") {
            let rhs = self.and_expr()?;
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.not_expr()?;
        while self.eat_keyword("AND") {
            let rhs = self.not_expr()?;
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_keyword("NOT") {
            let inner = self.not_expr()?;
            return Ok(Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(inner),
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr> {
        let lhs = self.additive()?;
        // IS [NOT] NULL
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(lhs),
                negated,
            });
        }
        // [NOT] IN / BETWEEN / LIKE
        let negated = self.eat_keyword("NOT");
        if self.eat_keyword("IN") {
            self.expect_symbol(Sym::LParen)?;
            let mut list = vec![self.expr()?];
            while self.eat_symbol(Sym::Comma) {
                list.push(self.expr()?);
            }
            self.expect_symbol(Sym::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(lhs),
                list,
                negated,
            });
        }
        if self.eat_keyword("BETWEEN") {
            let lo = self.additive()?;
            self.expect_keyword("AND")?;
            let hi = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(lhs),
                lo: Box::new(lo),
                hi: Box::new(hi),
                negated,
            });
        }
        let like_op = if self.eat_keyword("LIKE") {
            Some(BinOp::Like)
        } else if self.eat_keyword("ILIKE") {
            Some(BinOp::ILike)
        } else {
            None
        };
        if let Some(op) = like_op {
            let rhs = self.additive()?;
            let like = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
            return Ok(if negated {
                Expr::Unary {
                    op: UnOp::Not,
                    expr: Box::new(like),
                }
            } else {
                like
            });
        }
        if negated {
            return Err(RelError::Parse(
                "NOT must be followed by IN, BETWEEN, LIKE or ILIKE here".into(),
            ));
        }
        let op = match self.peek() {
            Some(Token::Symbol(Sym::Eq)) => Some(BinOp::Eq),
            Some(Token::Symbol(Sym::Neq)) => Some(BinOp::Neq),
            Some(Token::Symbol(Sym::Lt)) => Some(BinOp::Lt),
            Some(Token::Symbol(Sym::Le)) => Some(BinOp::Le),
            Some(Token::Symbol(Sym::Gt)) => Some(BinOp::Gt),
            Some(Token::Symbol(Sym::Ge)) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.additive()?;
            return Ok(Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol(Sym::Plus)) => BinOp::Add,
                Some(Token::Symbol(Sym::Minus)) => BinOp::Sub,
                Some(Token::Symbol(Sym::Concat)) => BinOp::Concat,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.multiplicative()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol(Sym::Star)) => BinOp::Mul,
                Some(Token::Symbol(Sym::Slash)) => BinOp::Div,
                Some(Token::Symbol(Sym::Percent)) => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat_symbol(Sym::Minus) {
            let inner = self.unary()?;
            return Ok(Expr::Unary {
                op: UnOp::Neg,
                expr: Box::new(inner),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.next() {
            Some(Token::Int(n)) => Ok(Expr::Literal(Value::Int(n))),
            Some(Token::Float(x)) => Ok(Expr::Literal(Value::float(x))),
            Some(Token::Str(s)) => Ok(Expr::Literal(Value::Text(s))),
            Some(Token::Symbol(Sym::LParen)) => {
                let inner = self.expr()?;
                self.expect_symbol(Sym::RParen)?;
                Ok(inner)
            }
            Some(Token::QuotedIdent(name)) => self.column_or_qualified(name),
            Some(Token::Ident(name)) => {
                let upper = name.to_ascii_uppercase();
                match upper.as_str() {
                    "NULL" => return Ok(Expr::Literal(Value::Null)),
                    "TRUE" => return Ok(Expr::Literal(Value::Bool(true))),
                    "FALSE" => return Ok(Expr::Literal(Value::Bool(false))),
                    _ => {}
                }
                if is_reserved(&upper) {
                    return Err(RelError::Parse(format!(
                        "reserved keyword `{name}` cannot be used as a column; quote it with double quotes"
                    )));
                }
                // aggregate?
                if self.eat_symbol(Sym::LParen) {
                    let agg = match upper.as_str() {
                        "COUNT" => Some(AggFunc::Count),
                        "SUM" => Some(AggFunc::Sum),
                        "AVG" => Some(AggFunc::Avg),
                        "MIN" => Some(AggFunc::Min),
                        "MAX" => Some(AggFunc::Max),
                        _ => None,
                    };
                    if let Some(func) = agg {
                        if self.eat_symbol(Sym::Star) {
                            self.expect_symbol(Sym::RParen)?;
                            if func != AggFunc::Count {
                                return Err(RelError::Parse(format!(
                                    "{upper}(*) is not valid; only COUNT(*)"
                                )));
                            }
                            return Ok(Expr::Agg {
                                func,
                                arg: None,
                                distinct: false,
                            });
                        }
                        let distinct = self.eat_keyword("DISTINCT");
                        let arg = self.expr()?;
                        self.expect_symbol(Sym::RParen)?;
                        return Ok(Expr::Agg {
                            func,
                            arg: Some(Box::new(arg)),
                            distinct,
                        });
                    }
                    // scalar function
                    let mut args = Vec::new();
                    if !self.eat_symbol(Sym::RParen) {
                        args.push(self.expr()?);
                        while self.eat_symbol(Sym::Comma) {
                            args.push(self.expr()?);
                        }
                        self.expect_symbol(Sym::RParen)?;
                    }
                    return Ok(Expr::Func {
                        name: name.to_ascii_lowercase(),
                        args,
                    });
                }
                self.column_or_qualified(name)
            }
            other => Err(RelError::Parse(format!(
                "expected expression, found {other:?}"
            ))),
        }
    }

    fn column_or_qualified(&mut self, first: String) -> Result<Expr> {
        if self.eat_symbol(Sym::Dot) {
            let col = self.identifier()?;
            Ok(Expr::Column {
                table: Some(first),
                name: col,
            })
        } else {
            Ok(Expr::Column {
                table: None,
                name: first,
            })
        }
    }
}

fn is_reserved(upper: &str) -> bool {
    const KWS: &[&str] = &[
        "SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "FROM", "WHERE", "GROUP",
        "HAVING", "ORDER", "LIMIT", "OFFSET", "JOIN", "INNER", "LEFT", "OUTER", "ON", "AND", "OR",
        "IN", "BETWEEN", "LIKE", "ILIKE", "IS", "AS", "SET", "VALUES", "BY", "DESC", "ASC",
        "DISTINCT", "UNION", "INTO", "TABLE", "INDEX",
    ];
    KWS.contains(&upper)
}

fn is_clause_keyword(s: &str) -> bool {
    const KWS: &[&str] = &[
        "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET", "JOIN", "INNER", "LEFT", "ON",
        "AS", "SET", "VALUES", "UNION", "OUTER",
    ];
    KWS.iter().any(|k| s.eq_ignore_ascii_case(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table_full() {
        let stmt = parse(
            "CREATE TABLE IF NOT EXISTS sensors (\
             id INTEGER PRIMARY KEY, name TEXT NOT NULL UNIQUE, lat FLOAT, ok BOOLEAN)",
        )
        .unwrap();
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                if_not_exists,
            } => {
                assert_eq!(name, "sensors");
                assert!(if_not_exists);
                assert_eq!(columns.len(), 4);
                assert!(columns[0].primary_key);
                assert!(columns[1].not_null && columns[1].unique);
                assert_eq!(columns[2].ty, DataType::Float);
            }
            other => panic!("wrong stmt {other:?}"),
        }
    }

    #[test]
    fn insert_multi_row() {
        let stmt = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        match stmt {
            Statement::Insert { rows, columns, .. } => {
                assert_eq!(rows.len(), 2);
                assert_eq!(columns.unwrap(), vec!["a", "b"]);
            }
            other => panic!("wrong stmt {other:?}"),
        }
    }

    #[test]
    fn select_kitchen_sink() {
        let stmt = parse(
            "SELECT DISTINCT s.name AS n, COUNT(*) FROM sensors s \
             JOIN stations st ON s.station = st.id \
             LEFT JOIN projects p ON st.project = p.id \
             WHERE s.lat BETWEEN 45.0 AND 48.0 AND s.name LIKE 'temp%' \
             GROUP BY s.name HAVING COUNT(*) > 2 \
             ORDER BY n DESC, 2 LIMIT 10 OFFSET 5",
        )
        .unwrap();
        let Statement::Select(sel) = stmt else {
            panic!("not a select")
        };
        assert!(sel.distinct);
        assert_eq!(sel.joins.len(), 2);
        assert_eq!(sel.joins[1].kind, JoinKind::Left);
        assert_eq!(sel.group_by.len(), 1);
        assert!(sel.having.is_some());
        assert_eq!(sel.order_by.len(), 2);
        assert!(sel.order_by[0].desc);
        assert_eq!(sel.limit, Some(10));
        assert_eq!(sel.offset, Some(5));
    }

    #[test]
    fn operator_precedence() {
        let Statement::Select(sel) = parse("SELECT 1 + 2 * 3").unwrap() else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &sel.projection[0] else {
            panic!()
        };
        // Must parse as 1 + (2 * 3).
        match expr {
            Expr::Binary {
                op: BinOp::Add,
                rhs,
                ..
            } => {
                assert!(matches!(&**rhs, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("bad tree {other:?}"),
        }
    }

    #[test]
    fn not_in_and_is_null() {
        parse("SELECT * FROM t WHERE a NOT IN (1,2,3)").unwrap();
        parse("SELECT * FROM t WHERE a IS NOT NULL").unwrap();
        parse("SELECT * FROM t WHERE NOT (a = 1 OR b = 2)").unwrap();
        parse("SELECT * FROM t WHERE a NOT BETWEEN 1 AND 2").unwrap();
        parse("SELECT * FROM t WHERE name NOT LIKE '%x%'").unwrap();
    }

    #[test]
    fn qualified_wildcard() {
        let Statement::Select(sel) = parse("SELECT s.* FROM sensors s").unwrap() else {
            panic!()
        };
        assert_eq!(sel.projection[0], SelectItem::QualifiedWildcard("s".into()));
    }

    #[test]
    fn script_parsing() {
        let stmts =
            parse_script("CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;")
                .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("SELECT FROM").is_err());
        assert!(parse("CREATE VIEW v").is_err());
        assert!(parse("SELECT 1 SELECT 2").is_err());
        assert!(parse("SELECT SUM(*) FROM t").is_err());
        assert!(parse("INSERT INTO t VALUES (1,)").is_err());
    }

    #[test]
    fn update_delete() {
        parse("UPDATE t SET a = a + 1, b = 'x' WHERE id = 3").unwrap();
        parse("DELETE FROM t WHERE id IN (1, 2)").unwrap();
        parse("DELETE FROM t").unwrap();
    }

    #[test]
    fn expression_only_select() {
        let Statement::Select(sel) = parse("SELECT 1 + 1 AS two").unwrap() else {
            panic!()
        };
        assert!(sel.from.is_none());
    }

    #[test]
    fn count_distinct() {
        let Statement::Select(sel) = parse("SELECT COUNT(DISTINCT a) FROM t").unwrap() else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &sel.projection[0] else {
            panic!()
        };
        assert!(matches!(expr, Expr::Agg { distinct: true, .. }));
    }

    #[test]
    fn ilike_and_not_ilike() {
        let Statement::Select(sel) = parse("SELECT * FROM t WHERE name ILIKE '%wind%'").unwrap()
        else {
            panic!()
        };
        assert!(matches!(
            sel.predicate,
            Some(Expr::Binary {
                op: BinOp::ILike,
                ..
            })
        ));
        // NOT ILIKE parses as NOT(ILIKE ...).
        let Statement::Select(sel) = parse("SELECT * FROM t WHERE name NOT ILIKE 'a%'").unwrap()
        else {
            panic!()
        };
        let Some(Expr::Unary {
            op: UnOp::Not,
            expr,
        }) = sel.predicate
        else {
            panic!("expected NOT wrapper")
        };
        assert!(matches!(
            *expr,
            Expr::Binary {
                op: BinOp::ILike,
                ..
            }
        ));
        // ILIKE is reserved: not usable as a bare identifier.
        assert!(parse("SELECT ilike FROM t").is_err());
    }

    #[test]
    fn create_trigram_index() {
        let stmt = parse("CREATE TRIGRAM INDEX pages_title_trgm ON pages (title)").unwrap();
        match stmt {
            Statement::CreateIndex {
                name,
                table,
                columns,
                unique,
                trigram,
            } => {
                assert_eq!(name, "pages_title_trgm");
                assert_eq!(table, "pages");
                assert_eq!(columns, vec!["title"]);
                assert!(!unique);
                assert!(trigram);
            }
            other => panic!("wrong stmt {other:?}"),
        }
        // Plain and UNIQUE indexes keep trigram = false.
        let Statement::CreateIndex { trigram, .. } =
            parse("CREATE UNIQUE INDEX i ON t (a)").unwrap()
        else {
            panic!()
        };
        assert!(!trigram);
        // Multi-column trigram definitions are rejected at parse time.
        assert!(parse("CREATE TRIGRAM INDEX i ON t (a, b)").is_err());
        // UNIQUE TRIGRAM is not a thing.
        assert!(parse("CREATE UNIQUE TRIGRAM INDEX i ON t (a)").is_err());
    }
}
