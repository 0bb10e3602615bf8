//! A SQL subset parser.
//!
//! Covers the query class SeeDB accepts from the analyst (paper §2): a
//! selection over one fact table, optionally already carrying a group-by
//! aggregation:
//!
//! ```sql
//! SELECT store, SUM(amount) AS total
//! FROM sales
//! WHERE product = 'Laserwave' AND amount > 10
//! GROUP BY store
//! ```
//!
//! Supported: `SELECT` lists of columns and aggregates
//! (`COUNT/SUM/AVG/MIN/MAX`, `COUNT(*)`, `AS` aliases, or `*`), `FROM` a
//! single table, `WHERE` with `=`, `<>`, `!=`, `<`, `<=`, `>`, `>=`,
//! `AND`, `OR`, `NOT`, `IN (...)`, `IS [NOT] NULL`, parentheses, string /
//! numeric / boolean / NULL literals, and `GROUP BY`.

mod lexer;

use lexer::{Lexer, Spanned, Token};

use crate::error::{DbError, DbResult};
use crate::exec::{AggFunc, AggSpec, Query};
use crate::expr::{CmpOp, Expr};
use crate::value::Value;

/// Parse a SQL `SELECT` statement into an executable [`Query`].
///
/// A query with no aggregates and no `GROUP BY` (e.g.
/// `SELECT * FROM sales WHERE ...` — the analyst's subset-selection query
/// `Q` in the paper) parses into a `COUNT(*)` global aggregate carrying
/// the filter; SeeDB only ever needs the filter from it. Use
/// [`parse_selection`] to get just the table and filter.
///
/// # Errors
/// `Parse` on malformed input; the message points at the offending token.
pub fn parse_query(sql: &str) -> DbResult<Query> {
    Parser::new(sql)?.query()
}

/// The analyst's subset-selection query: table + optional filter.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// Fact table name.
    pub table: String,
    /// `WHERE` predicate, if any.
    pub filter: Option<Expr>,
}

/// Parse `SELECT * FROM t [WHERE ...]` (or any SELECT — the projection is
/// ignored) into a [`Selection`].
///
/// # Errors
/// `Parse` on malformed input.
pub fn parse_selection(sql: &str) -> DbResult<Selection> {
    let p = Parser::new(sql)?.query_allow_star()?;
    Ok(Selection {
        table: p.table,
        filter: p.filter,
    })
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn new(sql: &str) -> DbResult<Self> {
        let tokens = Lexer::new(sql).tokenize()?;
        Ok(Parser { tokens, pos: 0 })
    }

    fn peek(&self) -> &Token {
        self.tokens
            .get(self.pos)
            .map(|s| &s.tok)
            .unwrap_or(&Token::Eof)
    }

    fn next(&mut self) -> Token {
        let t = self
            .tokens
            .get(self.pos)
            .map(|s| s.tok.clone())
            .unwrap_or(Token::Eof);
        self.pos += 1;
        t
    }

    /// 1-based byte position of the token at `idx` (clamped to Eof).
    fn pos_at(&self, idx: usize) -> usize {
        self.tokens
            .get(idx.min(self.tokens.len().saturating_sub(1)))
            .map(|s| s.pos)
            .unwrap_or(1)
    }

    /// Position of the token `peek` would return.
    fn cur_pos(&self) -> usize {
        self.pos_at(self.pos)
    }

    /// Position of the token `next` just consumed.
    fn prev_pos(&self) -> usize {
        self.pos_at(self.pos.saturating_sub(1))
    }

    fn expect_keyword(&mut self, kw: &str) -> DbResult<()> {
        match self.next() {
            Token::Keyword(k) if k == kw => Ok(()),
            other => Err(DbError::Parse(format!(
                "expected {kw}, found {other:?} at position {}",
                self.prev_pos()
            ))),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Token::Keyword(k) if k == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> DbResult<String> {
        match self.next() {
            Token::Ident(s) => Ok(s),
            other => Err(DbError::Parse(format!(
                "expected identifier, found {other:?} at position {}",
                self.prev_pos()
            ))),
        }
    }

    fn query(&mut self) -> DbResult<Query> {
        let q = self.query_allow_star()?;
        Ok(q)
    }

    fn query_allow_star(&mut self) -> DbResult<Query> {
        self.expect_keyword("SELECT")?;

        enum Item {
            Star,
            Column(String),
            Agg(AggSpec),
        }
        let mut items: Vec<Item> = Vec::new();
        loop {
            let item = match self.peek().clone() {
                Token::Symbol('*') => {
                    self.pos += 1;
                    Item::Star
                }
                Token::Keyword(kw) if agg_func(&kw).is_some() => {
                    self.pos += 1;
                    let func = agg_func(&kw).expect("checked above");
                    self.expect_symbol('(')?;
                    let column = match self.peek().clone() {
                        Token::Symbol('*') => {
                            self.pos += 1;
                            if func != AggFunc::Count {
                                return Err(DbError::Parse(format!(
                                    "{}(*) is only valid for COUNT at position {}",
                                    func.sql(),
                                    self.prev_pos()
                                )));
                            }
                            None
                        }
                        _ => Some(self.expect_ident()?),
                    };
                    self.expect_symbol(')')?;
                    let alias = if self.eat_keyword("AS") {
                        Some(self.expect_ident()?)
                    } else {
                        None
                    };
                    Item::Agg(AggSpec {
                        func,
                        column,
                        filter: None,
                        alias,
                    })
                }
                Token::Ident(name) => {
                    self.pos += 1;
                    Item::Column(name)
                }
                other => {
                    return Err(DbError::Parse(format!(
                        "expected select item, found {other:?} at position {}",
                        self.cur_pos()
                    )))
                }
            };
            items.push(item);
            if !self.eat_symbol(',') {
                break;
            }
        }

        self.expect_keyword("FROM")?;
        let table = self.expect_ident()?;

        let filter = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };

        let mut group_by: Vec<String> = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                group_by.push(self.expect_ident()?);
                if !self.eat_symbol(',') {
                    break;
                }
            }
        }

        match self.next() {
            Token::Eof => {}
            Token::Symbol(';') => match self.next() {
                Token::Eof => {}
                other => {
                    return Err(DbError::Parse(format!(
                        "trailing input: {other:?} at position {}",
                        self.prev_pos()
                    )))
                }
            },
            other => {
                return Err(DbError::Parse(format!(
                    "trailing input: {other:?} at position {}",
                    self.prev_pos()
                )))
            }
        }

        // Assemble: plain columns must match GROUP BY (or define it).
        let mut aggregates = Vec::new();
        let mut plain: Vec<String> = Vec::new();
        let mut star = false;
        for item in items {
            match item {
                Item::Star => star = true,
                Item::Column(c) => plain.push(c),
                Item::Agg(a) => aggregates.push(a),
            }
        }
        if star && (!plain.is_empty() || !aggregates.is_empty()) {
            return Err(DbError::Parse(
                "SELECT * cannot be combined with other select items".to_string(),
            ));
        }
        if !group_by.is_empty() {
            for c in &plain {
                if !group_by.contains(c) {
                    return Err(DbError::Parse(format!(
                        "column {c} appears in SELECT but not in GROUP BY"
                    )));
                }
            }
        } else if !plain.is_empty() && !aggregates.is_empty() {
            return Err(DbError::Parse(
                "non-aggregated columns require GROUP BY".to_string(),
            ));
        }
        if aggregates.is_empty() {
            // Subset-selection query (SELECT * / SELECT cols): SeeDB only
            // needs the filter; represent as COUNT(*).
            aggregates.push(AggSpec::count_star());
        }

        Ok(Query {
            table,
            filter,
            sets: vec![group_by],
            aggregates,
            sample: None,
        })
    }

    fn expect_symbol(&mut self, s: char) -> DbResult<()> {
        match self.next() {
            Token::Symbol(c) if c == s => Ok(()),
            other => Err(DbError::Parse(format!(
                "expected '{s}', found {other:?} at position {}",
                self.prev_pos()
            ))),
        }
    }

    fn eat_symbol(&mut self, s: char) -> bool {
        if matches!(self.peek(), Token::Symbol(c) if *c == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expr(&mut self) -> DbResult<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> DbResult<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_keyword("OR") {
            let right = self.and_expr()?;
            left = left.or(right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> DbResult<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_keyword("AND") {
            let right = self.not_expr()?;
            left = left.and(right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> DbResult<Expr> {
        if self.eat_keyword("NOT") {
            return Ok(self.not_expr()?.not());
        }
        self.comparison()
    }

    fn comparison(&mut self) -> DbResult<Expr> {
        let left = self.operand()?;
        // IS [NOT] NULL
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        // [NOT] IN (...)
        let (in_consumed, negated_in) = if self.eat_keyword("NOT") {
            self.expect_keyword("IN")?;
            (true, true)
        } else {
            (self.eat_keyword("IN"), false)
        };
        if in_consumed {
            self.expect_symbol('(')?;
            let mut list = Vec::new();
            loop {
                list.push(self.literal()?);
                if !self.eat_symbol(',') {
                    break;
                }
            }
            self.expect_symbol(')')?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated: negated_in,
            });
        }
        // Comparison operator.
        if let Some(op) = self.eat_cmp_op() {
            let right = self.operand()?;
            return Ok(Expr::Cmp {
                op,
                left: Box::new(left),
                right: Box::new(right),
            });
        }
        Ok(left)
    }

    fn eat_cmp_op(&mut self) -> Option<CmpOp> {
        let op = match self.peek() {
            Token::Op(s) => match s.as_str() {
                "=" => CmpOp::Eq,
                "<>" | "!=" => CmpOp::Ne,
                "<" => CmpOp::Lt,
                "<=" => CmpOp::Le,
                ">" => CmpOp::Gt,
                ">=" => CmpOp::Ge,
                _ => return None,
            },
            _ => return None,
        };
        self.pos += 1;
        Some(op)
    }

    fn operand(&mut self) -> DbResult<Expr> {
        match self.peek().clone() {
            Token::Symbol('(') => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect_symbol(')')?;
                Ok(e)
            }
            Token::Ident(name) => {
                self.pos += 1;
                Ok(Expr::Column(name))
            }
            _ => Ok(Expr::Literal(self.literal()?)),
        }
    }

    fn literal(&mut self) -> DbResult<Value> {
        match self.next() {
            Token::Int(i) => Ok(Value::Int(i)),
            Token::Float(f) => Ok(Value::Float(f)),
            Token::Str(s) => Ok(Value::Str(s)),
            Token::Keyword(k) if k == "TRUE" => Ok(Value::Bool(true)),
            Token::Keyword(k) if k == "FALSE" => Ok(Value::Bool(false)),
            Token::Keyword(k) if k == "NULL" => Ok(Value::Null),
            Token::Op(op) if op == "-" => match self.next() {
                Token::Int(i) => Ok(Value::Int(-i)),
                Token::Float(f) => Ok(Value::Float(-f)),
                other => Err(DbError::Parse(format!(
                    "expected number after '-', found {other:?} at position {}",
                    self.prev_pos()
                ))),
            },
            other => Err(DbError::Parse(format!(
                "expected literal, found {other:?} at position {}",
                self.prev_pos()
            ))),
        }
    }
}

fn agg_func(kw: &str) -> Option<AggFunc> {
    Some(match kw {
        "COUNT" => AggFunc::Count,
        "SUM" => AggFunc::Sum,
        "AVG" => AggFunc::Avg,
        "MIN" => AggFunc::Min,
        "MAX" => AggFunc::Max,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_paper_query_q_prime() {
        let q = parse_query(
            "SELECT store, SUM(amount) FROM Sales WHERE Product = 'Laserwave' GROUP BY store",
        )
        .unwrap();
        assert_eq!(q.table, "Sales");
        assert_eq!(q.sets, vec![vec!["store"]]);
        assert_eq!(q.aggregates.len(), 1);
        assert_eq!(q.aggregates[0].func, AggFunc::Sum);
        assert_eq!(q.aggregates[0].column.as_deref(), Some("amount"));
        assert_eq!(q.filter.as_ref().unwrap().to_sql(), "Product = 'Laserwave'");
    }

    #[test]
    fn parse_paper_query_q_star() {
        let sel = parse_selection("SELECT * FROM Sales WHERE Product = 'Laserwave'").unwrap();
        assert_eq!(sel.table, "Sales");
        assert!(sel.filter.is_some());
    }

    #[test]
    fn parse_count_star_and_alias() {
        let q = parse_query("SELECT region, COUNT(*) AS n FROM t GROUP BY region").unwrap();
        assert_eq!(q.aggregates[0].column, None);
        assert_eq!(q.aggregates[0].alias.as_deref(), Some("n"));
    }

    #[test]
    fn parse_complex_where() {
        let q = parse_query(
            "SELECT COUNT(*) FROM t WHERE (a = 1 OR b <> 'x') AND NOT c >= 2.5 AND d IN (1, 2, 3) AND e IS NOT NULL",
        )
        .unwrap();
        let sql = q.filter.unwrap().to_sql();
        assert!(sql.contains("OR"));
        assert!(sql.contains("NOT"));
        assert!(sql.contains("IN (1, 2, 3)"));
        assert!(sql.contains("IS NOT NULL"));
    }

    #[test]
    fn parse_not_in() {
        let q = parse_query("SELECT COUNT(*) FROM t WHERE a NOT IN ('x', 'y')").unwrap();
        match q.filter.unwrap() {
            Expr::InList { negated, list, .. } => {
                assert!(negated);
                assert_eq!(list.len(), 2);
            }
            other => panic!("expected InList, got {other:?}"),
        }
    }

    #[test]
    fn parse_negative_numbers_and_booleans() {
        let q = parse_query("SELECT COUNT(*) FROM t WHERE a > -5 AND b = TRUE").unwrap();
        let sql = q.filter.unwrap().to_sql();
        assert!(sql.contains("-5"));
        assert!(sql.contains("true"));
    }

    #[test]
    fn select_column_not_in_group_by_rejected() {
        let r = parse_query("SELECT store, SUM(amount) FROM t GROUP BY region");
        assert!(matches!(r, Err(DbError::Parse(_))));
    }

    #[test]
    fn avg_star_rejected() {
        assert!(parse_query("SELECT AVG(*) FROM t").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_query("SELECT COUNT(*) FROM t LIMIT 5").is_err());
        assert!(parse_query("SELECT COUNT(*) FROM t; extra").is_err());
    }

    #[test]
    fn trailing_semicolon_ok() {
        assert!(parse_query("SELECT COUNT(*) FROM t;").is_ok());
    }

    #[test]
    fn keywords_case_insensitive() {
        let q = parse_query("select store, sum(amount) from sales group by store").unwrap();
        assert_eq!(q.sets, vec![vec!["store"]]);
    }

    #[test]
    fn string_escape() {
        let q = parse_query("SELECT COUNT(*) FROM t WHERE name = 'O''Brien'").unwrap();
        match q.filter.unwrap() {
            Expr::Cmp { right, .. } => {
                assert_eq!(*right, Expr::Literal(Value::from("O'Brien")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multiple_aggregates() {
        let q = parse_query(
            "SELECT store, SUM(amount), AVG(qty) AS avg_qty, MIN(amount) FROM t GROUP BY store",
        )
        .unwrap();
        assert_eq!(q.aggregates.len(), 3);
        assert_eq!(q.aggregates[1].alias.as_deref(), Some("avg_qty"));
    }

    #[test]
    fn select_star_with_other_items_rejected() {
        assert!(parse_query("SELECT *, store FROM t").is_err());
    }

    #[test]
    fn bare_columns_without_group_by_is_selection() {
        // SELECT a, b FROM t — projection-only; treated as a selection
        // carrying no aggregates (COUNT(*) placeholder).
        let q = parse_query("SELECT a, b FROM t").unwrap();
        assert_eq!(q.sets, vec![Vec::<String>::new()]);
        assert_eq!(q.aggregates.len(), 1);
        assert_eq!(q.aggregates[0].func, AggFunc::Count);
    }

    #[test]
    fn empty_input_rejected() {
        assert!(parse_query("").is_err());
        assert!(parse_query("   ").is_err());
    }

    #[test]
    fn parse_errors_point_at_offending_token() {
        // A misspelled WHERE lexes as an identifier and surfaces as
        // trailing input — at its own position, not a vague message.
        let e = parse_query("SELECT * FROM sales WHEREE price = 1")
            .unwrap_err()
            .to_string();
        assert!(e.contains("at position 21"), "{e}");

        // Missing right operand: the offending AND is at byte 34.
        let e = parse_query("SELECT COUNT(*) FROM t WHERE a = AND")
            .unwrap_err()
            .to_string();
        assert!(e.contains("at position 34"), "{e}");

        // Missing table name: points at end of input.
        let e = parse_query("SELECT * FROM ").unwrap_err().to_string();
        assert!(e.contains("at position 15"), "{e}");
    }
}
