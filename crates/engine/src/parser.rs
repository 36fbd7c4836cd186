//! A recursive-descent parser for the SQL-ish language.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! script     := stmt (';' stmt)* ';'?
//! stmt       := create | drop | insert | query
//! create     := CREATE TABLE ident '(' col (',' col)* ')'
//! col        := ident (TEXT | NUM | BOOL)
//! drop       := DROP TABLE ident
//! insert     := INSERT INTO ident VALUES '(' lit (',' lit)* ')'
//!               [PROVENANCE annot]
//! query      := select ((UNION | EXCEPT) select)*
//! select     := SELECT item (',' item)* FROM tref (',' tref)*
//!               (JOIN tref ON eqlist)* [WHERE conds]
//!               [GROUP BY colref (',' colref)*] [HAVING conds]
//! tref       := ident [[AS] ident] | '(' query ')' [AS] ident
//! item       := '*' | agg '(' ('*' | colref) ')' [AS ident]
//!             | colref [AS ident]
//! agg        := SUM | MIN | MAX | PROD | COUNT | AVG | BOOL_OR
//! conds      := cond (AND cond)*
//! cond       := operand cmp operand
//! operand    := colref | lit
//! ```

use crate::ast::*;
use crate::lexer::{lex_spanned, Token};
use aggprov_krel::error::RelError;

type Result<T> = std::result::Result<T, RelError>;

/// The most `SELECT` blocks (subqueries and `UNION`/`EXCEPT` arms) one
/// statement may hold. The parser recurses once per nested subquery and
/// every block deepens the AST by at most one level, so the count bounds
/// the parser's stack use and the depth every later pass — and `Drop` —
/// recurses to; without it one hostile line overflows the stack and
/// aborts the process. Sized so that even a debug build parses the
/// deepest accepted nesting inside a 2 MiB thread stack.
pub const MAX_SELECT_BLOCKS: usize = 128;

// What an aggregate call is told where only a column may stand: the
// construct, and the way to write what was meant.
const AGG_IN_WHERE: &str = "aggregates are not allowed in WHERE; \
     name the aggregate with AS and filter with HAVING <alias>";
const AGG_IN_HAVING: &str = "HAVING refers to an aggregate by its AS alias: \
     SELECT SUM(x) AS total ... HAVING total > 5";
const AGG_NESTED: &str = "aggregates cannot be nested; \
     aggregate over a derived table: FROM (SELECT ... GROUP BY ...) AS t";
const AGG_IN_GROUP_BY: &str = "GROUP BY takes columns, not aggregates";
const AGG_IN_JOIN_ON: &str = "aggregates are not allowed in JOIN … ON; \
     aggregate in a derived table and join on its alias";

/// Parses a script of one or more statements.
pub fn parse_script(input: &str) -> Result<Vec<Stmt>> {
    let spanned = lex_spanned(input)?;
    let (tokens, spans): (Vec<Token>, Vec<usize>) = spanned.into_iter().unzip();
    let mut p = Parser {
        tokens,
        spans,
        end_pos: input.len(),
        pos: 0,
        selects: 0,
    };
    let mut stmts = Vec::new();
    loop {
        while p.eat(&Token::Semi) {}
        if p.at_end() {
            break;
        }
        stmts.push(p.statement()?);
        if !p.at_end() && !p.eat(&Token::Semi) {
            return Err(p.err(format!("expected `;`, found `{}`", p.peek_text())));
        }
    }
    Ok(stmts)
}

/// Parses a single query. The "exactly one query" errors anchor at the
/// offending spot: the start of a surplus second statement, or the start
/// of a non-query statement.
pub fn parse_query(input: &str) -> Result<Query> {
    let spanned = lex_spanned(input)?;
    let (tokens, spans): (Vec<Token>, Vec<usize>) = spanned.into_iter().unzip();
    let mut p = Parser {
        tokens,
        spans,
        end_pos: input.len(),
        pos: 0,
        selects: 0,
    };
    while p.eat(&Token::Semi) {}
    let start = p.spans.get(p.pos).copied().unwrap_or(0);
    let stmt = p.statement()?;
    while p.eat(&Token::Semi) {}
    if !p.at_end() {
        return Err(p.err("expected exactly one query"));
    }
    match stmt {
        Stmt::Query(q) => Ok(q),
        _ => Err(RelError::Parse {
            pos: start,
            msg: "expected exactly one query".into(),
        }),
    }
}

struct Parser {
    tokens: Vec<Token>,
    /// Byte offset of each token's start in the input text.
    spans: Vec<usize>,
    /// The input length — the position errors at end of input point at.
    end_pos: usize,
    pos: usize,
    /// `SELECT` blocks seen in the current statement (capped at
    /// [`MAX_SELECT_BLOCKS`]).
    selects: usize,
}

impl Parser {
    /// A parse error anchored at the current token (or end of input).
    fn err(&self, msg: impl Into<String>) -> RelError {
        RelError::Parse {
            pos: self.spans.get(self.pos).copied().unwrap_or(self.end_pos),
            msg: msg.into(),
        }
    }

    /// A parse error anchored at the token just consumed — for call
    /// sites that `next()` first and reject what they got.
    fn err_prev(&self, msg: impl Into<String>) -> RelError {
        RelError::Parse {
            pos: self
                .spans
                .get(self.pos.saturating_sub(1))
                .copied()
                .unwrap_or(self.end_pos),
            msg: msg.into(),
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_text(&self) -> String {
        self.peek()
            .map(|t| t.to_string())
            .unwrap_or_else(|| "end of input".into())
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{t}`, found `{}`", self.peek_text())))
        }
    }

    /// Peeks whether the next token is the given keyword.
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found `{}`", self.peek_text())))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            Some(other) => Err(self.err_prev(format!("expected identifier, found `{other}`"))),
            None => Err(self.err("expected identifier, found `end of input`")),
        }
    }

    fn statement(&mut self) -> Result<Stmt> {
        self.selects = 0;
        if self.at_kw("CREATE") {
            self.create_table()
        } else if self.at_kw("DROP") {
            self.pos += 1;
            self.expect_kw("TABLE")?;
            Ok(Stmt::DropTable {
                name: self.ident()?,
            })
        } else if self.at_kw("INSERT") {
            self.insert()
        } else if self.at_kw("SELECT") {
            Ok(Stmt::Query(self.query()?))
        } else {
            Err(self.err(format!("unexpected `{}`", self.peek_text())))
        }
    }

    fn create_table(&mut self) -> Result<Stmt> {
        self.expect_kw("CREATE")?;
        self.expect_kw("TABLE")?;
        let name = self.ident()?;
        self.expect(&Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident()?;
            let ty = self.ident()?;
            let ty = match ty.to_ascii_uppercase().as_str() {
                "TEXT" => ColType::Text,
                "NUM" | "INT" | "NUMERIC" => ColType::Num,
                "BOOL" | "BOOLEAN" => ColType::Bool,
                other => return Err(self.err_prev(format!("unknown column type `{other}`"))),
            };
            columns.push((col, ty));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        Ok(Stmt::CreateTable { name, columns })
    }

    fn insert(&mut self) -> Result<Stmt> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        self.expect_kw("VALUES")?;
        self.expect(&Token::LParen)?;
        let mut values = Vec::new();
        loop {
            values.push(self.literal()?);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        let provenance = if self.eat_kw("PROVENANCE") {
            Some(match self.next() {
                Some(Token::Ident(s)) => s,
                Some(Token::Number(n)) => n.to_string(),
                Some(other) => {
                    return Err(self.err_prev(format!(
                        "expected annotation after PROVENANCE, found `{other}`"
                    )))
                }
                None => {
                    return Err(
                        self.err("expected annotation after PROVENANCE, found `end of input`")
                    )
                }
            })
        } else {
            None
        };
        Ok(Stmt::Insert {
            table,
            values,
            provenance,
        })
    }

    fn literal(&mut self) -> Result<Lit> {
        match self.next() {
            Some(Token::Number(n)) => Ok(Lit::Num(n)),
            Some(Token::Str(s)) => Ok(Lit::Str(s)),
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("TRUE") => Ok(Lit::Bool(true)),
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("FALSE") => Ok(Lit::Bool(false)),
            Some(other) => Err(self.err_prev(format!("expected literal, found `{other}`"))),
            None => Err(self.err("expected literal, found `end of input`")),
        }
    }

    fn query(&mut self) -> Result<Query> {
        let mut q = Query::Select(Box::new(self.select()?));
        loop {
            let op = if self.eat_kw("UNION") {
                SetOp::Union
            } else if self.eat_kw("EXCEPT") {
                SetOp::Except
            } else {
                break;
            };
            let rhs = Query::Select(Box::new(self.select()?));
            q = Query::SetOp {
                op,
                left: Box::new(q),
                right: Box::new(rhs),
            };
        }
        Ok(q)
    }

    fn select(&mut self) -> Result<SelectStmt> {
        self.selects += 1;
        if self.selects > MAX_SELECT_BLOCKS {
            return Err(self.err(format!(
                "statement has more than {MAX_SELECT_BLOCKS} SELECT blocks \
                 (subqueries and UNION/EXCEPT arms)"
            )));
        }
        self.expect_kw("SELECT")?;
        let mut stmt = SelectStmt::default();
        loop {
            stmt.items.push(self.select_item()?);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect_kw("FROM")?;
        loop {
            stmt.from.push(self.table_ref()?);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        while self.eat_kw("JOIN") {
            let table = self.table_ref()?;
            self.expect_kw("ON")?;
            let mut on = Vec::new();
            loop {
                let l = self.plain_col_ref(AGG_IN_JOIN_ON)?;
                self.expect(&Token::Eq)?;
                let r = self.plain_col_ref(AGG_IN_JOIN_ON)?;
                on.push((l, r));
                if !self.eat_kw("AND") {
                    break;
                }
            }
            stmt.joins.push(Join { table, on });
        }
        if self.eat_kw("WHERE") {
            stmt.where_ = self.conditions(AGG_IN_WHERE)?;
        }
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                stmt.group_by.push(self.plain_col_ref(AGG_IN_GROUP_BY)?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("HAVING") {
            stmt.having = self.conditions(AGG_IN_HAVING)?;
        }
        Ok(stmt)
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat(&Token::Star) {
            return Ok(SelectItem::Star);
        }
        if let Some(func) = self.agg_call() {
            self.pos += 2;
            let arg = if self.eat(&Token::Star) {
                AggArg::Star
            } else {
                AggArg::Col(self.plain_col_ref(AGG_NESTED)?)
            };
            self.expect(&Token::RParen)?;
            let alias = self.alias()?;
            return Ok(SelectItem::Agg(func, arg, alias));
        }
        let col = self.col_ref()?;
        let alias = self.alias()?;
        Ok(SelectItem::Col(col, alias))
    }

    /// The aggregate function called at the current token: its name
    /// followed by `(`.
    fn agg_call(&self) -> Option<AggFunc> {
        let Some(Token::Ident(name)) = self.peek() else {
            return None;
        };
        if self.tokens.get(self.pos + 1) != Some(&Token::LParen) {
            return None;
        }
        match name.to_ascii_uppercase().as_str() {
            "SUM" => Some(AggFunc::Sum),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            "PROD" => Some(AggFunc::Prod),
            "COUNT" => Some(AggFunc::Count),
            "AVG" => Some(AggFunc::Avg),
            "BOOL_OR" => Some(AggFunc::BoolOr),
            _ => None,
        }
    }

    /// A column reference where only a column may stand: an aggregate
    /// call there is answered with `why_not`, at the call's offset.
    fn plain_col_ref(&mut self, why_not: &str) -> Result<ColRef> {
        if self.agg_call().is_some() {
            return Err(self.err(why_not));
        }
        self.col_ref()
    }

    fn alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw("AS") {
            Ok(Some(self.ident()?))
        } else {
            Ok(None)
        }
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        if self.eat(&Token::LParen) {
            let q = self.query()?;
            self.expect(&Token::RParen)?;
            let alias = if self.eat_kw("AS") {
                self.ident()?
            } else if let Some(Token::Ident(_)) = self.peek() {
                self.ident()?
            } else {
                return Err(self.err("a subquery in FROM needs an alias"));
            };
            return Ok(TableRef {
                source: TableSource::Subquery(Box::new(q)),
                alias: Some(alias),
            });
        }
        let name = self.ident()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else if let Some(Token::Ident(s)) = self.peek() {
            // Bare alias, unless it's a keyword continuing the query.
            const KEYWORDS: [&str; 12] = [
                "JOIN", "ON", "WHERE", "GROUP", "HAVING", "UNION", "EXCEPT", "AND", "AS", "FROM",
                "SELECT", "BY",
            ];
            if KEYWORDS.iter().any(|k| s.eq_ignore_ascii_case(k)) {
                None
            } else {
                Some(self.ident()?)
            }
        } else {
            None
        };
        Ok(TableRef {
            source: TableSource::Named(name),
            alias,
        })
    }

    fn col_ref(&mut self) -> Result<ColRef> {
        let first = self.ident()?;
        if self.eat(&Token::Dot) {
            let column = self.ident()?;
            Ok(ColRef {
                table: Some(first),
                column,
            })
        } else {
            Ok(ColRef {
                table: None,
                column: first,
            })
        }
    }

    /// `no_agg` is what an aggregate call among the operands is told (see
    /// [`Parser::plain_col_ref`]).
    fn conditions(&mut self, no_agg: &str) -> Result<Vec<Condition>> {
        let mut out = Vec::new();
        loop {
            out.push(self.condition(no_agg)?);
            if !self.eat_kw("AND") {
                break;
            }
        }
        Ok(out)
    }

    fn condition(&mut self, no_agg: &str) -> Result<Condition> {
        let left = self.operand(no_agg)?;
        let op = match self.next() {
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Ne) => CmpOp::Ne,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            Some(other) => {
                return Err(self.err_prev(format!("expected comparison operator, found `{other}`")))
            }
            None => return Err(self.err("expected comparison operator, found `end of input`")),
        };
        let right = self.operand(no_agg)?;
        Ok(Condition { left, op, right })
    }

    fn operand(&mut self, no_agg: &str) -> Result<Operand> {
        match self.peek() {
            Some(Token::Param(n)) => {
                let n = *n;
                self.pos += 1;
                Ok(Operand::Param(n))
            }
            Some(Token::Number(_)) | Some(Token::Str(_)) => Ok(Operand::Lit(self.literal()?)),
            Some(Token::Ident(s))
                if s.eq_ignore_ascii_case("TRUE") || s.eq_ignore_ascii_case("FALSE") =>
            {
                Ok(Operand::Lit(self.literal()?))
            }
            _ => Ok(Operand::Col(self.plain_col_ref(no_agg)?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggprov_algebra::num::Num;

    #[test]
    fn create_insert_roundtrip() {
        let stmts = parse_script(
            "CREATE TABLE r (emp TEXT, sal NUM);
             INSERT INTO r VALUES ('e1', 20) PROVENANCE p1;
             INSERT INTO r VALUES ('e2', 10);",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
        match &stmts[1] {
            Stmt::Insert {
                table,
                values,
                provenance,
            } => {
                assert_eq!(table, "r");
                assert_eq!(values.len(), 2);
                assert_eq!(provenance.as_deref(), Some("p1"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn select_with_group_by_and_having() {
        let q =
            parse_query("SELECT dept, SUM(sal) AS total FROM r GROUP BY dept HAVING total = 20")
                .unwrap();
        let Query::Select(s) = q else { panic!() };
        assert_eq!(s.items.len(), 2);
        assert_eq!(s.group_by, vec![ColRef::bare("dept")]);
        assert_eq!(s.having.len(), 1);
        assert_eq!(s.having[0].right, Operand::Lit(Lit::Num(Num::int(20))));
    }

    #[test]
    fn joins_and_qualifiers() {
        let q = parse_query(
            "SELECT e.dept FROM emp e JOIN dept d ON e.dept = d.name AND e.x = d.y \
             WHERE e.sal > 10",
        )
        .unwrap();
        let Query::Select(s) = q else { panic!() };
        assert_eq!(s.from[0].effective_alias(), "e");
        assert_eq!(s.joins.len(), 1);
        assert_eq!(s.joins[0].on.len(), 2);
        assert_eq!(s.where_.len(), 1);
        assert_eq!(s.where_[0].op, CmpOp::Gt);
    }

    #[test]
    fn set_operations_left_associate() {
        let q =
            parse_query("SELECT a FROM r UNION SELECT a FROM s EXCEPT SELECT a FROM t").unwrap();
        let Query::SetOp { op, left, .. } = q else {
            panic!()
        };
        assert_eq!(op, SetOp::Except);
        assert!(matches!(
            *left,
            Query::SetOp {
                op: SetOp::Union,
                ..
            }
        ));
    }

    #[test]
    fn count_star_and_avg() {
        let q = parse_query("SELECT COUNT(*) AS n, AVG(sal) FROM r").unwrap();
        let Query::Select(s) = q else { panic!() };
        assert_eq!(
            s.items[0],
            SelectItem::Agg(AggFunc::Count, AggArg::Star, Some("n".into()))
        );
        assert!(matches!(s.items[1], SelectItem::Agg(AggFunc::Avg, _, None)));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_script("SELECT FROM").is_err());
        assert!(parse_script("CREATE TABLE t (a WAT)").is_err());
        assert!(parse_script("INSERT INTO t VALUES (").is_err());
        assert!(parse_query("SELECT a FROM r; SELECT b FROM s").is_err());
    }

    #[test]
    fn parse_errors_carry_the_offending_token_position() {
        // `FRM` starts at byte 9: the missing-FROM error points there.
        let err = parse_script("SELECT a FRM r").unwrap_err();
        let RelError::Parse { pos, msg } = &err else {
            panic!("expected RelError::Parse, got {err:?}");
        };
        assert_eq!(*pos, 9, "{msg}");
        assert!(msg.contains("expected `FROM`"), "{msg}");
        // The Display rendering keeps the `parse error:` prefix and names
        // the byte offset.
        assert!(err.to_string().starts_with("parse error:"), "{err}");
        assert!(err.to_string().contains("at byte 9"), "{err}");

        // Errors at end of input point one past the last byte.
        let err = parse_script("SELECT a FROM").unwrap_err();
        assert!(matches!(err, RelError::Parse { pos: 13, .. }), "{err:?}");

        // A rejected consumed token (unknown column type) is still the
        // anchor, not the token after it.
        let err = parse_script("CREATE TABLE t (a WAT)").unwrap_err();
        assert!(matches!(err, RelError::Parse { pos: 18, .. }), "{err:?}");

        // parse_query's "exactly one" errors anchor at the surplus
        // second statement (byte 17), not at the valid first query.
        let err = parse_query("SELECT a FROM r; SELECT b FROM s").unwrap_err();
        assert!(matches!(err, RelError::Parse { pos: 17, .. }), "{err:?}");
        // …and at the start of a non-query statement.
        let err = parse_query("DROP TABLE t").unwrap_err();
        assert!(matches!(err, RelError::Parse { pos: 0, .. }), "{err:?}");
    }
}
