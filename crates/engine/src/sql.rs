//! A small SQL surface for mining queries.
//!
//! Queries take the shape the paper's examples use, with prediction joins
//! flattened into a `PREDICT(model)` pseudo-function (the model's schema
//! must match the table's, which is what a `PREDICTION JOIN ... ON`
//! column mapping establishes in §2.2):
//!
//! ```sql
//! SELECT * FROM customers WHERE PREDICT(risk_model) = 'low' AND age > 30
//! SELECT COUNT(*) FROM t WHERE PREDICT(m1) = PREDICT(m2)
//! SELECT * FROM t WHERE PREDICT(m) IN ('a', 'b') OR NOT (x BETWEEN 1 AND 3)
//! EXPLAIN SELECT * FROM t WHERE PREDICT(m) = age_class
//! ```
//!
//! Value comparisons are compiled to member space: on binned columns the
//! constants snap to bin boundaries (envelope-generated SQL always uses
//! exact cut points, so its round-trip is lossless).

use crate::catalog::Catalog;
use crate::expr::{Atom, AtomPred, Expr, MiningPred};
use crate::EngineError;
use mpq_types::{AttrDomain, AttrId, MemberSet, Schema, Value};

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedQuery {
    /// Catalog id of the table in FROM.
    pub table: usize,
    /// The WHERE predicate (TRUE when absent).
    pub predicate: Expr,
    /// Was `EXPLAIN` requested?
    pub explain: bool,
    /// `SELECT COUNT(*)` instead of `SELECT *`.
    pub count_only: bool,
}

/// The training algorithm named in a `CREATE MINING MODEL` statement
/// (§2.2's `USING [Decision_Trees_101]` clause, with this engine's
/// algorithm names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelAlgorithm {
    /// Entropy-split binary decision tree.
    DecisionTree,
    /// Discrete naive Bayes.
    NaiveBayes,
    /// Sequential-covering rule set.
    Rules,
    /// k-prototypes centroid clustering (needs a cluster count).
    KMeans,
    /// Diagonal Gaussian mixture via EM (needs a cluster count).
    Gmm,
}

/// A parsed statement: a query, or DDL.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `[EXPLAIN] SELECT ...`.
    Select(ParsedQuery),
    /// `CREATE MINING MODEL <name> ON <table> PREDICT <col> USING <alg>`
    /// (classification) or
    /// `CREATE MINING MODEL <name> ON <table> WITH <k> CLUSTERS USING
    /// <alg>` (clustering). Training happens at execution; envelopes are
    /// derived at registration, as §4.2 prescribes.
    CreateModel {
        /// New model name.
        name: String,
        /// Training table (catalog id).
        table: usize,
        /// Label column for classification; `None` for clustering.
        label: Option<mpq_types::AttrId>,
        /// Cluster count for clustering algorithms.
        clusters: Option<usize>,
        /// The algorithm.
        algorithm: ModelAlgorithm,
    },
    /// `INSERT INTO <table> VALUES (v, ...), (v, ...)`: appends rows.
    /// Each literal resolves against its column's domain exactly as a
    /// WHERE comparison would (strings on categorical columns, numbers
    /// snapped into bins on binned columns), so arity and domain errors
    /// are rejected at parse time, before anything is logged.
    Insert {
        /// Target table (catalog id).
        table: usize,
        /// Rows in member space, one entry per schema column.
        rows: Vec<Vec<mpq_types::Member>>,
    },
    /// `SET PARALLELISM <n>`: the session knob for the degree of
    /// parallelism query execution uses (1 = serial).
    SetParallelism(usize),
    /// `SET GUARD <ROWS|PAGES|MODEL_CALLS|TIME_MS> <n>`: replaces one
    /// budget of the session's query guard (`n = 0` lifts that budget).
    SetGuard {
        /// Which budget to replace.
        resource: crate::error::GuardResource,
        /// The new limit; `None` (spelled `0`) means unlimited.
        limit: Option<u64>,
    },
    /// `SET GUARD OFF`: clears every budget (the unlimited guard).
    SetGuardOff,
    /// `SUBSCRIBE SELECT ...`: registers the query as a standing
    /// subscription — every subsequently inserted row matching its
    /// predicate is pushed to the subscriber. `sql` keeps the inner
    /// query's verbatim text for durable registration (the WAL logs the
    /// text and re-parses it at replay, so recovery sees the same
    /// predicate the subscriber registered).
    Subscribe {
        /// The parsed inner query (validated against the catalog).
        query: ParsedQuery,
        /// The inner query's raw SQL text.
        sql: String,
    },
    /// `UNSUBSCRIBE <id>`: removes a standing subscription.
    Unsubscribe {
        /// The subscription id returned by `SUBSCRIBE`.
        id: u64,
    },
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Num(f64),
    Sym(&'static str), // ( ) , = < > <= >= <> *
}

fn lex(input: &str) -> Result<Vec<(usize, Tok)>, EngineError> {
    let bytes = input.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' | ')' | ',' | '*' | '=' => {
                out.push((i, Tok::Sym(match c {
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    '*' => "*",
                    _ => "=",
                })));
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push((i, Tok::Sym("<=")));
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    out.push((i, Tok::Sym("<>")));
                    i += 2;
                } else {
                    out.push((i, Tok::Sym("<")));
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push((i, Tok::Sym(">=")));
                    i += 2;
                } else {
                    out.push((i, Tok::Sym(">")));
                    i += 1;
                }
            }
            '\'' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    match bytes.get(i) {
                        Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                            s.push('\'');
                            i += 2;
                        }
                        Some(b'\'') => {
                            i += 1;
                            break;
                        }
                        Some(&b) => {
                            s.push(b as char);
                            i += 1;
                        }
                        None => {
                            return Err(EngineError::Parse {
                                at: start,
                                detail: "unterminated string literal".into(),
                            })
                        }
                    }
                }
                out.push((start, Tok::Str(s)));
            }
            c if c.is_ascii_digit() || c == '-' || c == '.' => {
                let start = i;
                i += 1;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_digit()
                        || bytes[i] == b'.'
                        || bytes[i] == b'e'
                        || bytes[i] == b'E'
                        || bytes[i] == b'-'
                        || bytes[i] == b'+')
                {
                    // Allow exponent syntax; `-`/`+` only right after e/E.
                    if (bytes[i] == b'-' || bytes[i] == b'+')
                        && !(bytes[i - 1] == b'e' || bytes[i - 1] == b'E')
                    {
                        break;
                    }
                    i += 1;
                }
                let text = &input[start..i];
                let n: f64 = text.parse().map_err(|_| EngineError::Parse {
                    at: start,
                    detail: format!("bad number {text:?}"),
                })?;
                out.push((start, Tok::Num(n)));
            }
            c if c.is_ascii_alphabetic() || c == '_' || c == '[' => {
                let start = i;
                if c == '[' {
                    i += 1;
                    let mut s = String::new();
                    while i < bytes.len() && bytes[i] != b']' {
                        s.push(bytes[i] as char);
                        i += 1;
                    }
                    if i == bytes.len() {
                        return Err(EngineError::Parse {
                            at: start,
                            detail: "unterminated [identifier]".into(),
                        });
                    }
                    i += 1;
                    out.push((start, Tok::Ident(s)));
                } else {
                    while i < bytes.len()
                        && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                    {
                        i += 1;
                    }
                    out.push((start, Tok::Ident(input[start..i].to_string())));
                }
            }
            other => {
                return Err(EngineError::Parse { at: i, detail: format!("unexpected {other:?}") })
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser<'a> {
    toks: Vec<(usize, Tok)>,
    pos: usize,
    catalog: &'a Catalog,
    schema: Option<Schema>,
    table: Option<usize>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn at(&self) -> usize {
        self.toks.get(self.pos).map_or(usize::MAX, |(i, _)| *i)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(_, t)| t.clone());
        self.pos += 1;
        t
    }

    fn err(&self, detail: impl Into<String>) -> EngineError {
        EngineError::Parse { at: self.at().min(1_000_000), detail: detail.into() }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), EngineError> {
        match self.bump() {
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(self.err(format!("expected {kw}, got {other:?}"))),
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, sym: &str) -> Result<(), EngineError> {
        match self.bump() {
            Some(Tok::Sym(s)) if s == sym => Ok(()),
            other => Err(self.err(format!("expected {sym:?}, got {other:?}"))),
        }
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Sym(s)) if *s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn schema(&self) -> &Schema {
        // Invariant-backed: the grammar resolves FROM (which sets
        // self.schema) before any production that consults the schema.
        self.schema.as_ref().expect("FROM parsed before WHERE")
    }

    fn statement(&mut self) -> Result<Statement, EngineError> {
        if self.eat_kw("CREATE") {
            return self.create_model();
        }
        if self.eat_kw("INSERT") {
            return self.insert();
        }
        if self.eat_kw("SET") {
            return self.set_statement();
        }
        if self.eat_kw("UNSUBSCRIBE") {
            let id = match self.bump() {
                Some(Tok::Num(n)) if n >= 0.0 && n.fract() == 0.0 => n as u64,
                other => {
                    return Err(
                        self.err(format!("expected a subscription id, got {other:?}"))
                    )
                }
            };
            self.expect_end()?;
            return Ok(Statement::Unsubscribe { id });
        }
        Ok(Statement::Select(self.query()?))
    }

    fn set_statement(&mut self) -> Result<Statement, EngineError> {
        if self.eat_kw("GUARD") {
            return self.set_guard();
        }
        self.expect_kw("PARALLELISM")?;
        let dop = match self.bump() {
            Some(Tok::Num(n)) if n >= 1.0 && n.fract() == 0.0 => n as usize,
            other => {
                return Err(self.err(format!(
                    "expected a positive integer degree of parallelism, got {other:?}"
                )))
            }
        };
        self.expect_end()?;
        Ok(Statement::SetParallelism(dop))
    }

    fn set_guard(&mut self) -> Result<Statement, EngineError> {
        use crate::error::GuardResource;
        if self.eat_kw("OFF") {
            self.expect_end()?;
            return Ok(Statement::SetGuardOff);
        }
        let resource = match self.bump() {
            Some(Tok::Ident(s)) => match s.to_ascii_uppercase().as_str() {
                "ROWS" => GuardResource::RowsExamined,
                "PAGES" => GuardResource::PagesRead,
                "MODEL_CALLS" => GuardResource::ModelInvocations,
                "TIME_MS" => GuardResource::WallClock,
                other => {
                    return Err(self.err(format!(
                        "unknown guard resource {other:?} (expected ROWS, PAGES, \
                         MODEL_CALLS, TIME_MS or OFF)"
                    )))
                }
            },
            other => return Err(self.err(format!("expected a guard resource, got {other:?}"))),
        };
        let limit = match self.bump() {
            Some(Tok::Num(n)) if n >= 0.0 && n.fract() == 0.0 => {
                // 0 lifts the budget: "no limit" needs a spelling and a
                // zero-row/zero-page budget would reject every query.
                (n > 0.0).then_some(n as u64)
            }
            other => {
                return Err(self.err(format!(
                    "expected a non-negative integer limit (0 = unlimited), got {other:?}"
                )))
            }
        };
        self.expect_end()?;
        Ok(Statement::SetGuard { resource, limit })
    }

    fn insert(&mut self) -> Result<Statement, EngineError> {
        self.expect_kw("INTO")?;
        let table_name = match self.bump() {
            Some(Tok::Ident(s)) => s,
            other => return Err(self.err(format!("expected table name, got {other:?}"))),
        };
        let table = self
            .catalog
            .table_by_name(&table_name)
            .ok_or(EngineError::UnknownTable(table_name))?;
        self.table = Some(table);
        self.schema = Some(self.catalog.table(table).table.schema().clone());
        self.expect_kw("VALUES")?;
        let n_cols = self.schema().len();
        let mut rows = Vec::new();
        loop {
            self.expect_sym("(")?;
            let mut row = Vec::with_capacity(n_cols);
            for d in 0..n_cols {
                if d > 0 {
                    self.expect_sym(",")?;
                }
                row.push(self.value_member(AttrId(d as u16), Snap::Exact)?);
            }
            self.expect_sym(")")?;
            rows.push(row);
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_end()?;
        Ok(Statement::Insert { table, rows })
    }

    fn expect_end(&mut self) -> Result<(), EngineError> {
        if self.pos != self.toks.len() {
            return Err(self.err("trailing input after statement"));
        }
        Ok(())
    }

    fn create_model(&mut self) -> Result<Statement, EngineError> {
        self.expect_kw("MINING")?;
        self.expect_kw("MODEL")?;
        let name = match self.bump() {
            Some(Tok::Ident(s)) => s,
            other => return Err(self.err(format!("expected model name, got {other:?}"))),
        };
        self.expect_kw("ON")?;
        let table_name = match self.bump() {
            Some(Tok::Ident(s)) => s,
            other => return Err(self.err(format!("expected table name, got {other:?}"))),
        };
        let table = self
            .catalog
            .table_by_name(&table_name)
            .ok_or(EngineError::UnknownTable(table_name))?;
        let schema = self.catalog.table(table).table.schema().clone();

        let (label, clusters) = if self.eat_kw("PREDICT") {
            let col = match self.bump() {
                Some(Tok::Ident(s)) => s,
                other => return Err(self.err(format!("expected label column, got {other:?}"))),
            };
            let attr =
                schema.attr_by_name(&col).ok_or(EngineError::UnknownColumn(col))?;
            (Some(attr), None)
        } else if self.eat_kw("WITH") {
            let k = match self.bump() {
                Some(Tok::Num(n)) if n >= 1.0 && n.fract() == 0.0 => n as usize,
                other => return Err(self.err(format!("expected cluster count, got {other:?}"))),
            };
            self.expect_kw("CLUSTERS")?;
            (None, Some(k))
        } else {
            return Err(self.err("expected PREDICT <column> or WITH <k> CLUSTERS"));
        };

        self.expect_kw("USING")?;
        let algorithm = match self.bump() {
            Some(Tok::Ident(s)) => match s.to_ascii_uppercase().as_str() {
                "DECISION_TREE" | "TREE" => ModelAlgorithm::DecisionTree,
                "NAIVE_BAYES" | "BAYES" => ModelAlgorithm::NaiveBayes,
                "RULES" => ModelAlgorithm::Rules,
                "KMEANS" => ModelAlgorithm::KMeans,
                "GMM" => ModelAlgorithm::Gmm,
                other => return Err(self.err(format!("unknown algorithm {other:?}"))),
            },
            other => return Err(self.err(format!("expected algorithm, got {other:?}"))),
        };
        // Classification needs a label; clustering needs a count.
        match algorithm {
            ModelAlgorithm::KMeans | ModelAlgorithm::Gmm if clusters.is_none() => {
                return Err(self.err("clustering algorithms need WITH <k> CLUSTERS"))
            }
            ModelAlgorithm::DecisionTree | ModelAlgorithm::NaiveBayes | ModelAlgorithm::Rules
                if label.is_none() =>
            {
                return Err(self.err("classification algorithms need PREDICT <column>"))
            }
            _ => {}
        }
        if self.pos != self.toks.len() {
            return Err(self.err("trailing input after statement"));
        }
        Ok(Statement::CreateModel { name, table, label, clusters, algorithm })
    }

    fn query(&mut self) -> Result<ParsedQuery, EngineError> {
        let explain = self.eat_kw("EXPLAIN");
        self.expect_kw("SELECT")?;
        let count_only = if self.eat_kw("COUNT") {
            self.expect_sym("(")?;
            self.expect_sym("*")?;
            self.expect_sym(")")?;
            true
        } else {
            self.expect_sym("*")?;
            false
        };
        self.expect_kw("FROM")?;
        let table_name = match self.bump() {
            Some(Tok::Ident(s)) => s,
            other => return Err(self.err(format!("expected table name, got {other:?}"))),
        };
        let table = self
            .catalog
            .table_by_name(&table_name)
            .ok_or(EngineError::UnknownTable(table_name))?;
        self.table = Some(table);
        self.schema = Some(self.catalog.table(table).table.schema().clone());
        let predicate = if self.eat_kw("WHERE") { self.or_expr()? } else { Expr::Const(true) };
        if self.pos != self.toks.len() {
            return Err(self.err("trailing input after query"));
        }
        Ok(ParsedQuery { table, predicate, explain, count_only })
    }

    fn or_expr(&mut self) -> Result<Expr, EngineError> {
        let mut parts = vec![self.and_expr()?];
        while self.eat_kw("OR") {
            parts.push(self.and_expr()?);
        }
        Ok(Expr::or(parts))
    }

    fn and_expr(&mut self) -> Result<Expr, EngineError> {
        let mut parts = vec![self.unary()?];
        while self.eat_kw("AND") {
            parts.push(self.unary()?);
        }
        Ok(Expr::and(parts))
    }

    fn unary(&mut self) -> Result<Expr, EngineError> {
        if self.eat_kw("NOT") {
            return Ok(Expr::Not(Box::new(self.unary()?)));
        }
        if self.eat_sym("(") {
            let e = self.or_expr()?;
            self.expect_sym(")")?;
            return Ok(e);
        }
        self.predicate()
    }

    fn predicate(&mut self) -> Result<Expr, EngineError> {
        if self.eat_kw("PREDICT") {
            return self.mining_predicate();
        }
        let col_name = match self.bump() {
            Some(Tok::Ident(s)) => s,
            other => return Err(self.err(format!("expected column, got {other:?}"))),
        };
        let attr = self
            .schema()
            .attr_by_name(&col_name)
            .ok_or(EngineError::UnknownColumn(col_name.clone()))?;
        self.column_predicate(attr)
    }

    fn mining_predicate(&mut self) -> Result<Expr, EngineError> {
        self.expect_sym("(")?;
        let model_name = match self.bump() {
            Some(Tok::Ident(s)) => s,
            other => return Err(self.err(format!("expected model name, got {other:?}"))),
        };
        let model = self
            .catalog
            .model_by_name(&model_name)
            .ok_or(EngineError::UnknownModel(model_name))?;
        self.expect_sym(")")?;
        if self.eat_kw("IN") {
            self.expect_sym("(")?;
            let mut classes = Vec::new();
            loop {
                match self.bump() {
                    Some(Tok::Str(label)) => {
                        classes.push(self.catalog.resolve_class(model, &label)?)
                    }
                    other => return Err(self.err(format!("expected class label, got {other:?}"))),
                }
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            return Ok(Expr::Mining(MiningPred::ClassIn { model, classes }));
        }
        let negate = if self.eat_sym("<>") {
            true
        } else {
            self.expect_sym("=")?;
            false
        };
        let inner = match self.bump() {
            Some(Tok::Str(label)) => {
                let class = self.catalog.resolve_class(model, &label)?;
                Expr::Mining(MiningPred::ClassEq { model, class })
            }
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("PREDICT") => {
                self.expect_sym("(")?;
                let m2_name = match self.bump() {
                    Some(Tok::Ident(s)) => s,
                    other => return Err(self.err(format!("expected model name, got {other:?}"))),
                };
                let m2 = self
                    .catalog
                    .model_by_name(&m2_name)
                    .ok_or(EngineError::UnknownModel(m2_name))?;
                self.expect_sym(")")?;
                Expr::Mining(MiningPred::ModelsAgree { m1: model, m2 })
            }
            Some(Tok::Ident(col)) => {
                let attr = self
                    .schema()
                    .attr_by_name(&col)
                    .ok_or(EngineError::UnknownColumn(col))?;
                Expr::Mining(MiningPred::ClassEqColumn { model, column: attr })
            }
            other => return Err(self.err(format!("expected class/column/PREDICT, got {other:?}"))),
        };
        Ok(if negate { Expr::Not(Box::new(inner)) } else { inner })
    }

    fn column_predicate(&mut self, attr: AttrId) -> Result<Expr, EngineError> {
        let card = self.schema().attr(attr).domain.cardinality();
        if self.eat_kw("BETWEEN") {
            let lo = self.value_member(attr, Snap::GeInclusiveLow)?;
            self.expect_kw("AND")?;
            let hi = self.value_member(attr, Snap::LeInclusiveHigh)?;
            return Ok(Expr::Atom(Atom { attr, pred: AtomPred::Range { lo, hi } }));
        }
        if self.eat_kw("IN") {
            self.expect_sym("(")?;
            let mut set = MemberSet::empty(card);
            loop {
                set.insert(self.value_member(attr, Snap::Exact)?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            return Ok(Expr::Atom(Atom { attr, pred: AtomPred::In(set) }));
        }
        let op = match self.bump() {
            Some(Tok::Sym(s)) => s,
            other => return Err(self.err(format!("expected comparison, got {other:?}"))),
        };
        let pred = match op {
            "=" => AtomPred::Eq(self.value_member(attr, Snap::Exact)?),
            "<>" => {
                let m = self.value_member(attr, Snap::Exact)?;
                let mut s = MemberSet::full(card);
                s.remove(m);
                AtomPred::In(s)
            }
            "<=" | "<" => {
                let m = self.value_member(attr, Snap::LeInclusiveHigh)?;
                AtomPred::Range { lo: 0, hi: m }
            }
            ">" => {
                let m = self.value_member(attr, Snap::GtExclusiveLow)?;
                AtomPred::Range { lo: m, hi: card - 1 }
            }
            ">=" => {
                let m = self.value_member(attr, Snap::GeInclusiveLow)?;
                AtomPred::Range { lo: m, hi: card - 1 }
            }
            other => return Err(self.err(format!("unsupported operator {other:?}"))),
        };
        Ok(Expr::Atom(Atom { attr, pred }))
    }

    /// Resolves a literal to a member index.
    fn value_member(&mut self, attr: AttrId, snap: Snap) -> Result<u16, EngineError> {
        let domain = self.schema().attr(attr).domain.clone();
        match (self.bump(), &domain) {
            (Some(Tok::Str(s)), AttrDomain::Categorical { .. }) => domain
                .encode(&Value::Str(s.clone()))
                .map_err(|e| EngineError::BadValue(e.to_string())),
            (Some(Tok::Num(x)), AttrDomain::Binned { cuts }) => {
                let m = domain.encode(&Value::Num(x)).map_err(|e| EngineError::BadValue(e.to_string()))?;
                Ok(match snap {
                    Snap::Exact | Snap::LeInclusiveHigh | Snap::GeInclusiveLow => m,
                    // `col > c` where c is exactly the upper cut of bin m
                    // starts at the *next* bin (encode puts cut values in
                    // the bin they close: cuts[m-1] < x <= cuts[m]); for
                    // non-cut constants the bin containing c still has
                    // values above c, so it stays included.
                    Snap::GtExclusiveLow => {
                        if cuts.get(m as usize).copied() == Some(x) {
                            m + 1
                        } else {
                            m
                        }
                    }
                })
            }
            (Some(t), _) => Err(self.err(format!("literal {t:?} does not fit column domain"))),
            (None, _) => Err(self.err("expected literal")),
        }
    }
}

/// Snapping mode for numeric literals against bin boundaries.
#[derive(Clone, Copy)]
enum Snap {
    Exact,
    LeInclusiveHigh,
    GeInclusiveLow,
    GtExclusiveLow,
}

/// Parses one query against the catalog.
pub fn parse(input: &str, catalog: &Catalog) -> Result<ParsedQuery, EngineError> {
    let toks = lex(input)?;
    let mut p = Parser { toks, pos: 0, catalog, schema: None, table: None };
    p.query()
}

/// Parses one statement (query or DDL) against the catalog.
pub fn parse_statement(input: &str, catalog: &Catalog) -> Result<Statement, EngineError> {
    let toks = lex(input)?;
    // `SUBSCRIBE <query>` is handled here rather than in the token
    // parser because the subscription must keep the inner query's
    // *verbatim text* (for durable WAL registration) — the byte offset
    // of the second token slices it out of `input` exactly.
    if let Some((_, Tok::Ident(kw))) = toks.first() {
        if kw.eq_ignore_ascii_case("SUBSCRIBE") {
            let Some(&(start, _)) = toks.get(1) else {
                return Err(EngineError::Parse {
                    at: input.len(),
                    detail: "expected a query after SUBSCRIBE".into(),
                });
            };
            let sql = input[start..].trim().to_string();
            let mut p = Parser { toks, pos: 1, catalog, schema: None, table: None };
            let query = p.query()?;
            if query.explain || query.count_only {
                return Err(EngineError::Parse {
                    at: start,
                    detail: "SUBSCRIBE takes a plain SELECT * query (no EXPLAIN or \
                             COUNT(*))"
                        .into(),
                });
            }
            return Ok(Statement::Subscribe { query, sql });
        }
    }
    let mut p = Parser { toks, pos: 0, catalog, schema: None, table: None };
    p.statement()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;
    use mpq_core::{paper_table1_model, DeriveOptions};
    use mpq_types::{Attribute, ClassId, Dataset};
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let schema = Schema::new(vec![
            Attribute::new("age", AttrDomain::binned(vec![30.0, 63.0]).unwrap()),
            Attribute::new("color", AttrDomain::categorical(["red", "green", "blue"])),
        ])
        .unwrap();
        let ds = Dataset::from_rows(schema, vec![vec![0, 0], vec![1, 1], vec![2, 2]]).unwrap();
        let mut cat = Catalog::new();
        cat.add_table(Table::from_dataset("people", &ds)).unwrap();
        // A model over the Table-1 schema, registered under "m" (not
        // applied to `people` in these parse tests).
        cat.add_model("m", Arc::new(paper_table1_model()), DeriveOptions::default()).unwrap();
        cat
    }

    #[test]
    fn parses_set_parallelism() {
        let cat = catalog();
        assert_eq!(
            parse_statement("SET PARALLELISM 4", &cat).unwrap(),
            Statement::SetParallelism(4)
        );
        assert_eq!(
            parse_statement("set parallelism 1", &cat).unwrap(),
            Statement::SetParallelism(1)
        );
        // Zero, fractional, missing, and trailing input all reject.
        assert!(parse_statement("SET PARALLELISM 0", &cat).is_err());
        assert!(parse_statement("SET PARALLELISM 2.5", &cat).is_err());
        assert!(parse_statement("SET PARALLELISM", &cat).is_err());
        assert!(parse_statement("SET PARALLELISM 2 4", &cat).is_err());
        assert!(parse_statement("SET SOMETHING 2", &cat).is_err());
    }

    #[test]
    fn parses_insert() {
        let cat = catalog();
        // 40 falls in bin (30, 63] = member 1; 70 in (63, inf) = member 2.
        let s =
            parse_statement("INSERT INTO people VALUES (40, 'red'), (70, 'blue')", &cat).unwrap();
        assert_eq!(s, Statement::Insert { table: 0, rows: vec![vec![1, 0], vec![2, 2]] });
        // Arity, domain, table, and trailing-input errors reject at parse.
        assert!(parse_statement("INSERT INTO people VALUES (40)", &cat).is_err());
        assert!(parse_statement("INSERT INTO people VALUES ('red', 40)", &cat).is_err());
        assert!(parse_statement("INSERT INTO people VALUES (40, 'mauve')", &cat).is_err());
        assert!(parse_statement("INSERT INTO nope VALUES (40, 'red')", &cat).is_err());
        assert!(parse_statement("INSERT INTO people VALUES (40, 'red') x", &cat).is_err());
        assert!(parse_statement("INSERT INTO people VALUES", &cat).is_err());
    }

    #[test]
    fn parses_select_star() {
        let cat = catalog();
        let q = parse("SELECT * FROM people", &cat).unwrap();
        assert_eq!(q.predicate, Expr::Const(true));
        assert!(!q.explain && !q.count_only);
        let q = parse("explain select count(*) from PEOPLE where age > 30", &cat).unwrap();
        assert!(q.explain && q.count_only);
    }

    #[test]
    fn numeric_comparisons_snap_to_bins() {
        let cat = catalog();
        // age <= 63 covers bins 0..=1; age > 63 covers bin 2 only; age >
        // 30 covers bins 1..=2.
        let q = parse("SELECT * FROM people WHERE age <= 63", &cat).unwrap();
        assert_eq!(
            q.predicate,
            Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Range { lo: 0, hi: 1 } })
        );
        let q = parse("SELECT * FROM people WHERE age > 63", &cat).unwrap();
        assert_eq!(
            q.predicate,
            Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Range { lo: 2, hi: 2 } })
        );
        let q = parse("SELECT * FROM people WHERE age > 30", &cat).unwrap();
        assert_eq!(
            q.predicate,
            Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Range { lo: 1, hi: 2 } })
        );
        // Non-cut constant: bin containing 40 is (30, 63] = member 1;
        // `> 40` conservatively keeps member 1.
        let q = parse("SELECT * FROM people WHERE age > 40", &cat).unwrap();
        assert_eq!(
            q.predicate,
            Expr::Atom(Atom { attr: AttrId(0), pred: AtomPred::Range { lo: 1, hi: 2 } })
        );
    }

    #[test]
    fn string_equality_and_in() {
        let cat = catalog();
        let q = parse("SELECT * FROM people WHERE color = 'green'", &cat).unwrap();
        assert_eq!(q.predicate, Expr::Atom(Atom { attr: AttrId(1), pred: AtomPred::Eq(1) }));
        let q = parse("SELECT * FROM people WHERE color IN ('red', 'blue')", &cat).unwrap();
        assert_eq!(
            q.predicate,
            Expr::Atom(Atom { attr: AttrId(1), pred: AtomPred::In(MemberSet::of(3, [0, 2])) })
        );
        let q = parse("SELECT * FROM people WHERE color <> 'red'", &cat).unwrap();
        assert_eq!(
            q.predicate,
            Expr::Atom(Atom { attr: AttrId(1), pred: AtomPred::In(MemberSet::of(3, [1, 2])) })
        );
    }

    #[test]
    fn between_and_boolean_structure() {
        let cat = catalog();
        let q = parse(
            "SELECT * FROM people WHERE age BETWEEN 30 AND 63 OR NOT (color = 'red' AND age > 63)",
            &cat,
        )
        .unwrap();
        match &q.predicate {
            Expr::Or(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[1], Expr::Not(_)));
            }
            other => panic!("expected OR, got {other:?}"),
        }
    }

    #[test]
    fn mining_predicates_parse() {
        let cat = catalog();
        let q = parse("SELECT * FROM people WHERE PREDICT(m) = 'c2'", &cat).unwrap();
        assert_eq!(
            q.predicate,
            Expr::Mining(MiningPred::ClassEq { model: 0, class: ClassId(1) })
        );
        let q = parse("SELECT * FROM people WHERE PREDICT(m) IN ('c1', 'c3')", &cat).unwrap();
        assert_eq!(
            q.predicate,
            Expr::Mining(MiningPred::ClassIn { model: 0, classes: vec![ClassId(0), ClassId(2)] })
        );
        let q = parse("SELECT * FROM people WHERE PREDICT(m) = PREDICT(m)", &cat).unwrap();
        assert_eq!(q.predicate, Expr::Mining(MiningPred::ModelsAgree { m1: 0, m2: 0 }));
        let q = parse("SELECT * FROM people WHERE PREDICT(m) = color", &cat).unwrap();
        assert_eq!(
            q.predicate,
            Expr::Mining(MiningPred::ClassEqColumn { model: 0, column: AttrId(1) })
        );
        let q = parse("SELECT * FROM people WHERE PREDICT(m) <> 'c1'", &cat).unwrap();
        assert!(matches!(q.predicate, Expr::Not(_)));
    }

    #[test]
    fn errors_are_specific() {
        let cat = catalog();
        assert!(matches!(
            parse("SELECT * FROM nope", &cat),
            Err(EngineError::UnknownTable(_))
        ));
        assert!(matches!(
            parse("SELECT * FROM people WHERE ghost = 1", &cat),
            Err(EngineError::UnknownColumn(_))
        ));
        assert!(matches!(
            parse("SELECT * FROM people WHERE PREDICT(ghost) = 'x'", &cat),
            Err(EngineError::UnknownModel(_))
        ));
        assert!(matches!(
            parse("SELECT * FROM people WHERE PREDICT(m) = 'zz'", &cat),
            Err(EngineError::UnknownClass { .. })
        ));
        assert!(matches!(
            parse("SELECT * FROM people WHERE color = 'mauve'", &cat),
            Err(EngineError::BadValue(_))
        ));
        assert!(matches!(
            parse("SELECT * FROM people WHERE age = 'green'", &cat),
            Err(EngineError::Parse { .. })
        ));
        assert!(matches!(
            parse("SELECT * FROM people WHERE age > 1 trailing", &cat),
            Err(EngineError::Parse { .. })
        ));
        assert!(matches!(
            parse("SELECT * FROM people WHERE color = 'unclosed", &cat),
            Err(EngineError::Parse { .. })
        ));
    }

    #[test]
    fn bracketed_identifiers() {
        let cat = catalog();
        let q = parse("SELECT * FROM [people] WHERE [age] > 63", &cat).unwrap();
        assert_eq!(q.table, 0);
    }

    #[test]
    fn parses_subscribe_and_unsubscribe() {
        let cat = catalog();
        let s = parse_statement(
            "SUBSCRIBE SELECT * FROM people WHERE PREDICT(m) = 'c2'",
            &cat,
        )
        .unwrap();
        match s {
            Statement::Subscribe { query, sql } => {
                assert_eq!(query.table, 0);
                assert_eq!(sql, "SELECT * FROM people WHERE PREDICT(m) = 'c2'");
                assert!(!query.explain && !query.count_only);
            }
            other => panic!("expected Subscribe, got {other:?}"),
        }
        // Keyword is case-insensitive; the captured text is verbatim.
        let s = parse_statement("subscribe select * from people", &cat).unwrap();
        assert!(matches!(
            s,
            Statement::Subscribe { ref sql, .. } if sql == "select * from people"
        ));
        assert_eq!(
            parse_statement("UNSUBSCRIBE 7", &cat).unwrap(),
            Statement::Unsubscribe { id: 7 }
        );
        // EXPLAIN / COUNT(*) / malformed forms reject at parse.
        assert!(parse_statement("SUBSCRIBE EXPLAIN SELECT * FROM people", &cat).is_err());
        assert!(parse_statement("SUBSCRIBE SELECT COUNT(*) FROM people", &cat).is_err());
        assert!(parse_statement("SUBSCRIBE", &cat).is_err());
        assert!(parse_statement("UNSUBSCRIBE", &cat).is_err());
        assert!(parse_statement("UNSUBSCRIBE 1.5", &cat).is_err());
        assert!(parse_statement("UNSUBSCRIBE 7 trailing", &cat).is_err());
    }
}
